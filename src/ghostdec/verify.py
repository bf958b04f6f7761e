"""Independent oracles: exhaustive ML decoding, frame-simulation
crosschecks, and minimum failure-weight search.

These paths deliberately avoid the production decoder's machinery so
that agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .circuits import Circuit, CircuitError
from .dem import (DetectorErrorModel, _bits, mechanism_symptom_xor,
                  site_to_mechanism)
from .frames import CircuitSampler


class VerifyError(CircuitError):
    pass


# relative odds-mass gap within which two logical classes count as tied
ML_TIE_TOLERANCE = 1e-12


def _check_weight(name: str, value) -> None:
    """A weight bound counts mechanisms, so it is a whole number >= 0."""
    if not isinstance(value, Integral) or value < 0:
        raise VerifyError(f"{name} must be a non-negative integer, "
                          f"got {value!r}")


@dataclass(frozen=True)
class MLResult:
    observables: tuple[int, ...]   # most likely logical class
    probability: float             # odds mass of that class (unnormalized)
    ties: tuple[tuple[int, ...], ...]  # classes tied with the max
    solutions: int                 # consistent subsets enumerated


def brute_force_ml_decode(dem: DetectorErrorModel, syndrome: np.ndarray,
                          weight_cap: int = 4) -> MLResult:
    """Maximum-likelihood logical class by exhaustive subset enumeration.

    Enumerates every mechanism subset of size <= weight_cap whose
    detector symptom equals the syndrome, accumulating odds-ratio mass
    per logical class.  Mechanisms without detectors are excluded (they
    decouple from the syndrome).  The syndrome is a set of detector ids
    or a boolean vector over all detectors.  Intended for small models
    only.
    """
    _check_weight("weight_cap", weight_cap)
    mechs = [(e, m) for e, m in enumerate(dem.mechanisms) if m.detectors]
    if len(mechs) > 4000:
        raise VerifyError(f"{len(mechs)} mechanisms is too large for enumeration")
    # residuals, observable classes and banned members are int bitmasks
    if not isinstance(syndrome, (set, frozenset)):
        # a list of ids would read as a 0/1 vector, so only typed
        # vectors of the full length are taken as one
        if (not isinstance(syndrome, np.ndarray) or syndrome.dtype != bool
                or syndrome.shape != (dem.detector_count,)):
            raise VerifyError("syndrome must be a set of detector ids or a "
                              "boolean vector over all detectors")
        syndrome = np.flatnonzero(syndrome)
    # a float id would be truncated to another detector's
    odd = [t for t in syndrome if not isinstance(t, (int, np.integer))]
    if odd:
        raise VerifyError(f"syndrome detector ids {odd} are not integers")
    bad = sorted(t for t in set(syndrome) if not 0 <= t < dem.detector_count)
    if bad:
        raise VerifyError(f"syndrome detector ids {bad} lie outside the model")
    want = sum(1 << int(t) for t in set(syndrome))
    by_det: dict[int, list[int]] = {}
    det_masks = []
    obs_masks = []
    odds = []
    for i, (e, m) in enumerate(mechs):
        det_masks.append(sum(1 << d for d in m.detectors))
        obs_masks.append(sum(1 << j for j in m.observables))
        odds.append(m.probability / (1.0 - m.probability))
        for d in m.detectors:
            by_det.setdefault(d, []).append(i)
    class_mass: dict[int, float] = {}
    solutions = 0

    # Each subset is enumerated once: the branch variable is always the
    # smallest-index member covering the lowest residual detector (or
    # the smallest-index member overall when the residual has cancelled
    # out), so alternatives below that index are banned in the subtree.
    def visit(residual: int, floor: int, banned: int, obs: int,
              weight: float, depth: int):
        nonlocal solutions
        if not residual:
            class_mass[obs] = class_mass.get(obs, 0.0) + weight
            solutions += 1
        # no member's mask is empty, so on the last level only a member
        # equal to the residual can finish
        last = depth == weight_cap - 1
        if depth == weight_cap or (last and not residual):
            return
        if residual:
            pivot = (residual & -residual).bit_length() - 1
            shown = [i for i in by_det.get(pivot, ())
                     if i >= floor and not banned >> i & 1
                     and not (last and det_masks[i] != residual)]
            for i in shown:
                banned |= 1 << i
                visit(residual ^ det_masks[i], floor, banned,
                      obs ^ obs_masks[i], weight * odds[i], depth + 1)
        else:
            for i in range(floor, len(mechs)):
                if banned >> i & 1:
                    continue
                visit(det_masks[i], i + 1, banned,
                      obs ^ obs_masks[i], weight * odds[i], depth + 1)

    visit(want, 0, 0, 0, 1.0, 0)
    if not class_mass:
        raise VerifyError("no consistent correction within the weight cap")
    best = max(class_mass.values())
    tied = sorted(tuple(_bits(k)) for k, v in class_mass.items()
                  if v >= best * (1.0 - ML_TIE_TOLERANCE))
    return MLResult(tied[0], best, tuple(tied), solutions)


@dataclass(frozen=True)
class CrosscheckReport:
    shots: int
    mismatched_shots: int
    first_mismatch: int | None
    ok: bool


def frame_sim_crosscheck(circuit: Circuit, dem: DetectorErrorModel,
                         seed: int, shots: int) -> CrosscheckReport:
    """Shared-fault comparison of two independent sampling paths.

    One path propagates each realized fault through the circuit frame
    by frame; the other XORs the symptoms of the mechanisms those same
    faults belong to.  Any disagreement indicates an extraction bug.
    """
    if seed < 0 or shots < 0:
        raise VerifyError(f"seed and shots must be non-negative, "
                          f"got {seed} and {shots}")
    sampler = CircuitSampler(circuit)
    rng = np.random.default_rng(seed)
    dets, obs, fired = sampler.sample(shots, rng)
    lookup = site_to_mechanism(dem)
    d2, o2 = mechanism_symptom_xor(dem, lookup, fired)
    bad = 0
    first = None
    for s in range(shots):
        if not (np.array_equal(dets[s], d2[s]) and np.array_equal(obs[s], o2[s])):
            bad += 1
            if first is None:
                first = s
    return CrosscheckReport(shots, bad, first, bad == 0)


@dataclass(frozen=True)
class FailurePattern:
    weight: int
    mechanism_ids: tuple[int, ...]
    failing_observables: tuple[int, ...]


def min_failure_weight_search(dem: DetectorErrorModel, decode, region,
                              max_weight: int = 4,
                              reference=None) -> FailurePattern | None:
    """Smallest in-region mechanism set whose injection fools a decoder.

    ``decode`` maps a detector syndrome to an observable flip vector.
    Failure means disagreeing with the injected mechanisms' true flips,
    or, when ``reference`` (another syndrome -> flips callable) is
    given, disagreeing with it; the relative form isolates one stage's
    own failures from losses every decoder shares, such as boundary
    faults whose symptom is likelier under the opposite logical class.
    Combinations are tried in lexicographic order per weight, so the
    returned witness is the lexicographically least at the minimal
    weight.  Returns None when nothing fails up to max_weight.
    """
    region = sorted(region)
    _check_weight("max_weight", max_weight)
    if region and not 0 <= region[0] <= region[-1] < len(dem.mechanisms):
        raise VerifyError(f"region ids must lie in [0, {len(dem.mechanisms)})")
    for w in range(1, max_weight + 1):
        for combo in itertools.combinations(region, w):
            syndrome = np.zeros(dem.detector_count, dtype=bool)
            truth = np.zeros(dem.observable_count, dtype=bool)
            for e in combo:
                m = dem.mechanisms[e]
                for d in m.detectors:
                    syndrome[d] ^= True
                for j in m.observables:
                    truth[j] ^= True
            got = decode(syndrome)
            want = truth if reference is None else reference(syndrome)
            if not np.array_equal(got, want):
                failing = tuple(int(j) for j in np.flatnonzero(got ^ want))
                return FailurePattern(w, tuple(combo), failing)
    return None

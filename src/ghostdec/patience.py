"""Heralded buffer extension for windowed gate decisions.

A decision made a single round after a transversal CNOT can be fooled
by error patterns roughly half as heavy as the code normally corrects.
Two cheap checks on the just-finished decode herald such shots: the
correction weight near the severance growing across protocol passes,
and a complementary decode with the open temporal boundary closed
arriving at a different answer.  A heralded gate delays its decision,
re-windows with more syndrome rounds, and decodes once more.

Patience is a retry policy on the real-time carry loop,
:func:`ghostdec.windows.carry_gates`: it changes how one gate is
decoded, never how commits carry between gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitError
from .decompose import DecomposedDEM
from .dem import DetectorErrorModel
from .ghost import (DEFAULT_SCHEDULE, PassSchedule, build_protocol_graphs,
                    run_ghost_protocol)
from .matching import MatchingError
from .windows import (SeveranceSpec, TproxyPlan, WindowConfig, WindowError,
                      WindowedProblem, carry_gates, plan_tproxy_windows,
                      window_dem, _patch_max_time)


class PatienceError(CircuitError):
    pass


def patience_delay(d: int, n_buf: int = 1) -> int:
    """Extra rounds a heralded decision waits before the final attempt.

    The extended window grants ceil(d/2) - 1 rounds past the CNOT, the
    point where the windowed failure threshold reaches the code's own
    half-distance, so the delay on top of the base buffer is
    ceil(d/2) - 1 - n_buf rounds (0 already at distance 3).
    """
    return max((d + 1) // 2 - 1 - n_buf, 0)


@dataclass(frozen=True)
class HeraldResult:
    heralded: bool
    trigger: str          # weight-growth | complementary | none
    delay_rounds: int
    weight_growth: bool   # both checks always run, for statistics
    complementary: bool
    changed: bool         # delayed re-decode produced a different bit

    def __post_init__(self):
        if self.trigger not in ("weight-growth", "complementary", "none"):
            raise PatienceError(f"unknown trigger {self.trigger!r}")
        if self.heralded != (self.trigger != "none"):
            raise PatienceError("trigger inconsistent with herald flag")
        if not self.heralded and self.delay_rounds:
            raise PatienceError("unheralded decisions cannot be delayed")


def weight_growth_region(dem: DetectorErrorModel, severance: SeveranceSpec,
                         radius: int) -> frozenset[int]:
    """Surviving-patch detectors within ``radius`` rounds of the cut."""
    return frozenset(
        d for d in range(dem.detector_count)
        if dem.detector_patch[d] == severance.patch
        and abs(dem.detector_time[d] - severance.severance_round) <= radius)


def herald_weight_growth(trace: list, region: frozenset[int],
                         patch: int) -> bool:
    """True when the regional correction weight strictly grows.

    Compares the first and final protocol passes of ``patch``, counting
    only correction edges touching a detector in ``region``.  A ghost
    flip committed by mistake shows up as a long correction string near
    the severance that was absent on the first pass.
    """
    if not trace:
        raise PatienceError("weight-growth herald needs a protocol trace")
    per_pass: dict[int, float] = {}
    for entry in trace:
        if entry.get("barrier") or entry["patch"] != patch:
            continue
        w = sum(ew for _, u, v, ew in entry["edges"]
                if u in region or (v is not None and v in region))
        per_pass[entry["pass"]] = w
    if not per_pass:
        raise PatienceError(f"trace holds no passes for patch {patch}")
    return per_pass[max(per_pass)] > per_pass[min(per_pass)] + 1e-9


def herald_complementary(window: WindowedProblem, syndrome: np.ndarray,
                         observable: int, base_flip: bool, *,
                         graphs: dict | None = None,
                         schedule: PassSchedule = DEFAULT_SCHEDULE,
                         ) -> bool:
    """Re-decode with the open temporal boundary closed.

    Error strings may no longer terminate at the cut; a differing
    answer, or an infeasible matching (defects stranded without their
    boundary), heralds a likely windowing failure.
    """
    if graphs is None:
        graphs = build_protocol_graphs(window.decomposed,
                                       exclude_open_boundary=True)
    try:
        res = run_ghost_protocol(window.decomposed, syndrome, schedule,
                                 graphs=graphs, collect_trace=False)
    except MatchingError:
        return True
    return bool(res.logical_flips[observable]) != bool(base_flip)


@dataclass(frozen=True)
class PatiencePlan:
    base: TproxyPlan
    delay_rounds: int
    extended: tuple[WindowedProblem, ...] | None  # None when delay is 0
    closed_graphs: tuple[dict, ...]               # per gate
    regions: tuple[frozenset, ...]                # per gate


def plan_patience(decomposed: DecomposedDEM, config: WindowConfig, d: int, *,
                  region_radius: int | None = None) -> PatiencePlan:
    """Precompute every window variant patience can need.

    Fails when the circuit lacks the syndrome rounds a delayed decision
    would consume (the extended horizon must stay within the surviving
    patch's recorded rounds).
    """
    base = plan_tproxy_windows(decomposed, config)
    delay = patience_delay(d, config.n_buf)
    radius = config.n_buf + 2 if region_radius is None else region_radius
    dem = decomposed.dem
    extended = None
    if delay:
        cache: dict = {}
        ext = []
        for gate in base.gates:
            w = window_dem(decomposed, gate.severance, config,
                           config.n_buf + delay, _cache=cache)
            if w.horizon > _patch_max_time(dem, gate.severance.patch):
                raise WindowError(
                    f"patience at distance {d} needs {delay} delay rounds "
                    f"beyond round {gate.severance.severance_round}, but "
                    f"patch {gate.severance.patch} stops earlier")
            ext.append(w)
        extended = tuple(ext)
    closed = tuple(build_protocol_graphs(w.decomposed,
                                         exclude_open_boundary=True)
                   for w in base.windows)
    regions = tuple(weight_growth_region(dem, w.severance, radius)
                    for w in base.windows)
    return PatiencePlan(base, delay, extended, closed, regions)


@dataclass
class PatientShot:
    decisions: np.ndarray        # final per-observable answers
    base_decisions: np.ndarray   # what the undelayed pipeline said
    heralds: tuple[HeraldResult, ...]


@dataclass
class PatienceStats:
    """Aggregates heralding behavior over many decoded shots."""

    delay_rounds: int = 0
    shots: int = 0
    gates: int = 0
    heralds: int = 0
    weight_growth_heralds: int = 0
    complementary_heralds: int = 0
    false_positives: int = 0     # heralded but the re-decode agreed
    changed: int = 0

    def add(self, shot: PatientShot) -> None:
        self.shots += 1
        self.gates += len(shot.heralds)
        for h in shot.heralds:
            self.delay_rounds = max(self.delay_rounds, h.delay_rounds)
            self.heralds += h.heralded
            self.weight_growth_heralds += h.weight_growth
            self.complementary_heralds += h.complementary
            if h.heralded:
                self.changed += h.changed
                self.false_positives += not h.changed

    @property
    def average_delay(self) -> float:
        """Delay rounds consumed per gate decision."""
        if not self.gates:
            return 0.0
        return self.heralds * self.delay_rounds / self.gates

    @property
    def false_positive_rate(self) -> float:
        if not self.heralds:
            return 0.0
        return self.false_positives / self.heralds


def patient_decode(decomposed: DecomposedDEM, syndrome: np.ndarray,
                   config: WindowConfig, d: int, *,
                   plan: PatiencePlan | None = None,
                   schedule: PassSchedule = DEFAULT_SCHEDULE,
                   region_radius: int | None = None,
                   ) -> PatientShot:
    """Windowed decode where heralded gates get one delayed retry.

    Gates are decoded in time order at the base allowance with a full
    trace; when either herald fires and the distance grants a delay,
    the gate re-windows at the extended allowance and decodes once
    more from the same carried state.  The retry's commits then carry
    forward instead of the original's.  A given ``plan`` fixes the
    windows, delay and regions, so a ``region_radius``, or a ``config``
    or ``d`` the plan was not made for, is an error.
    """
    if plan is None:
        plan = plan_patience(decomposed, config, d,
                             region_radius=region_radius)
    elif (region_radius is not None or config != plan.base.config
          or patience_delay(d, config.n_buf) != plan.delay_rounds):
        raise PatienceError("config, d and region_radius are fixed by "
                            "the given plan")
    heralds = []

    def decode_gate(g, refined):
        gate, window = plan.base.gates[g], plan.base.windows[g]
        res = run_ghost_protocol(window.decomposed, refined, schedule,
                                 graphs=window.graphs, collect_trace=True)
        j = gate.observable
        base_flip = bool(res.logical_flips[j])
        growth = herald_weight_growth(res.trace, plan.regions[g],
                                      gate.severance.patch)
        comp = herald_complementary(window, refined, j, base_flip,
                                    graphs=plan.closed_graphs[g],
                                    schedule=schedule)
        heralded = growth or comp
        trigger = ("weight-growth" if growth else
                   "complementary" if comp else "none")
        changed = False
        if heralded and plan.delay_rounds:
            res = run_ghost_protocol(plan.extended[g].decomposed, refined,
                                     schedule, graphs=plan.extended[g].graphs,
                                     collect_trace=False)
            changed = bool(res.logical_flips[j]) != base_flip
        heralds.append(HeraldResult(
            heralded, trigger, plan.delay_rounds if heralded else 0,
            growth, comp, changed))
        return res

    decisions, _ = carry_gates(decomposed.dem, syndrome, plan.base.gates,
                               decode_gate)
    base_decisions = decisions.copy()
    for gate, herald in zip(plan.base.gates, heralds):
        base_decisions[gate.observable] ^= herald.changed
    return PatientShot(decisions, base_decisions, tuple(heralds))

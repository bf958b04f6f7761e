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
decoded, never how commits carry between gates.  The extended windows
are :class:`ghostdec.windows.Window` objects from the same builder,
:func:`ghostdec.windows.build_window`, as the real-time ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitError
from .decompose import DecomposedDEM
from .dem import DetectorErrorModel
from .ghost import build_protocol_graphs, run_ghost_protocol
from .matching import MatchingError
from .windows import (TproxyGate, TproxyPlan, Window, WindowConfig,
                      WindowError, build_window, carry_gates, patch_last_round,
                      plan_tproxy_windows, tproxy_gates)


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
    weight_growth: bool   # both checks always run, for statistics
    complementary: bool
    delay_rounds: int
    changed: bool         # delayed re-decode produced a different bit

    def __post_init__(self):
        if not self.heralded and self.delay_rounds:
            raise PatienceError("unheralded decisions cannot be delayed")

    @property
    def heralded(self) -> bool:
        return self.weight_growth or self.complementary

    @property
    def trigger(self) -> str:
        """weight-growth, complementary or none: the first check that fired."""
        return ("weight-growth" if self.weight_growth else
                "complementary" if self.complementary else "none")


def weight_growth_region(dem: DetectorErrorModel, gate: TproxyGate,
                         radius: int) -> frozenset[int]:
    """Surviving-patch detectors within ``radius`` rounds of the cut."""
    return frozenset(
        d for d in range(dem.detector_count)
        if dem.detector_patch[d] == gate.patch
        and abs(dem.detector_time[d] - gate.decision_round) <= radius)


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


def herald_complementary(window: Window, syndrome: np.ndarray,
                         observable: int, base_flip: bool,
                         graphs: dict) -> bool:
    """Re-decode with the open temporal boundary closed.

    ``graphs`` are the window's graphs built without open-boundary
    edges.  Error strings may no longer terminate at the cut; a
    differing answer, or an infeasible matching (defects stranded
    without their boundary), heralds a likely windowing failure.
    """
    try:
        res = run_ghost_protocol(window.decomposed, syndrome,
                                 graphs=graphs, collect_trace=False)
    except MatchingError:
        return True
    return bool(res.logical_flips[observable]) != bool(base_flip)


@dataclass(frozen=True)
class PatiencePlan:
    base: TproxyPlan
    delay_rounds: int
    extended: tuple[Window, ...] | None  # None when delay is 0
    closed_graphs: tuple[dict, ...]      # per gate
    regions: tuple[frozenset, ...]       # per gate


def plan_patience(decomposed: DecomposedDEM, config: WindowConfig, d: int, *,
                  region_radius: int | None = None) -> PatiencePlan:
    """Precompute every window variant patience can need.

    Fails, before building anything, when the circuit lacks the
    syndrome rounds a delayed decision would consume (the extended
    horizon must stay within the surviving patch's recorded rounds).
    """
    dem = decomposed.dem
    delay = patience_delay(d, config.n_buf)
    last = patch_last_round(dem)
    for gate in tproxy_gates(dem, config):
        if gate.decision_round + delay > last[gate.patch]:
            raise WindowError(
                f"patience at distance {d} needs {delay} delay rounds "
                f"beyond round {gate.decision_round}, but "
                f"patch {gate.patch} stops earlier")
    base = plan_tproxy_windows(decomposed, config)
    radius = config.n_buf + 2 if region_radius is None else region_radius
    extended = None
    if delay:
        cache: dict = {}
        extended = tuple(build_window(decomposed, None,
                                      gate.decision_round + delay, cache)
                         for gate in base.gates)
    closed = tuple(build_protocol_graphs(w.decomposed,
                                         exclude_open_boundary=True)
                   for w in base.windows)
    regions = tuple(weight_growth_region(dem, gate, radius)
                    for gate in base.gates)
    return PatiencePlan(base, delay, extended, closed, regions)


@dataclass
class PatientShot:
    decisions: np.ndarray        # final per-observable answers
    base_decisions: np.ndarray   # what the undelayed pipeline said
    heralds: tuple[HeraldResult, ...]


def patient_decode(decomposed: DecomposedDEM, syndrome: np.ndarray,
                   config: WindowConfig, d: int, *,
                   plan: PatiencePlan | None = None) -> PatientShot:
    """Windowed decode where heralded gates get one delayed retry.

    Gates are decoded in time order at the base allowance with a full
    trace; when either herald fires and the distance grants a delay,
    the gate re-windows at the extended allowance and decodes once
    more from the same carried state.  The retry's commits then carry
    forward instead of the original's.  A given ``plan`` fixes the
    windows, delay and regions, so a ``config`` or ``d`` the plan was
    not made for is an error.
    """
    if plan is None:
        plan = plan_patience(decomposed, config, d)
    elif (config != plan.base.config
          or patience_delay(d, config.n_buf) != plan.delay_rounds):
        raise PatienceError("config and d are fixed by the given plan")
    heralds = []

    def decode_gate(g, refined):
        gate, window = plan.base.gates[g], plan.base.windows[g]
        res = run_ghost_protocol(window.decomposed, refined,
                                 graphs=window.graphs, collect_trace=True)
        j = gate.observable
        base_flip = bool(res.logical_flips[j])
        growth = herald_weight_growth(res.trace, plan.regions[g], gate.patch)
        comp = herald_complementary(window, refined, j, base_flip,
                                    plan.closed_graphs[g])
        heralded = growth or comp
        changed = False
        if heralded and plan.delay_rounds:
            res = run_ghost_protocol(plan.extended[g].decomposed, refined,
                                     graphs=plan.extended[g].graphs,
                                     collect_trace=False)
            changed = bool(res.logical_flips[j]) != base_flip
        heralds.append(HeraldResult(
            growth, comp, plan.delay_rounds if heralded else 0, changed))
        return res

    decisions, _ = carry_gates(decomposed.dem, syndrome, plan.base.gates,
                               decode_gate)
    base_decisions = decisions.copy()
    for gate, herald in zip(plan.base.gates, heralds):
        base_decisions[gate.observable] ^= herald.changed
    return PatientShot(decisions, base_decisions, tuple(heralds))

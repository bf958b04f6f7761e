"""Heralded buffer extension for windowed gate decisions.

A decision made a single round after a transversal CNOT can be fooled
by error patterns roughly half as heavy as the code normally corrects.
Two cheap checks on the just-finished decode herald such shots: the
correction weight near the severance growing across protocol passes,
and a complementary decode with the open temporal boundary closed
arriving at a different answer.  A heralded gate delays its decision,
re-windows with more syndrome rounds, and decodes once more.

Patience is a retry policy on the windowed carry loop,
:func:`ghostdec.windows.carry_windows`: it changes how one gate is
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
# build_protocol_graphs is not called here (windows.build_window builds
# patience's windows, so rebinding it here times nothing); it stays only
# for tools that look up ``patience.build_protocol_graphs`` to rebind it
from .ghost import (PassRecord, build_protocol_graphs,  # noqa: F401
                    run_ghost_protocol)
from .matching import MatchingError
from .windows import (TproxyGate, TproxyPlan, Window, WindowConfig,
                      WindowError, build_window, carry_windows,
                      check_cut_from, gate_decisions, patch_last_round,
                      plan_tproxy_windows, tproxy_gates)


class PatienceError(CircuitError):
    pass


def patience_delay(d: int, n_buf: int) -> int:
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


def weight_growth_region(dem: DetectorErrorModel, gate: TproxyGate,
                         radius: int) -> frozenset[int]:
    """Surviving-patch detectors within ``radius`` rounds of the cut."""
    return frozenset(
        d for d in range(dem.detector_count)
        if dem.detector_patch[d] == gate.patch
        and abs(dem.detector_time[d] - gate.decision_round) <= radius)


def herald_weight_growth(trace: list[PassRecord], region: frozenset[int],
                         patch: int) -> bool:
    """True when the regional correction weight strictly grows.

    Compares the first and final pass records of ``patch``, counting
    only correction edges touching a detector in ``region``; no pass
    shows the matcher a ghost singleton, so both decode the same graphs
    and differ only by the commits between them.  A ghost flip committed
    by mistake shows up as a long correction string near the severance
    that was absent on the first pass.
    """
    if not trace:
        raise PatienceError("weight-growth herald needs a protocol trace")
    if (patch, "X") not in trace[0].corrections:
        raise PatienceError(f"trace holds no passes for patch {patch}")

    def weight(record: PassRecord) -> float:
        return sum(g.edges[i].weight
                   for g, corr in (record.corrections[patch, "X"],
                                   record.corrections[patch, "Z"])
                   for i in corr.edges
                   if not region.isdisjoint(g.edge_detectors(i)))

    return weight(trace[-1]) > weight(trace[0]) + 1e-9


def herald_complementary(window: Window, syndrome: np.ndarray,
                         observable: int, base_flip: bool) -> bool:
    """Re-decode with the open temporal boundary closed.

    Each window graph is decoded as its ``closed`` view, itself where
    the cut opens nothing, so the base run's memo answers there.  Error
    strings may no longer end at the cut; a differing answer heralds a
    likely windowing failure.  Closing the cut keeps every spatial
    boundary edge, so on the builders' models each detector still
    reaches the boundary and the matching is always feasible; the
    ``MatchingError`` branch only guards a model where a defect is
    stranded, and heralds it too.
    """
    closed = {key: g.closed for key, g in window.graphs.items()}
    try:
        res = run_ghost_protocol(window.decomposed, syndrome, graphs=closed)
    except MatchingError:
        return True
    return bool(res.logical_flips[observable]) != bool(base_flip)


@dataclass(frozen=True)
class PatiencePlan:
    base: TproxyPlan
    delay_rounds: int
    extended: tuple[Window, ...] | None  # None when delay is 0
    regions: tuple[frozenset, ...]       # per gate


def plan_patience(decomposed: DecomposedDEM, config: WindowConfig,
                  d: int) -> PatiencePlan:
    """Precompute the windows and regions patience can need.

    Fails, before building anything, when the circuit lacks the
    syndrome rounds a delayed decision would consume (the extended
    horizon must stay within the surviving patch's recorded rounds).
    The weight-growth regions reach ``config.n_buf + 2`` rounds either
    side of each decision round; closed graphs are built on first use.
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
    radius = config.n_buf + 2
    extended = None
    if delay:
        extended = tuple(build_window(decomposed, window.lo,
                                      gate.decision_round + delay)
                         for gate, window in zip(base.gates, base.windows))
    regions = tuple(weight_growth_region(dem, gate, radius)
                    for gate in base.gates)
    return PatiencePlan(base, delay, extended, regions)


@dataclass
class PatientShot:
    decisions: np.ndarray        # final per-observable answers
    # each gate's answer before its own retry, decoded on the state
    # carried from the earlier gates' final answers
    base_decisions: np.ndarray
    heralds: tuple[HeraldResult, ...]


def patient_decode(decomposed: DecomposedDEM, syndrome: np.ndarray,
                   config: WindowConfig, d: int, *,
                   plan: PatiencePlan) -> PatientShot:
    """Windowed decode where heralded gates get one delayed retry.

    Gates are decoded in time order at their decision rounds with pass
    records; when either herald fires and the distance grants a
    delay, the gate re-windows at the delayed horizon and decodes once
    more from the same carried state.  The retry's commits then carry
    forward instead of the original's.  The ``plan`` fixes the windows,
    delay and regions, so a ``config``, ``d`` or model the plan was not
    made for is an error.
    """
    if (config != plan.base.config
            or patience_delay(d, config.n_buf) != plan.delay_rounds):
        raise PatienceError("config and d are fixed by the given plan")
    check_cut_from(plan.base.windows, decomposed.dem, PatienceError)
    heralds = []

    def decode_gate(g, window, refined):
        gate = plan.base.gates[g]
        res = run_ghost_protocol(window.decomposed, refined,
                                 graphs=window.graphs, collect_trace=True)
        j = gate.observable
        base_flip = bool(res.logical_flips[j])
        growth = herald_weight_growth(res.trace, plan.regions[g], gate.patch)
        comp = herald_complementary(window, refined, j, base_flip)
        heralded = growth or comp
        changed = False
        if heralded and plan.delay_rounds:
            res = run_ghost_protocol(plan.extended[g].decomposed, refined,
                                     graphs=plan.extended[g].graphs)
            changed = bool(res.logical_flips[j]) != base_flip
        heralds.append(HeraldResult(
            growth, comp, plan.delay_rounds if heralded else 0, changed))
        return res

    decisions = gate_decisions(plan.base.gates, carry_windows(
        decomposed.dem, syndrome, plan.base.windows, decode_gate))
    base_decisions = decisions.copy()
    for gate, herald in zip(plan.base.gates, heralds):
        base_decisions[gate.observable] ^= herald.changed
    return PatientShot(decisions, base_decisions, tuple(heralds))

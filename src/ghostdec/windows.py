"""Temporal windowing of decoding problems.

A real-time decoder must answer before the full syndrome exists.  For
the teleportation proxy each gate's answer is due a fixed number of
rounds after its transversal CNOT, so the decoding problem is cut at a
horizon: detectors beyond it are invisible and mechanisms straddling
the cut become edges to an open temporal boundary on the surviving
patch, while the measured patch terminates normally at its readout.
Gates are decided in time order by one carry loop, :func:`carry_gates`:
each window's ghost commits refine the syndrome and logical frame the
next window sees.  Real-time decoding runs that loop with one ghost
protocol per gate; patience (:mod:`ghostdec.patience`) runs it with a
heralded retry per gate.  For plain memory a sliding commit/buffer
window plays the same role: each window is decoded through the ghost
protocol on the same graph set, and only its commit region is kept.

All windowed problems keep the global detector indexing, so syndromes
and refinement toggles stay valid across windows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuits import CircuitError
from .decompose import Component, DecomposedDEM, GhostPair
from .dem import DetectorErrorModel
from .ghost import (DEFAULT_SCHEDULE, PassSchedule, build_protocol_graphs,
                    run_ghost_protocol)
from .stats import likelihood_interval


class WindowError(CircuitError):
    """Window configuration inconsistent with the available syndrome."""


@dataclass(frozen=True)
class WindowConfig:
    """Timing of real-time gate decisions.

    ``n_buf`` is the number of extraction rounds between a transversal
    CNOT and the dependent logical measurement, and so the rounds a
    gate's window sees past its CNOT.  The sliding memory decoder takes
    its own commit and buffer sizes.
    """

    n_buf: int = 1

    def __post_init__(self):
        if self.n_buf < 1:
            raise WindowError("n_buf must be at least 1")


@dataclass(frozen=True)
class SeveranceSpec:
    """Where one gate's decision cuts the decoding problem."""

    patch: int                 # surviving patch beyond the cut
    severance_round: int       # decision time: cnot_round + n_buf
    cnot_round: int

    def __post_init__(self):
        if self.severance_round <= self.cnot_round:
            raise WindowError("severance must fall after the transversal CNOT")


def _slice_components(decomposed: DecomposedDEM, lo: int | None,
                      hi: int) -> DecomposedDEM:
    """Restrict components to detector times in [lo, hi].

    Components losing detectors above the cut keep their probability
    and become open-boundary edges that remember the hidden detectors;
    components with any detector below ``lo`` are dropped outright
    (an earlier window already committed or forfeited them).  A ghost
    pair survives only while its singleton is visible and its witness
    at least partially so; a broken pair's remnants turn into normal
    edges, open-boundary when the lost part lies above the cut.
    """
    time = decomposed.dem.detector_time
    staged: list[tuple[Component, tuple[int, ...], tuple[int, ...]] | None] = []
    for c in decomposed.components:
        if lo is not None and any(time[d] < lo for d in c.detectors):
            staged.append(None)
            continue
        keep = tuple(d for d in c.detectors if time[d] <= hi)
        hidden = tuple(d for d in c.detectors if time[d] > hi)
        staged.append((c, keep, hidden) if keep else None)

    gs_open: dict[int, bool] = {}
    pair_alive: dict[int, bool] = {}
    for pr in decomposed.pairs:
        alive = staged[pr.g_s] is not None and staged[pr.g_e] is not None
        pair_alive[pr.pair_id] = alive
        if not alive and staged[pr.g_s] is not None:
            ge = decomposed.components[pr.g_e]
            gs_open[pr.g_s] = all(time[d] > hi for d in ge.detectors)

    remap: dict[int, int] = {}
    for c in decomposed.components:
        if staged[c.index] is not None:
            remap[c.index] = len(remap)
    pair_remap: dict[int, int] = {}
    pairs: list[GhostPair] = []
    for pr in decomposed.pairs:
        if pair_alive[pr.pair_id]:
            pair_remap[pr.pair_id] = len(pairs)
            pairs.append(GhostPair(len(pairs), pr.mech_id, pr.probability,
                                   remap[pr.g_e], remap[pr.g_s]))

    comps: list[Component] = []
    for entry in staged:
        if entry is None:
            continue
        c, keep, hidden = entry
        role, pid = c.role, c.pair_id
        open_b = c.open_boundary or bool(hidden)
        if pid is not None and pid not in pair_remap:
            if role == "ghost_s":
                open_b = open_b or gs_open.get(c.index, False)
            role, pid = "normal", None
        elif pid is not None:
            pid = pair_remap[pid]
        partner = remap.get(c.partner) if c.partner is not None else None
        comps.append(replace(
            c, index=len(comps), detectors=keep, role=role, pair_id=pid,
            partner=partner, open_boundary=open_b,
            cut_partners=tuple(sorted(set(c.cut_partners) | set(hidden)))))
    return DecomposedDEM(decomposed.dem, tuple(comps), tuple(pairs),
                         decomposed.invisible)


def window_components(decomposed: DecomposedDEM, horizon: int) -> DecomposedDEM:
    """Truncate a decomposed model at a horizon (no lower cut)."""
    return _slice_components(decomposed, None, horizon)


@dataclass(frozen=True)
class WindowedProblem:
    severance: SeveranceSpec
    horizon: int               # last visible extraction round
    decomposed: DecomposedDEM  # truncated, global detector indexing
    graphs: dict               # protocol graphs of the truncated model


def _patch_max_time(dem: DetectorErrorModel, patch: int) -> int:
    times = [dem.detector_time[d] for d in range(dem.detector_count)
             if dem.detector_patch[d] == patch]
    if not times:
        raise WindowError(f"patch {patch} has no detectors")
    return max(times)


def window_dem(decomposed: DecomposedDEM, severance: SeveranceSpec,
               config: WindowConfig, allowance: int | None = None,
               _cache: dict | None = None) -> WindowedProblem:
    """Build the windowed matching inputs for one severance.

    The horizon sits ``allowance`` (default: the configured n_buf)
    rounds past the CNOT.  Raising the allowance beyond the surviving
    patch's remaining syndrome is an error unless the horizon swallows
    the whole circuit, which degenerates to the global problem.
    """
    if allowance is None:
        allowance = config.n_buf
    if allowance < config.n_buf:
        raise WindowError("allowance below n_buf would hide the decision readout")
    dem = decomposed.dem
    horizon = severance.cnot_round + allowance
    survivor_max = _patch_max_time(dem, severance.patch)
    global_max = max(dem.detector_time, default=0)
    if survivor_max < horizon < global_max:
        raise WindowError(
            f"allowance {allowance} runs past the syndrome available on "
            f"patch {severance.patch} (last round {survivor_max})")
    if _cache is not None and horizon in _cache:
        windowed, graphs = _cache[horizon]
    else:
        windowed = window_components(decomposed, horizon)
        graphs = build_protocol_graphs(windowed)
        if _cache is not None:
            _cache[horizon] = (windowed, graphs)
    return WindowedProblem(severance, horizon, windowed, graphs)


# -- teleportation-proxy gate windows -----------------------------------------


@dataclass(frozen=True)
class TproxyGate:
    index: int
    observable: int
    severance: SeveranceSpec


def tproxy_gates(dem: DetectorErrorModel,
                 config: WindowConfig) -> tuple[TproxyGate, ...]:
    """Recover per-gate decision metadata from the detector maps.

    Each observable's home patch is a measured carrier whose last
    detector time is the decision round; the one patch never measured
    mid-circuit survives the final gate.
    """
    patch_max: dict[int, int] = {}
    for d in range(dem.detector_count):
        p = dem.detector_patch[d]
        t = dem.detector_time[d]
        patch_max[p] = max(patch_max.get(p, t), t)
    carriers = []
    for j in range(dem.observable_count):
        p = dem.observable_patch[j]
        if p is None:
            raise WindowError(f"observable {j} has no home patch")
        carriers.append((patch_max[p], j, p))
    carriers.sort()
    rest = sorted(set(patch_max) - {p for _, _, p in carriers})
    if len(rest) != 1:
        raise WindowError(f"expected one surviving patch, found {rest}")
    gates = []
    for g, (sev, j, p) in enumerate(carriers):
        survivor = carriers[g + 1][2] if g + 1 < len(carriers) else rest[0]
        cnot = sev - config.n_buf
        if cnot < 1:
            raise WindowError("n_buf reaches back past the first round")
        gates.append(TproxyGate(g, j, SeveranceSpec(survivor, sev, cnot)))
    return tuple(gates)


@dataclass(frozen=True)
class TproxyPlan:
    config: WindowConfig
    gates: tuple[TproxyGate, ...]
    windows: tuple[WindowedProblem, ...]


def plan_tproxy_windows(decomposed: DecomposedDEM, config: WindowConfig,
                        allowance: int | None = None) -> TproxyPlan:
    """One window per gate, cached by horizon so degenerate plans share."""
    gates = tproxy_gates(decomposed.dem, config)
    cache: dict = {}
    windows = tuple(window_dem(decomposed, gate.severance, config,
                               allowance, _cache=cache)
                    for gate in gates)
    return TproxyPlan(config, gates, windows)


@dataclass
class TproxyDecodeResult:
    decisions: np.ndarray      # bool per observable
    gate_results: list         # GhostResult per gate, in decision order
    plan: TproxyPlan


def carry_gates(dem: DetectorErrorModel, syndrome: np.ndarray,
                gates: tuple[TproxyGate, ...], decode_gate,
                ) -> tuple[np.ndarray, list]:
    """Decide gates in time order, carrying each window's commits forward.

    ``decode_gate(g, refined)`` decodes gate ``g`` against the carried
    syndrome and returns the :class:`GhostResult` whose commits persist:
    singleton flips enter the carried syndrome and observable flips the
    carried frame, so later windows decode the refined problem.  A
    gate's decision is the carried frame at its observable XOR that
    result's answer.  Returns the decisions and the per-gate results.
    """
    refined = np.array(syndrome, dtype=bool, copy=True)
    if refined.shape != (dem.detector_count,):
        raise WindowError("syndrome length does not match detector count")
    frame = np.zeros(dem.observable_count, dtype=bool)
    decisions = np.zeros(dem.observable_count, dtype=bool)
    results = []
    for g, gate in enumerate(gates):
        res = decode_gate(g, refined)
        j = gate.observable
        decisions[j] = frame[j] ^ res.logical_flips[j]
        refined ^= res.refinement_delta
        frame ^= res.frame_delta
        results.append(res)
    return decisions, results


def decode_tproxy_windowed(decomposed: DecomposedDEM, syndrome: np.ndarray,
                           config: WindowConfig, *,
                           plan: TproxyPlan | None = None,
                           allowance: int | None = None,
                           schedule: PassSchedule = DEFAULT_SCHEDULE,
                           collect_trace: bool = False) -> TproxyDecodeResult:
    """Per-gate decisions, each using only pre-horizon data.

    Each gate runs the ghost protocol once on its window inside
    :func:`carry_gates`.  A given ``plan`` fixes the windows, so an
    ``allowance`` or a ``config`` other than the plan's is an error.
    """
    if plan is None:
        plan = plan_tproxy_windows(decomposed, config, allowance)
    elif allowance is not None or config != plan.config:
        raise WindowError("allowance and config are fixed by the given plan")

    def decode_gate(g, refined):
        window = plan.windows[g]
        return run_ghost_protocol(window.decomposed, refined, schedule,
                                  graphs=window.graphs,
                                  collect_trace=collect_trace)

    decisions, results = carry_gates(decomposed.dem, syndrome, plan.gates,
                                     decode_gate)
    return TproxyDecodeResult(decisions, results, plan)


def decode_tproxy_global(decomposed: DecomposedDEM, syndrome: np.ndarray, *,
                         graphs: dict | None = None,
                         schedule: PassSchedule = DEFAULT_SCHEDULE,
                         ) -> np.ndarray:
    """Hindsight decode: the whole problem at once, all gates together."""
    res = run_ghost_protocol(decomposed, syndrome, schedule, graphs=graphs,
                             collect_trace=False)
    return res.logical_flips.copy()


@dataclass(frozen=True)
class TwError:
    """How often real-time answers deviate from hindsight answers."""

    shots: int
    disagreements: int
    rate: float
    interval: tuple[float, float]


def compute_tw_error(windowed_decisions, global_decisions,
                     factor: float = 1000.0) -> TwError:
    """Rate of shots whose windowed and global decisions differ anywhere."""
    a = np.asarray(windowed_decisions, dtype=bool)
    b = np.asarray(global_decisions, dtype=bool)
    if a.ndim != 2 or a.shape != b.shape:
        raise WindowError("decision arrays must share a (shots, gates) shape")
    if not a.shape[0]:
        raise WindowError("no shots to compare")
    bad = int(np.any(a != b, axis=1).sum())
    return TwError(a.shape[0], bad, bad / a.shape[0],
                   likelihood_interval(bad, a.shape[0], factor))


# -- sliding-window memory decoding -------------------------------------------


@dataclass(frozen=True)
class MemoryWindow:
    start: int         # first visible round
    commit_end: int    # first buffer round; everything commits when final
    end: int           # first invisible round
    final: bool
    decomposed: DecomposedDEM
    graphs: dict       # protocol graphs of the sliced model


def plan_memory_windows(decomposed: DecomposedDEM, commit_rounds: int,
                        buffer_rounds: int) -> tuple[MemoryWindow, ...]:
    """Sliding commit/buffer windows covering a memory problem.

    The sliding loop carries no ghost commits between windows, so a
    model with ghost pairs is rejected.
    """
    if commit_rounds < 1:
        raise WindowError("commit region needs at least one round")
    if buffer_rounds < 0:
        raise WindowError("buffer region cannot be negative")
    if decomposed.pairs:
        raise WindowError("sliding windows cannot carry ghost commits")
    time = decomposed.dem.detector_time
    if not time:
        raise WindowError("model has no detectors")
    s, t_end = min(time), max(time)
    windows = []
    while True:
        final = s + commit_rounds + buffer_rounds > t_end
        end = t_end + 1 if final else s + commit_rounds + buffer_rounds
        sliced = _slice_components(decomposed, s, end - 1)
        windows.append(MemoryWindow(s, end if final else s + commit_rounds,
                                    end, final, sliced,
                                    build_protocol_graphs(sliced)))
        if final:
            return tuple(windows)
        s += commit_rounds


def decode_memory_sliding(decomposed: DecomposedDEM, syndrome: np.ndarray,
                          commit_rounds: int, buffer_rounds: int, *,
                          windows: tuple[MemoryWindow, ...] | None = None,
                          ) -> np.ndarray:
    """Sliding-window decode of a memory problem.

    Each window is decoded in full by the ghost protocol, but only
    correction edges reaching into the commit region are kept.  An edge
    crossing past the commit boundary is committed together with
    artificial defects at its far detectors, so the next window sees a
    consistent residual.  The final window commits everything.
    """
    dem = decomposed.dem
    carried = np.array(syndrome, dtype=bool, copy=True)
    if carried.shape != (dem.detector_count,):
        raise WindowError("syndrome length does not match detector count")
    if windows is None:
        windows = plan_memory_windows(decomposed, commit_rounds, buffer_rounds)
    time = dem.detector_time
    flips = np.zeros(dem.observable_count, dtype=bool)
    for w in windows:
        res = run_ghost_protocol(w.decomposed, carried, graphs=w.graphs,
                                 collect_trace=False)
        for (patch, cls), corr in res.corrections.items():
            g = w.graphs[patch, cls, False]
            for ei, n in sorted(Counter(corr.edges).items()):
                if n % 2 == 0:
                    continue
                e = g.edges[ei]
                dets = [g.detectors[e.u]]
                if e.v < g.boundary:
                    dets.append(g.detectors[e.v])
                if all(time[d] >= w.commit_end for d in dets):
                    continue           # buffer only: re-decoded later
                for j in e.observables:
                    flips[j] ^= True
                for d in dets + list(e.cut_partners):
                    carried[d] ^= True
    return flips


# -- failure-weight search regions --------------------------------------------


def severance_region(dem: DetectorErrorModel, severance: SeveranceSpec,
                     radius: int) -> tuple[int, ...]:
    """Mechanism ids whose every detector lies near the severance."""
    lo = severance.severance_round - radius
    hi = severance.severance_round + radius
    out = []
    for e, m in enumerate(dem.mechanisms):
        if m.detectors and all(lo <= dem.detector_time[d] <= hi
                               for d in m.detectors):
            out.append(e)
    return tuple(out)

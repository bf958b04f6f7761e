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
protocol, and only its commit region is kept.

Every such cut is one :class:`Window`: the model sliced to detector
times [lo, hi] plus its protocol graphs, built by :func:`build_window`
alone.  Windows keep the global detector indexing, so syndromes and
refinement toggles stay valid across windows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuits import CircuitError
from .decompose import Component, DecomposedDEM, GhostPair
from .dem import DetectorErrorModel
from .ghost import build_protocol_graphs, run_ghost_protocol
from .stats import likelihood_interval


class WindowError(CircuitError):
    """Window configuration inconsistent with the available syndrome."""


@dataclass(frozen=True)
class WindowConfig:
    """Timing of real-time gate decisions.

    ``n_buf`` is the number of extraction rounds between a transversal
    CNOT and the dependent logical measurement, and so the rounds a
    gate's window sees past its CNOT.  Sliding memory plans take their
    own commit and buffer sizes.
    """

    n_buf: int = 1

    def __post_init__(self):
        if self.n_buf < 1:
            raise WindowError("n_buf must be at least 1")


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


@dataclass(frozen=True)
class Window:
    """The model sliced to detector times [lo, hi], with its graphs.

    ``lo`` is None when nothing below the cut is dropped.
    """

    lo: int | None
    hi: int
    decomposed: DecomposedDEM  # sliced, global detector indexing
    graphs: dict               # protocol graphs of the sliced model


def build_window(decomposed: DecomposedDEM, lo: int | None, hi: int,
                 cache: dict) -> Window:
    """Slice and build graphs once per (lo, hi) cut held in ``cache``."""
    if (lo, hi) not in cache:
        sliced = _slice_components(decomposed, lo, hi)
        cache[lo, hi] = Window(lo, hi, sliced, build_protocol_graphs(sliced))
    return cache[lo, hi]


def patch_last_round(dem: DetectorErrorModel) -> dict[int, int]:
    """Last detector time of every patch that has detectors."""
    last: dict[int, int] = {}
    for p, t in zip(dem.detector_patch, dem.detector_time):
        last[p] = max(last.get(p, t), t)
    return last


# -- teleportation-proxy gate windows -----------------------------------------


@dataclass(frozen=True)
class TproxyGate:
    observable: int
    patch: int                 # surviving patch beyond the cut
    decision_round: int        # the carrier's last round: CNOT + n_buf


def tproxy_gates(dem: DetectorErrorModel,
                 config: WindowConfig) -> tuple[TproxyGate, ...]:
    """Recover per-gate decision metadata from the detector maps.

    Each observable's home patch is a measured carrier whose last
    detector time is the decision round; the one patch never measured
    mid-circuit survives the final gate.
    """
    last = patch_last_round(dem)
    carriers = []
    for j in range(dem.observable_count):
        p = dem.observable_patch[j]
        if p is None:
            raise WindowError(f"observable {j} has no home patch")
        carriers.append((last[p], j, p))
    carriers.sort()
    rest = sorted(set(last) - {p for _, _, p in carriers})
    if len(rest) != 1:
        raise WindowError(f"expected one surviving patch, found {rest}")
    gates = []
    for g, (sev, j, p) in enumerate(carriers):
        survivor = carriers[g + 1][2] if g + 1 < len(carriers) else rest[0]
        if sev - config.n_buf < 1:
            raise WindowError("n_buf reaches back past the first round")
        gates.append(TproxyGate(j, survivor, sev))
    return tuple(gates)


@dataclass(frozen=True)
class TproxyPlan:
    config: WindowConfig
    gates: tuple[TproxyGate, ...]
    windows: tuple[Window, ...]


def plan_tproxy_windows(decomposed: DecomposedDEM, config: WindowConfig,
                        allowance: int | None = None) -> TproxyPlan:
    """One window per gate, cut ``allowance`` rounds past its CNOT.

    The allowance defaults to the configured n_buf.  A horizon beyond
    the surviving patch's last round is an error unless it swallows the
    whole circuit, which degenerates to the global problem.  Windows
    are shared between gates with the same horizon.
    """
    if allowance is None:
        allowance = config.n_buf
    if allowance < config.n_buf:
        raise WindowError("allowance below n_buf would hide the decision readout")
    dem = decomposed.dem
    gates = tproxy_gates(dem, config)
    last = patch_last_round(dem)
    global_max = max(dem.detector_time, default=0)
    cache: dict = {}
    windows = []
    for gate in gates:
        horizon = gate.decision_round - config.n_buf + allowance
        if last[gate.patch] < horizon < global_max:
            raise WindowError(
                f"allowance {allowance} runs past the syndrome available on "
                f"patch {gate.patch} (last round {last[gate.patch]})")
        windows.append(build_window(decomposed, None, horizon, cache))
    return TproxyPlan(config, gates, tuple(windows))


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
                           ) -> TproxyDecodeResult:
    """Per-gate decisions, each using only pre-horizon data.

    Each gate runs the ghost protocol once on its window inside
    :func:`carry_gates`.  A given ``plan`` fixes the windows, so a
    ``config`` other than the plan's is an error.
    """
    if plan is None:
        plan = plan_tproxy_windows(decomposed, config)
    elif config != plan.config:
        raise WindowError("config is fixed by the given plan")

    def decode_gate(g, refined):
        window = plan.windows[g]
        return run_ghost_protocol(window.decomposed, refined,
                                  graphs=window.graphs, collect_trace=False)

    decisions, results = carry_gates(decomposed.dem, syndrome, plan.gates,
                                     decode_gate)
    return TproxyDecodeResult(decisions, results, plan)


def decode_tproxy_global(decomposed: DecomposedDEM, syndrome: np.ndarray, *,
                         graphs: dict | None = None) -> np.ndarray:
    """Hindsight decode: the whole problem at once, all gates together."""
    res = run_ghost_protocol(decomposed, syndrome, graphs=graphs,
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
class MemoryPlan:
    commit_rounds: int         # every window but the last commits this many
    windows: tuple[Window, ...]


def plan_memory_windows(decomposed: DecomposedDEM, commit_rounds: int,
                        buffer_rounds: int) -> MemoryPlan:
    """Sliding commit/buffer windows covering a memory problem.

    Windows start ``commit_rounds`` apart and span at most
    ``commit_rounds + buffer_rounds`` rounds; the last one reaches the
    last round.  The sliding loop carries no ghost commits between
    windows, so a model with ghost pairs is rejected.
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
    lo, t_end = min(time), max(time)
    cache: dict = {}
    windows = []
    while True:
        hi = min(lo + commit_rounds + buffer_rounds - 1, t_end)
        windows.append(build_window(decomposed, lo, hi, cache))
        if hi == t_end:
            return MemoryPlan(commit_rounds, tuple(windows))
        lo += commit_rounds


def decode_memory_sliding(decomposed: DecomposedDEM, syndrome: np.ndarray,
                          plan: MemoryPlan) -> np.ndarray:
    """Sliding-window decode of a memory problem.

    Each window is decoded in full by the ghost protocol, but only
    correction edges reaching into the commit region are kept.  An edge
    crossing past the commit boundary is committed together with
    artificial defects at its far detectors, so the next window sees a
    consistent residual.  The last window commits everything.
    """
    dem = decomposed.dem
    carried = np.array(syndrome, dtype=bool, copy=True)
    if carried.shape != (dem.detector_count,):
        raise WindowError("syndrome length does not match detector count")
    time = dem.detector_time
    flips = np.zeros(dem.observable_count, dtype=bool)
    for w in plan.windows:
        commit_end = (w.hi + 1 if w is plan.windows[-1]
                      else w.lo + plan.commit_rounds)
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
                if all(time[d] >= commit_end for d in dets):
                    continue           # buffer only: re-decoded later
                for j in e.observables:
                    flips[j] ^= True
                for d in dets + list(e.cut_partners):
                    carried[d] ^= True
    return flips


# -- failure-weight search regions --------------------------------------------


def severance_region(dem: DetectorErrorModel, gate: TproxyGate,
                     radius: int) -> tuple[int, ...]:
    """Mechanism ids whose every detector lies near the gate's decision."""
    lo = gate.decision_round - radius
    hi = gate.decision_round + radius
    out = []
    for e, m in enumerate(dem.mechanisms):
        if m.detectors and all(lo <= dem.detector_time[d] <= hi
                               for d in m.detectors):
            out.append(e)
    return tuple(out)

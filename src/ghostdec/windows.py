"""Temporal windowing of decoding problems.

A real-time decoder must answer before the full syndrome exists.  For
the teleportation proxy each gate's answer is due a fixed number of
rounds after its transversal CNOT, so the decoding problem is cut at a
horizon: detectors beyond it are invisible and mechanisms straddling
the cut become edges to an open temporal boundary on the surviving
patch, while the measured patch terminates normally at its readout.
Every windowed decode runs one carry loop, :func:`carry_windows`: each
window's ghost commits, and its correction edges reaching below the
next window's start, committed by the barrier's own rule
(:func:`~ghostdec.ghost.commit_edge`), refine the syndrome and frame
the next one sees.  Real-time gate windows and patience's
(:mod:`ghostdec.patience`, a heralded retry per gate) all start at the
first round, so only ghost commits carry; sliding windows over any
model start a commit region apart, so each commits its commit region.

Every such cut is one :class:`Window`: the model sliced to detector
times [lo, hi] plus its protocol graphs, built by :func:`build_window`
alone.  Windows keep the global detector indexing, so syndromes and
refinement toggles stay valid across windows, and the model's component
indices.  A patch-class the cut leaves alone is decoded on the model's
own graph, with its routes and decode memo, so a problem solved in one
window is a memo hit in the next and in the global decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .circuits import CircuitError
from .decompose import Component, DecomposedDEM
from .dem import DetectorErrorModel
from .ghost import build_protocol_graphs, commit_edge, run_ghost_protocol
from .stats import likelihood_interval


class WindowError(CircuitError):
    """Window configuration inconsistent with the available syndrome."""


@dataclass(frozen=True)
class WindowConfig:
    """Timing of real-time gate decisions.

    ``n_buf`` is the number of extraction rounds between a transversal
    CNOT and the dependent logical measurement, and so the rounds a
    gate's window sees past its CNOT.  Sliding plans take their own
    commit and buffer sizes.
    """

    n_buf: int = 1

    def __post_init__(self):
        if self.n_buf < 1:
            raise WindowError("n_buf must be at least 1")


def _slice_components(decomposed: DecomposedDEM, lo: int,
                      hi: int) -> DecomposedDEM:
    """Restrict components to detector times in [lo, hi].

    Components losing detectors above the cut keep their probability
    and become open-boundary edges that remember the hidden detectors;
    components with any detector below ``lo`` are dropped outright
    (an earlier window already committed or forfeited them).  A ghost
    pair survives only while its singleton is visible and its witness
    at least partially so; a broken pair's remnants turn into normal
    edges, and a broken singleton is open-boundary when its witness lies
    wholly above the cut.  Kept components keep their indices and
    mechanism ids, so a surviving pair keeps its id; a component the cut
    leaves as it is stays the model's own object.  A patch-class that
    loses or rewrites none of its components is left out of the slice's
    ``changed`` keys, so its graph is the model's own (see
    :func:`~ghostdec.ghost.build_protocol_graphs`).
    """
    time = decomposed.dem.detector_time
    kept = {c.index for c in decomposed.components
            if lo <= min(map(time.__getitem__, c.detectors)) <= hi}
    out: list[Component] = []
    changed: set[tuple[int, str]] = set()
    for c in decomposed.components:
        if c.index not in kept:
            changed.add((c.patch, c.cls))
            continue
        dets, cut, open_b, role = (c.detectors, c.cut_partners,
                                   c.open_boundary, c.role)
        if max(map(time.__getitem__, dets)) > hi:
            hidden = {d for d in dets if time[d] > hi}
            dets = tuple(d for d in dets if d not in hidden)
            cut, open_b = tuple(sorted(hidden.union(cut))), True
        if role != "normal":
            witness, single = decomposed.pairs[c.mech_id]
            if not {witness.index, single.index} <= kept:
                role = "normal"
                if c.role == "ghost_s":
                    open_b = open_b or all(time[d] > hi
                                           for d in witness.detectors)
        partner = c.partner if c.partner in kept else None
        if (dets, role, partner, open_b) != (c.detectors, c.role,
                                             c.partner, c.open_boundary):
            changed.add((c.patch, c.cls))
            c = Component(c.index, c.mech_id, c.patch, c.cls, dets,
                          c.observables, c.probability, role, partner,
                          open_b, cut)
        out.append(c)
    return DecomposedDEM(decomposed.dem, tuple(out), decomposed.invisible,
                         decomposed, frozenset(changed))


@dataclass(frozen=True)
class Window:
    """The model sliced to detector times [lo, hi], with its graphs."""

    lo: int
    hi: int
    decomposed: DecomposedDEM  # sliced, global detector indexing
    graphs: dict               # protocol graphs of the sliced model


def build_window(decomposed: DecomposedDEM, lo: int, hi: int) -> Window:
    """Slice the model to the (lo, hi) cut and build the graphs it changes;
    the others are the model's own."""
    sliced = _slice_components(decomposed, lo, hi)
    return Window(lo, hi, sliced, build_protocol_graphs(sliced))


def check_cut_from(windows: tuple[Window, ...], dem: DetectorErrorModel,
                   error: type[CircuitError]) -> None:
    """Raise ``error`` unless ``windows`` were cut from ``dem``, judged by
    the first one's model: the same object, or failing that an equal one."""
    first = windows[0].decomposed.dem if windows else dem
    if first is not dem and first != dem:
        raise error("the plan was made for another model")


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
    mid-circuit survives the final gate.  The model's first round is
    followed by the first CNOT, so the first decision comes
    ``config.n_buf`` rounds after it, or the config is not the model's.
    """
    last = patch_last_round(dem)
    carriers = []
    for j in range(dem.observable_count):
        p = dem.observable_patch[j]
        if p is None:
            raise WindowError(f"observable {j} has no home patch")
        if p not in last:
            raise WindowError(f"observable {j}'s home patch {p} "
                              "has no detectors")
        carriers.append((last[p], j, p))
    carriers.sort()
    rest = sorted(set(last) - {p for _, _, p in carriers})
    if len(rest) != 1:
        raise WindowError(f"expected one surviving patch, found {rest}")
    if carriers:
        waited = carriers[0][0] - min(dem.detector_time)
        if waited != config.n_buf:
            raise WindowError(f"n_buf {config.n_buf} does not match the "
                              f"model's {waited} buffer rounds")
    gates = []
    for g, (sev, j, p) in enumerate(carriers):
        survivor = carriers[g + 1][2] if g + 1 < len(carriers) else rest[0]
        gates.append(TproxyGate(j, survivor, sev))
    return tuple(gates)


@dataclass(frozen=True)
class TproxyPlan:
    config: WindowConfig
    gates: tuple[TproxyGate, ...]
    windows: tuple[Window, ...]


def plan_tproxy_windows(decomposed: DecomposedDEM,
                        config: WindowConfig) -> TproxyPlan:
    """One window per gate, cut at its decision round.

    No horizon runs past its surviving patch's syndrome: a gate's
    survivor is the next carrier, which ends no earlier, or for the last
    gate the final survivor, which ends the circuit unless that gate
    does.
    """
    dem = decomposed.dem
    gates = tproxy_gates(dem, config)
    first = min(dem.detector_time)
    windows = tuple(build_window(decomposed, first, gate.decision_round)
                    for gate in gates)
    return TproxyPlan(config, gates, windows)


@dataclass
class TproxyDecodeResult:
    decisions: np.ndarray      # bool per observable


def carry_windows(dem: DetectorErrorModel, syndrome: np.ndarray,
                  windows: tuple[Window, ...], decode_window) -> list:
    """Decode ``windows``, cut from ``dem``, in time order, carrying each
    one's commits forward.

    ``decode_window(k, windows[k], carried)`` returns window ``k``'s
    :class:`GhostResult`.  Unless ``k`` is the last, its ghost commits
    and each correction edge with a detector below the next window's
    ``lo`` toggle the carried syndrome and frame by
    :func:`~ghostdec.ghost.commit_edge`: cut partners leave artificial
    defects beyond that frontier, and a witness (held only at the pass
    cap) takes its singleton.  Returns each window's answer: the frame
    it was given XOR its result's logical flips.
    """
    check_cut_from(windows, dem, WindowError)
    carried = np.array(syndrome, dtype=bool, copy=True)
    if carried.shape != (dem.detector_count,):
        raise WindowError("syndrome length does not match detector count")
    time = dem.detector_time
    frame = np.zeros(dem.observable_count, dtype=bool)
    answers = []
    for k, w in enumerate(windows):
        res = decode_window(k, w, carried)
        answers.append(frame ^ res.logical_flips)
        if k + 1 == len(windows):
            break
        carried ^= res.refinement_delta
        frame ^= res.frame_delta
        for g, corr in res.corrections.values():
            for ei in corr.edges:       # buffer-only edges: re-decoded later
                if any(time[d] < windows[k + 1].lo
                       for d in g.edge_detectors(ei)):
                    commit_edge(w.decomposed, g, ei, carried, frame)
    return answers


def protocol_decode(k: int, window: Window, carried: np.ndarray):
    """The :func:`carry_windows` callback running one ghost protocol."""
    return run_ghost_protocol(window.decomposed, carried, graphs=window.graphs)


def gate_decisions(gates: tuple[TproxyGate, ...], answers: list) -> np.ndarray:
    """Each gate's decision, its window's answer at its observable."""
    decisions = np.zeros(len(gates), dtype=bool)
    for gate, answer in zip(gates, answers):
        decisions[gate.observable] = answer[gate.observable]
    return decisions


def decode_tproxy_windowed(decomposed: DecomposedDEM, syndrome: np.ndarray,
                           config: WindowConfig, *,
                           plan: TproxyPlan) -> TproxyDecodeResult:
    """Per-gate decisions, each using only pre-horizon data.

    Each gate window runs the ghost protocol once inside
    :func:`carry_windows`; every window starts at the first round, so
    only ghost commits carry between gates.  The ``plan`` fixes the
    windows, so a ``config`` other than the plan's, or a plan cut from
    another model, is an error.
    """
    if config != plan.config:
        raise WindowError("config is fixed by the given plan")
    return TproxyDecodeResult(gate_decisions(
        plan.gates, carry_windows(decomposed.dem, syndrome, plan.windows,
                                  protocol_decode)))


def decode_tproxy_global(decomposed: DecomposedDEM, syndrome: np.ndarray, *,
                         graphs: dict) -> np.ndarray:
    """Hindsight decode: the whole problem at once, all gates together."""
    res = run_ghost_protocol(decomposed, syndrome, graphs=graphs)
    return res.logical_flips.copy()


@dataclass(frozen=True)
class TwError:
    """How often real-time answers deviate from hindsight answers."""

    shots: int
    disagreements: int
    rate: float
    interval: tuple[float, float]


def compute_tw_error(windowed_decisions, global_decisions) -> TwError:
    """Rate of shots whose windowed and global decisions differ anywhere."""
    a = np.asarray(windowed_decisions, dtype=bool)
    b = np.asarray(global_decisions, dtype=bool)
    if a.ndim != 2 or a.shape != b.shape:
        raise WindowError("decision arrays must share a (shots, gates) shape")
    if not a.shape[0]:
        raise WindowError("no shots to compare")
    bad = int(np.any(a != b, axis=1).sum())
    return TwError(a.shape[0], bad, bad / a.shape[0],
                   likelihood_interval(bad, a.shape[0], 1000.0))


# -- sliding-window decoding --------------------------------------------------


@dataclass(frozen=True)
class MemoryPlan:
    windows: tuple[Window, ...]  # each starts one commit region after the last


def plan_memory_windows(decomposed: DecomposedDEM, commit_rounds: int,
                        buffer_rounds: int) -> MemoryPlan:
    """Sliding commit/buffer windows covering a decoding problem.

    Any model can be planned, memory, T-proxy or deep: windows start
    ``commit_rounds`` apart and span at most ``commit_rounds +
    buffer_rounds`` rounds; the last one reaches the last round.  Both
    sizes are whole rounds, since a fractional size would cut windows
    between rounds, or with ``lo > hi``.
    """
    if not isinstance(commit_rounds, Integral) or commit_rounds < 1:
        raise WindowError("commit region needs a whole number of rounds, "
                          f"at least one, got {commit_rounds!r}")
    if not isinstance(buffer_rounds, Integral) or buffer_rounds < 0:
        raise WindowError("buffer region needs a whole number of rounds, "
                          f"none or more, got {buffer_rounds!r}")
    time = decomposed.dem.detector_time
    if not time:
        raise WindowError("model has no detectors")
    lo, t_end = min(time), max(time)
    windows = []
    while True:
        hi = min(lo + commit_rounds + buffer_rounds - 1, t_end)
        windows.append(build_window(decomposed, lo, hi))
        if hi == t_end:
            return MemoryPlan(tuple(windows))
        lo += commit_rounds


def decode_memory_sliding(decomposed: DecomposedDEM, syndrome: np.ndarray,
                          plan: MemoryPlan) -> np.ndarray:
    """Sliding-window decode of any model's problem.

    Each window is decoded in full by the ghost protocol inside
    :func:`carry_windows`, which commits the correction edges reaching
    into its commit region, below the next window's start, with
    artificial defects where they cross it.  The answer is the last
    window's, which holds every commit before it.  A plan cut from
    another model is an error.
    """
    return carry_windows(decomposed.dem, syndrome, plan.windows,
                         protocol_decode)[-1]


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

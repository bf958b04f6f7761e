"""Iterative multi-patch decoding with ghost-edge discovery.

Each patch is decoded independently several times.  Whenever a pass
selects a ghost witness edge (g_e), the whole interpatch mechanism is
committed: the issuing patch's defects at the edge's endpoints are
cleared, the partner patch is messaged to flip the lone ghost-singleton
defect, and the mechanism's observable flips enter the logical frame.
Messages are buffered and applied at a barrier between passes, so the
outcome does not depend on patch evaluation order.  Commits follow XOR
semantics: re-selecting a committed mechanism's witness cancels the
earlier commit.  The final pass is read-out only; its corrections are
combined with the committed frame to form the logical answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitError
from .decompose import DecomposedDEM, partition_dem
from .matching import (MatchingGraph, build_matching_graph,
                       decode_correlated_two_pass)


class ProtocolError(CircuitError):
    """Schedule or message validation failure."""


@dataclass(frozen=True)
class PassSchedule:
    passes: int = 4
    expose_gs_on: frozenset[int] = frozenset({1})

    def __post_init__(self):
        object.__setattr__(self, "expose_gs_on", frozenset(self.expose_gs_on))
        if self.passes < 2:
            raise ProtocolError("schedule needs at least 2 passes")
        for k in self.expose_gs_on:
            if not 1 <= k <= self.passes:
                raise ProtocolError(f"exposure pass {k} out of range")
        if self.passes in self.expose_gs_on:
            raise ProtocolError("ghost singletons must stay hidden on the final pass")


DEFAULT_SCHEDULE = PassSchedule()


def select_schedule(d: int, n_r: int, family: str) -> PassSchedule:
    """Pass schedules that were found to converge for each problem shape.

    Deep transversal circuits at d=11 need extra passes with repeated
    singleton exposure; everything else uses the 4-pass default.
    """
    if family == "deep" and d == 11:
        if n_r in (2, 3):
            return PassSchedule(6, frozenset({1, 4}))
        if n_r == 1:
            return PassSchedule(8, frozenset({1, 4, 6}))
    return DEFAULT_SCHEDULE


@dataclass(frozen=True)
class RefinementMessage:
    target_patch: int
    detector: int
    pair_id: int
    issued_pass: int


@dataclass
class GhostResult:
    corrections: dict          # (patch, cls) -> final Correction
    logical_flips: np.ndarray  # bool, observable space (frame delta + final)
    frame_delta: np.ndarray    # bool, observable flips of net-toggled commits
    refinement_delta: np.ndarray  # bool, detector flips of net-toggled commits
    commit_toggles: tuple      # commit keys (mech_id, g_s detector) net-toggled
    trace: list = field(default_factory=list)
    passes_with_commits: int = 0


def build_protocol_graphs(decomposed: DecomposedDEM,
                          exclude_open_boundary: bool = False):
    """Both exposure variants of every patch-class graph, built once.

    Keys are ``(patch, cls, exposed)``.  A patch-class with no ghost
    singleton has one graph, stored under both exposure keys.
    """
    graphs = {}
    for part in partition_dem(decomposed):
        for cls in ("Z", "X"):
            hidden = build_matching_graph(
                part, cls, exclude_open_boundary=exclude_open_boundary)
            shown = hidden
            if any(c.role == "ghost_s" and c.cls == cls
                   for c in part.components):
                shown = build_matching_graph(
                    part, cls, expose_gs=True,
                    exclude_open_boundary=exclude_open_boundary)
            graphs[part.patch, cls, False] = hidden
            graphs[part.patch, cls, True] = shown
    return graphs


def run_ghost_protocol(decomposed: DecomposedDEM, syndrome: np.ndarray,
                       schedule: PassSchedule = DEFAULT_SCHEDULE, *,
                       graphs: dict | None = None,
                       collect_trace: bool = True) -> GhostResult:
    """Decode all patches of one decomposed model against one syndrome.

    The returned deltas describe only the net toggles made here.
    """
    dem = decomposed.dem
    if len(syndrome) != dem.detector_count:
        raise ProtocolError("syndrome length does not match detector count")
    if graphs is None:
        graphs = build_protocol_graphs(decomposed)
    patches = sorted({p for p, _, _ in graphs})
    working = np.array(syndrome, dtype=bool, copy=True)
    frame_delta = np.zeros(dem.observable_count, dtype=bool)
    refinement_delta = np.zeros(dem.detector_count, dtype=bool)
    toggled: set = set()
    trace: list = []
    comps = decomposed.components
    pair_by_id = {pr.pair_id: pr for pr in decomposed.pairs}
    passes_with_commits = 0
    corrections = {}

    # passes repeat the same matching problem until a barrier actually
    # changes the working syndrome, so a quiet pass reuses the last
    # decode of the same (X, Z) graph objects; a patch whose graphs have
    # no ghost singleton shares them across exposure states and is
    # decoded once per barrier state
    version = 0
    seen: dict[tuple[int, int], tuple[int, tuple]] = {}

    for k in range(1, schedule.passes + 1):
        exposed = k in schedule.expose_gs_on
        final = k == schedule.passes
        barrier: list[RefinementMessage] = []
        for patch in patches:
            gx = graphs[patch, "X", exposed]
            gz = graphs[patch, "Z", exposed]
            key = (id(gx), id(gz))
            cached = seen.get(key)
            if cached is not None and cached[0] == version:
                corr_x, corr_z = cached[1]
            else:
                corr_x, corr_z = decode_correlated_two_pass(gx, gz, working)
                seen[key] = (version, (corr_x, corr_z))
            if final:
                for g, c in ((gx, corr_x), (gz, corr_z)):
                    if any(g.edges[i].role == "ghost_s" for i in c.edges):
                        raise ProtocolError("ghost singleton in final correction")
                corrections[patch, "X"] = corr_x
                corrections[patch, "Z"] = corr_z
            sent = []
            if not final:
                for g, c in ((gx, corr_x), (gz, corr_z)):
                    sent.extend(_discover(g, c, pair_by_id, comps, dem, k))
                barrier.extend(sent)
            if collect_trace:
                trace.append(_trace_entry(k, patch, (gx, corr_x), (gz, corr_z),
                                          sent, dem))
        applied = []
        for msg in barrier:
            pr = pair_by_id[msg.pair_id]
            ge, gs = comps[pr.g_e], comps[pr.g_s]
            key = (pr.mech_id, gs.detectors[0])
            flips = list(ge.detectors) + list(gs.detectors)
            for d in flips:
                working[d] ^= True
                refinement_delta[d] ^= True
            for j in set(ge.observables) ^ set(gs.observables):
                frame_delta[j] ^= True
            toggled ^= {key}
            applied.append([msg.detector, msg.pair_id])
        if applied:
            passes_with_commits += 1
            version += 1
        if collect_trace and applied:
            trace.append({"pass": k, "barrier": True, "applied": applied})

    logical = frame_delta.copy()
    for corr in corrections.values():
        for j in corr.observables:
            logical[j] ^= True
    return GhostResult(corrections, logical, frame_delta, refinement_delta,
                       tuple(sorted(toggled)), trace, passes_with_commits)


def _discover(graph: MatchingGraph, corr, pair_by_id, comps, dem, k):
    """Commit messages for net-selected ghost witness edges."""
    counts: dict[int, int] = {}
    for i in corr.edges:
        counts[i] = counts.get(i, 0) + 1
    for i, n in sorted(counts.items()):
        if n % 2 == 0:
            continue
        edge = graph.edges[i]
        if edge.role != "ghost_e":
            continue
        pr = pair_by_id[edge.pair_id]
        gs = comps[pr.g_s]
        det = gs.detectors[0]
        if det >= dem.detector_count:
            raise ProtocolError(f"message targets nonexistent detector {det}")
        yield RefinementMessage(gs.patch, det, pr.pair_id, k)


def _trace_entry(k, patch, x_pair, z_pair, sent, dem):
    entry = {"pass": k, "patch": patch, "weight": 0.0, "edges": [],
             "committed": sorted({m.pair_id for m in sent}),
             "sent": [[m.target_patch, m.detector, m.pair_id] for m in sent]}
    for g, corr in (x_pair, z_pair):
        entry["weight"] += corr.weight
        for i in corr.edges:
            e = g.edges[i]
            u = g.detectors[e.u]
            v = g.detectors[e.v] if e.v < g.boundary else None
            entry["edges"].append([g.cls, u, v, e.weight])
    return entry

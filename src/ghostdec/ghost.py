"""Iterative multi-patch decoding with ghost-edge discovery.

Each patch is decoded independently on each of :data:`PASSES` passes,
and ghost singletons are shown to the matcher on :data:`EXPOSED_PASS`
only.  Whenever a pass selects a ghost witness edge (g_e), the whole
interpatch mechanism is committed: the issuing patch's defects at the
edge's endpoints are cleared, the partner patch's lone ghost-singleton
defect is flipped, and the mechanism's observable flips enter the
logical frame.  Commits are buffered as ghost-pair ids and applied at a
barrier between passes, so the outcome does not depend on patch
evaluation order.  Commits follow XOR semantics: re-selecting a
committed mechanism's witness cancels the earlier commit.  The final
pass is read-out only; its corrections are combined with the committed
frame to form the logical answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitError
from .decompose import CLASSES, DecomposedDEM
from .matching import build_matching_graph, decode_correlated_two_pass


class ProtocolError(CircuitError):
    """Syndrome or final-correction validation failure."""


PASSES = 4
EXPOSED_PASS = 1


@dataclass
class GhostResult:
    corrections: dict          # (patch, cls) -> final Correction
    logical_flips: np.ndarray  # bool, observable space (frame delta + final)
    frame_delta: np.ndarray    # bool, observable flips of net-toggled commits
    refinement_delta: np.ndarray  # bool, detector flips of net-toggled commits
    trace: list = field(default_factory=list)
    passes_with_commits: int = 0


def build_protocol_graphs(decomposed: DecomposedDEM,
                          exclude_open_boundary: bool = False):
    """Both exposure variants of every patch-class graph, built once.

    Keys are ``(patch, cls, exposed)`` for both classes of every patch
    with detectors, so a class without components still has a graph.
    A patch-class with no ghost singleton has one graph, stored under
    both exposure keys.
    """
    groups: dict[tuple[int, str], list] = {
        (p, cls): [] for p in sorted(set(decomposed.dem.detector_patch))
        for cls in CLASSES}
    for c in decomposed.components:
        groups[c.patch, c.cls].append(c)
    graphs = {}
    for (patch, cls), comps in groups.items():
        hidden = shown = build_matching_graph(
            patch, cls, comps, exclude_open_boundary=exclude_open_boundary)
        if any(c.role == "ghost_s" for c in comps):
            shown = build_matching_graph(
                patch, cls, comps, expose_gs=True,
                exclude_open_boundary=exclude_open_boundary)
        graphs[patch, cls, False] = hidden
        graphs[patch, cls, True] = shown
    return graphs


def run_ghost_protocol(decomposed: DecomposedDEM, syndrome: np.ndarray, *,
                       graphs: dict,
                       collect_trace: bool = True) -> GhostResult:
    """Decode all patches of one decomposed model against one syndrome.

    ``graphs`` are the model's :func:`build_protocol_graphs`.  The
    returned deltas describe only the net toggles made here.
    """
    dem = decomposed.dem
    if len(syndrome) != dem.detector_count:
        raise ProtocolError("syndrome length does not match detector count")
    patches = sorted({p for p, _, _ in graphs})
    working = np.array(syndrome, dtype=bool, copy=True)
    frame_delta = np.zeros(dem.observable_count, dtype=bool)
    refinement_delta = np.zeros(dem.detector_count, dtype=bool)
    trace: list = []
    comps = decomposed.components
    passes_with_commits = 0
    corrections = {}

    # passes repeat the same matching problem until a barrier actually
    # changes the working syndrome, so a quiet pass reuses the last
    # decode of the same (X, Z) graph objects; a patch whose graphs have
    # no ghost singleton shares them across exposure states and is
    # decoded once per barrier state
    version = 0
    seen: dict[tuple[int, int], tuple[int, tuple]] = {}

    for k in range(1, PASSES + 1):
        exposed = k == EXPOSED_PASS
        final = k == PASSES
        barrier: list[int] = []        # pair ids committed this pass
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
                    # each selected witness edge commits its pair
                    for i in c.edges:
                        if g.edges[i].role == "ghost_e":
                            sent.append(g.edges[i].pair_id)
                barrier.extend(sent)
            if collect_trace:
                trace.append(_trace_entry(k, patch, (gx, corr_x), (gz, corr_z),
                                          sent, decomposed))
        applied = []
        for pid in barrier:
            pr = decomposed.pairs[pid]
            ge, gs = comps[pr.g_e], comps[pr.g_s]
            flips = list(ge.detectors) + list(gs.detectors)
            for d in flips:
                working[d] ^= True
                refinement_delta[d] ^= True
            for j in set(ge.observables) ^ set(gs.observables):
                frame_delta[j] ^= True
            applied.append([gs.detectors[0], pid])
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
                       trace, passes_with_commits)


def _trace_entry(k, patch, x_pair, z_pair, sent, decomposed):
    """One patch's pass; ``sent`` holds its committed pair ids."""
    entry = {"pass": k, "patch": patch, "weight": 0.0, "edges": [],
             "committed": sorted(set(sent)), "sent": []}
    for pid in sent:
        gs = decomposed.components[decomposed.pairs[pid].g_s]
        entry["sent"].append([gs.patch, gs.detectors[0], pid])
    for g, corr in (x_pair, z_pair):
        entry["weight"] += corr.weight
        for i in corr.edges:
            e = g.edges[i]
            u = g.detectors[e.u]
            v = g.detectors[e.v] if e.v < g.boundary else None
            entry["edges"].append([g.cls, u, v, e.weight])
    return entry

"""Iterative multi-patch decoding with ghost-edge discovery.

Each patch is decoded independently on each of up to :data:`PASSES`
passes, always on the same patch-class graphs, which never show the
matcher a ghost singleton.  Whenever a pass selects a ghost witness edge
(g_e), the whole interpatch mechanism is committed: the issuing patch's
defects at the edge's endpoints are cleared, the partner patch's lone
ghost-singleton defect is flipped, and the mechanism's observable flips
enter the logical frame.  Commits are buffered as ghost-pair ids, which
are the ids of the mechanisms the pairs split, and applied at a barrier
between passes, so the outcome does not depend on patch evaluation
order.  Commits follow XOR semantics: re-selecting a committed
mechanism's witness cancels the earlier commit.  The final pass is
read-out only; its corrections are combined with the committed frame to
form the logical answer.  A barrier that commits nothing leaves the
working syndrome as it was, so every later pass would repeat its pass:
the protocol ends there, and that pass is the final one.  A trace still
holds :data:`PASSES` records, the quiet pass's repeated for each pass
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitError
from .decompose import CLASSES, DecomposedDEM
from .matching import build_matching_graph, decode_correlated_two_pass


class ProtocolError(CircuitError):
    """The syndrome's length is not the model's detector count."""


PASSES = 4


@dataclass(frozen=True)
class PassRecord:
    """One protocol pass, kept when ``collect_trace`` is set."""

    corrections: dict  # (patch, cls) -> (MatchingGraph, Correction)
    committed: list    # pair (mechanism) ids its barrier applied, in order


@dataclass
class GhostResult:
    corrections: dict          # (patch, cls) -> (graph, final Correction)
    logical_flips: np.ndarray  # bool, observable space (frame delta + final)
    frame_delta: np.ndarray    # bool, observable flips of net-toggled commits
    refinement_delta: np.ndarray  # bool, detector flips of net-toggled commits
    trace: list[PassRecord] = field(default_factory=list)
    passes_with_commits: int = 0


def build_protocol_graphs(decomposed: DecomposedDEM):
    """Every patch-class graph, keyed ``(patch, cls)``.

    Both classes of every patch with detectors get a graph, so a class
    without components still has one, and every pass decodes it.  Each
    graph is built once and kept in ``decomposed.graphs``; a slice takes its
    source's own graph for every patch-class its cut leaves alone, so
    that graph's routes and decode memo serve every window sharing it.
    """
    return _graphs(decomposed, [(p, cls) for p in
                                sorted(set(decomposed.dem.detector_patch))
                                for cls in CLASSES])


def _graphs(decomposed: DecomposedDEM, keys: list) -> dict:
    """The graphs of ``keys``, each built on its first request and kept."""
    graphs = decomposed.graphs
    missing = [key for key in keys if key not in graphs]
    if decomposed.source is not None:
        graphs.update(_graphs(decomposed.source, [
            key for key in missing if key not in decomposed.changed]))
    groups: dict[tuple[int, str], list] = {
        key: [] for key in missing if key not in graphs}
    if groups:
        for c in decomposed.components:
            if (c.patch, c.cls) in groups:
                groups[c.patch, c.cls].append(c)
        graphs.update((key, build_matching_graph(*key, comps))
                      for key, comps in groups.items())
    return {key: graphs[key] for key in keys}


def run_ghost_protocol(decomposed: DecomposedDEM, syndrome: np.ndarray, *,
                       graphs: dict,
                       collect_trace: bool = False) -> GhostResult:
    """Decode all patches of one decomposed model against one syndrome.

    ``graphs`` are the model's :func:`build_protocol_graphs`.  The
    returned deltas describe only the net toggles made here.  Passes
    stop at the first barrier that commits nothing, since each later
    pass would decode the same working syndrome again; with
    ``collect_trace`` the result also keeps one :class:`PassRecord` per
    pass, :data:`PASSES` in all, the quiet pass's standing for each one
    skipped.
    """
    dem = decomposed.dem
    if len(syndrome) != dem.detector_count:
        raise ProtocolError("syndrome length does not match detector count")
    patches = sorted({p for p, _ in graphs})
    working = np.array(syndrome, dtype=bool)
    frame_delta = np.zeros(dem.observable_count, dtype=bool)
    trace: list[PassRecord] = []
    passes_with_commits = 0

    # a pass repeats the matching problem of the pass before unless its
    # barrier changed the working syndrome, so the first quiet barrier
    # ends the passes
    for k in range(1, PASSES + 1):
        decoded = {}                   # (patch, cls) -> (graph, correction)
        for patch in patches:
            gx, gz = graphs[patch, "X"], graphs[patch, "Z"]
            corr_x, corr_z = decode_correlated_two_pass(gx, gz, working)
            decoded[patch, "X"] = (gx, corr_x)
            decoded[patch, "Z"] = (gz, corr_z)
        # each selected witness edge commits its pair; the final pass is
        # read-out only
        committed = [] if k == PASSES else [
            g.edges[i].pair_id for g, c in decoded.values() for i in c.edges
            if g.edges[i].role == "ghost_e"]
        for pid in committed:
            ge, gs = decomposed.pairs[pid]
            for d in list(ge.detectors) + list(gs.detectors):
                working[d] ^= True
            for j in set(ge.observables) ^ set(gs.observables):
                frame_delta[j] ^= True
        if collect_trace:
            trace.append(PassRecord(decoded, committed))
        if not committed:
            # a trace keeps PASSES records, this one standing for the rest
            trace += trace[-1:] * (PASSES - k)
            break
        passes_with_commits += 1

    logical = frame_delta.copy()
    for _, corr in decoded.values():
        for j in corr.observables:
            logical[j] ^= True
    refinement_delta = working ^ np.asarray(syndrome, dtype=bool)
    return GhostResult(decoded, logical, frame_delta, refinement_delta,
                       trace, passes_with_commits)

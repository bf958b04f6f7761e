"""Minimum-weight matching decoder for one patch-class graph.

Each patch is decoded as two independent class graphs (cells that
measure ZZZZ catch bit flips, cells that measure XXXX catch phase
flips).  Defects are matched pairwise or to a virtual boundary node
with exact blossom matching over shortest-path distances; a two-pass
scheme reweights cross-class partner edges so correlated pairs from
Y-type faults are recovered.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .circuits import CircuitError
from .decompose import PatchPartition
from .dem import _merge_odd

# a correlated partner edge is discounted to this fraction of the
# graph's lightest edge weight
CORRELATION_SCALE = 0.01


class MatchingError(CircuitError):
    """Decoding is impossible or the graph is malformed."""


@dataclass(frozen=True)
class GraphEdge:
    index: int
    u: int                        # local node id
    v: int                        # local node id; graph.boundary if virtual
    weight: float
    probability: float
    components: tuple[int, ...]   # component indices merged into this edge
    observables: tuple[int, ...]
    role: str
    pair_id: int | None
    open_boundary: bool
    cut_partners: tuple[int, ...] = ()  # detectors beyond the window cut


@dataclass(frozen=True)
class MatchingGraph:
    patch: int
    cls: str
    detectors: tuple[int, ...]    # global detector ids, sorted
    edges: tuple[GraphEdge, ...]
    # cross-class provenance links: (component index, partner component index)
    partner_links: tuple[tuple[int, int], ...] = ()
    # per-component source probability: (component index, probability)
    component_probabilities: tuple[tuple[int, float], ...] = ()

    @property
    def boundary(self) -> int:
        return len(self.detectors)

    def node_of(self, det: int) -> int:
        return self._node_map[det]

    def __post_init__(self):
        object.__setattr__(self, "_node_map",
                           {d: i for i, d in enumerate(self.detectors)})
        comp_edge = {}
        for e in self.edges:
            for c in e.components:
                comp_edge[c] = e.index
        object.__setattr__(self, "edge_of_component", comp_edge)
        object.__setattr__(self, "partner_of", dict(self.partner_links))
        object.__setattr__(self, "probability_of",
                           dict(self.component_probabilities))
        pos = [e.weight for e in self.edges if e.weight > 0]
        object.__setattr__(self, "min_weight", min(pos) if pos else 1.0)
        # routing caches: decodes repeat thousands of times per graph,
        # so the parallel-edge reduction and adjacency matrix are built
        # once; overrides patch them per call
        key_edges: dict[tuple[int, int], list[int]] = {}
        for e in self.edges:
            key_edges.setdefault((e.u, e.v), []).append(e.index)
        keys = sorted(key_edges)
        base_w = np.array([e.weight for e in self.edges], dtype=float)
        best = np.array([min(key_edges[k]) if len(key_edges[k]) == 1 else
                         min(key_edges[k], key=lambda ei: (base_w[ei], ei))
                         for k in keys], dtype=int)
        rows = np.array([k[0] for k in keys], dtype=int)
        cols = np.array([k[1] for k in keys], dtype=int)
        n = self.boundary + 1
        if keys:
            # both directions stored explicitly so dijkstra runs directed
            # and skips its symmetrization copy
            mat = csr_matrix((np.concatenate([base_w[best], base_w[best]]),
                              (np.concatenate([rows, cols]),
                               np.concatenate([cols, rows]))), shape=(n, n))
        else:
            mat = csr_matrix((n, n))
        pos_uv = np.empty(len(keys), dtype=np.int64)
        pos_vu = np.empty(len(keys), dtype=np.int64)
        for i, (u, v) in enumerate(keys):
            lo, hi = mat.indptr[u], mat.indptr[u + 1]
            pos_uv[i] = lo + np.searchsorted(mat.indices[lo:hi], v)
            lo, hi = mat.indptr[v], mat.indptr[v + 1]
            pos_vu[i] = lo + np.searchsorted(mat.indices[lo:hi], u)
        edge_key = {ei: i for i, k in enumerate(keys) for ei in key_edges[k]}
        object.__setattr__(self, "_key_pos", {k: i for i, k in enumerate(keys)})
        object.__setattr__(self, "_key_edges",
                           tuple(tuple(key_edges[k]) for k in keys))
        object.__setattr__(self, "_edge_key", edge_key)
        object.__setattr__(self, "_pos_uv", pos_uv)
        object.__setattr__(self, "_pos_vu", pos_vu)
        object.__setattr__(self, "_base_weights", base_w)
        object.__setattr__(self, "_base_best", best)
        object.__setattr__(self, "_base_mat", mat)
        object.__setattr__(self, "_incident",
                           frozenset(x for k in keys for x in k))
        object.__setattr__(self, "_dij_cache", {})


def edge_weight(probability: float) -> float:
    if not 0.0 < probability <= 0.5:
        raise MatchingError(f"edge probability {probability} outside (0, 0.5]")
    return math.log((1.0 - probability) / probability)


def build_matching_graph(partition: PatchPartition, cls: str,
                         expose_gs: bool = False,
                         exclude_open_boundary: bool = False) -> MatchingGraph:
    """Assemble one class graph from a patch partition.

    Ghost-singleton edges enter only when exposed.  Normal parallel
    edges with identical endpoints and observable flips merge by
    odd-occurrence combination; ghost edges keep their pair identity.
    Setting exclude_open_boundary drops edges created by a temporal
    window cut, closing that boundary.
    """
    dem_dets = [c for c in partition.components if c.cls == cls]
    # nodes cover every detector of the class, even when the current
    # variant hides or excludes all of a detector's edges: a defect on
    # such a node must fail loudly instead of being dropped
    dets = sorted({d for c in dem_dets for d in c.detectors})
    node = {d: i for i, d in enumerate(dets)}
    boundary = len(dets)
    merged: dict[tuple, list] = {}
    ghosts = []
    for c in dem_dets:
        if c.role == "ghost_s" and not expose_gs:
            continue
        if c.open_boundary and exclude_open_boundary:
            continue
        u = node[c.detectors[0]]
        v = node[c.detectors[1]] if len(c.detectors) == 2 else boundary
        u, v = min(u, v), max(u, v)
        if c.role == "normal":
            # truncated edges with different continuations beyond the cut
            # must stay apart so a committed edge knows its hidden defects
            key = (u, v, c.observables, c.open_boundary, c.cut_partners)
            merged.setdefault(key, []).append(c)
        else:
            ghosts.append((u, v, c))
    edges = []
    for (u, v, obs, open_b, cut), comps in sorted(
            merged.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2], kv[0][4])):
        p = 0.0
        for c in comps:
            p = _merge_odd(p, c.probability)
        edges.append(GraphEdge(len(edges), u, v, edge_weight(p), p,
                               tuple(c.index for c in comps), obs,
                               "normal", None, open_b, cut))
    for u, v, c in sorted(ghosts, key=lambda t: (t[0], t[1], t[2].index)):
        edges.append(GraphEdge(len(edges), u, v, edge_weight(c.probability),
                               c.probability, (c.index,), c.observables,
                               c.role, c.pair_id, c.open_boundary,
                               c.cut_partners))
    links = tuple((c.index, c.partner) for c in dem_dets
                  if c.partner is not None)
    probs = tuple((c.index, c.probability) for c in dem_dets)
    return MatchingGraph(partition.patch, cls, tuple(dets),
                         tuple(edges), links, probs)


@dataclass(frozen=True)
class Correction:
    """Edge multiset explaining one class graph's defects."""

    edges: tuple[int, ...]        # edge indices; repeats cancel mod 2
    weight: float
    observables: tuple[int, ...]  # odd-multiplicity observable flips
    defects: tuple[int, ...]      # global detector ids that were matched


def _effective_weights(graph: MatchingGraph, overrides) -> np.ndarray:
    if not overrides:
        return graph._base_weights
    w = graph._base_weights.copy()
    for i, val in overrides.items():
        w[i] = val
    return w


def _shortest_paths(graph: MatchingGraph, weights, sources, overrides):
    """Dijkstra over local nodes; returns (dist, pred, best-per-key)."""
    if not overrides:
        # routes from a given defect node never change without overrides,
        # so rows are computed once per graph and reassembled per call
        cache = graph._dij_cache
        missing = [s for s in sources if s not in cache]
        if missing:
            if len(cache) > 4096:
                cache.clear()
            dist, pred = dijkstra(graph._base_mat, directed=True,
                                  indices=missing, return_predecessors=True)
            for i, s in enumerate(missing):
                cache[s] = (dist[i], pred[i])
        dist = np.stack([cache[s][0] for s in sources])
        pred = np.stack([cache[s][1] for s in sources])
        return dist, pred, graph._base_best
    best = graph._base_best.copy()
    # ties in effective weight (several parallel edges discounted to
    # the same epsilon) resolve to the more probable edge
    touched = {graph._edge_key[i] for i in overrides if i in graph._edge_key}
    for kpos in touched:
        best[kpos] = min(graph._key_edges[kpos],
                         key=lambda ei: (weights[ei],
                                         graph.edges[ei].weight, ei))
    data = graph._base_mat.data.copy()
    for kpos in touched:
        data[graph._pos_uv[kpos]] = weights[best[kpos]]
        data[graph._pos_vu[kpos]] = weights[best[kpos]]
    mat = csr_matrix((data, graph._base_mat.indices, graph._base_mat.indptr),
                     shape=graph._base_mat.shape)
    dist, pred = dijkstra(mat, directed=True, indices=sources,
                          return_predecessors=True)
    return dist, pred, best


def _walk(pred_row, graph, best, src_pos, target):
    """Recover the edge-index path from a dijkstra predecessor row."""
    path = []
    v = target
    while True:
        u = pred_row[v]
        if u < 0:
            raise MatchingError("no path during correction recovery")
        path.append(int(best[graph._key_pos[(min(u, v), max(u, v))]]))
        if u == src_pos:
            return path
        v = u


def decode_mwpm(graph: MatchingGraph, syndrome: np.ndarray,
                weight_overrides: dict[int, float] | None = None) -> Correction:
    """Exact minimum-weight matching of this graph's defects.

    The syndrome is a boolean vector over all detectors of the model;
    only this graph's detectors are consulted.  Matching runs on the
    complete defect graph with one boundary copy per defect, so odd
    defect parity is absorbed by the boundary when reachable.
    """
    defects = [d for d in graph.detectors if syndrome[d]]
    if not defects:
        return Correction((), 0.0, (), ())
    weights = _effective_weights(graph, weight_overrides)
    nodes = [graph.node_of(d) for d in defects]
    for d, v in zip(defects, nodes):
        if v not in graph._incident:
            raise MatchingError(f"defect detector {d} has no incident edges")
    dist, pred, best = _shortest_paths(graph, weights, nodes, weight_overrides)
    k = len(nodes)
    g = nx.Graph()
    g.add_nodes_from(range(2 * k))
    for i in range(k):
        for j in range(i + 1, k):
            if np.isfinite(dist[i, nodes[j]]):
                g.add_edge(i, j, weight=dist[i, nodes[j]])
            g.add_edge(k + i, k + j, weight=0.0)
        if np.isfinite(dist[i, graph.boundary]):
            g.add_edge(i, k + i, weight=dist[i, graph.boundary])
    mate = nx.min_weight_matching(g)
    matched = {a for pair in mate for a in pair if a < k}
    if len(matched) != k:
        raise MatchingError("defects cannot be matched (no boundary path)")
    chosen: list[int] = []
    for a, b in mate:
        a, b = min(a, b), max(a, b)
        if a >= k:
            continue
        if b >= k:
            chosen.extend(_walk(pred[a], graph, best, nodes[a],
                                graph.boundary))
        else:
            chosen.extend(_walk(pred[a], graph, best, nodes[a], nodes[b]))
    # report true log-likelihood weight even when the optimizer ran on
    # correlation-discounted weights
    total = float(sum(graph.edges[i].weight for i in chosen))
    flips = np.zeros(graph.boundary, dtype=bool)
    obs: set[int] = set()
    for i in chosen:
        e = graph.edges[i]
        if e.u < graph.boundary:
            flips[e.u] ^= True
        if e.v < graph.boundary:
            flips[e.v] ^= True
        obs ^= set(e.observables)
    want = np.zeros(graph.boundary, dtype=bool)
    want[nodes] = True
    if not np.array_equal(flips, want):
        raise MatchingError("correction symptom does not reproduce defects")
    return Correction(tuple(sorted(chosen)), total, tuple(sorted(obs)),
                      tuple(defects))


def decode_correlated_two_pass(
        x_graph: MatchingGraph, z_graph: MatchingGraph, syndrome: np.ndarray,
) -> tuple[Correction, Correction]:
    """Two-pass correlated decode of one patch.

    The first pass decodes both class graphs independently; every
    selected edge with a cross-class partner discounts the partner's
    weight before both graphs are decoded again.
    """
    first_x = decode_mwpm(x_graph, syndrome)
    first_z = decode_mwpm(z_graph, syndrome)
    over_x: dict[int, float] = {}
    over_z: dict[int, float] = {}
    comps_x = x_graph.edge_of_component
    comps_z = z_graph.edge_of_component

    def reweight(corr, src_graph, dst_graph, dst_comps, dst_over):
        eps = CORRELATION_SCALE * dst_graph.min_weight
        live = [ei for ei, n in Counter(corr.edges).items() if n % 2]
        trigger: dict[int, float] = {}
        for i in live:
            for ci in src_graph.edges[i].components:
                comp = src_graph.partner_of.get(ci)
                if comp is None:
                    continue
                target = dst_comps.get(comp)
                if target is not None:
                    trigger[target] = _merge_odd(
                        trigger.get(target, 0.0),
                        dst_graph.probability_of.get(comp, 0.0))
        for target, p in trigger.items():
            # parallel partner edges stay ordered by how probable their
            # triggering mechanisms are, all within the epsilon budget
            val = eps * (1.0 - p)
            dst_over[target] = min(dst_over.get(target, np.inf), val)

    reweight(first_x, x_graph, z_graph, comps_z, over_z)
    reweight(first_z, z_graph, x_graph, comps_x, over_x)
    if not over_x and not over_z:
        return first_x, first_z
    return (decode_mwpm(x_graph, syndrome, over_x),
            decode_mwpm(z_graph, syndrome, over_z))

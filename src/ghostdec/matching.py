"""Minimum-weight matching decoder for one patch-class graph.

Each patch is decoded as two independent class graphs (cells that
measure ZZZZ catch bit flips, cells that measure XXXX catch phase
flips).  Defects are matched pairwise or to a virtual boundary node,
exactly, over shortest-path distances: pairs whose shortest path runs
through the boundary are dropped, and one breadth-first walk over the
pairs that stay splits the defects into components.  Each component has
its own solver: lone defects and pairs are solved in closed form,
components of up to DP_MAX defects by an exact DP over bitmasks of
their defects in ascending order, and larger ones by the same DP, over
the reverse of the walk's order, when it certifies within DP_MASKS
masks that its optimum is the unique one.  Blossom matching solves the
rest: components whose DP meets more masks, or whose optimum ties
another within PRUNE_TOL.  A unique optimum is the one blossom would return, so
which solver ran never changes a decision.  A two-pass scheme reweights
cross-class partner edges so correlated pairs from Y-type faults are
recovered.

A `MatchingGraph` is plain data: detectors and edges, each edge with
its cross-class partners.  Everything a decode derives from them lives
in one `Routes` object, built on the graph's first decode and kept;
its base shortest paths are computed whole, from every node, when it
is built, so decoding only reads them.  Base and reweighted decodes
pick the lightest parallel edge by one rule and fill one fixed matrix
layout.  A decode writes two pieces of state in a graph's `Routes`.
One is the memo of two-pass results held by the X graph's `Routes`: an
answer depends on the two graphs and their defects alone, so a repeated
input is looked up, and past MEMO_MAX entries the oldest is forgotten;
a patch whose two graphs see no defect is answered before the memo.
The other is the scratch matrix a reweighted decode writes its weights
into, valid until the next reweighted call on that graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .circuits import CircuitError
from .decompose import Component
from .dem import _merge_odd

# a correlated partner edge is discounted to this fraction of the
# graph's lightest edge weight
CORRELATION_SCALE = 0.01

# relative slack, for float summation order, when a pair's distance is
# compared with its two boundary legs, and when a certified optimum is
# compared with the other matchings
PRUNE_TOL = 1e-9

# components of 3 to DP_MAX defects are matched by an exact bitmask DP:
# up to this size the DP is no slower than blossom even when every pair
# of the component is kept (it then meets 2,584 masks at most)
DP_MAX = 16

# larger components go to the DP too, which certifies a unique optimum
# or gives up for blossom; it gives up past the masks a complete
# component of DP_MAX defects meets, the Fibonacci number F(DP_MAX + 2)
DP_MASKS = round(((1 + 5 ** 0.5) / 2) ** (DP_MAX + 2) / 5 ** 0.5)

# two-pass results remembered per X graph, keyed by both graphs'
# defects; past this many the oldest is forgotten
MEMO_MAX = 1024


class MatchingError(CircuitError):
    """Decoding is impossible or the graph is malformed."""


@dataclass(frozen=True)
class GraphEdge:
    u: int                        # local node id
    v: int                        # local node id; graph.boundary if virtual
    weight: float
    components: tuple[int, ...]   # component indices merged into this edge
    observables: tuple[int, ...]
    role: str                     # normal | ghost_e
    pair_id: int | None           # a ghost witness's mechanism id
    cut_partners: tuple[int, ...] = ()  # detectors beyond the window cut
    # (partner component, probability) per component with a cross-class
    # partner; a partner shares its mechanism, hence its probability
    partners: tuple[tuple[int, float], ...] = ()
    open_boundary: bool = False   # created by a temporal window cut


@dataclass(frozen=True)
class MatchingGraph:
    patch: int
    cls: str
    detectors: tuple[int, ...]    # global detector ids, sorted
    edges: tuple[GraphEdge, ...]

    @property
    def boundary(self) -> int:
        return len(self.detectors)

    @cached_property
    def routes(self) -> Routes:
        """Routing lookups, built on the first decode and kept."""
        return Routes(self)

    @cached_property
    def closed(self) -> MatchingGraph:
        """This graph less its open-boundary edges, in their order, or
        ``self`` when it has none; built on first use.  The nodes stay:
        a defect whose every edge is dropped must fail loudly instead of
        vanishing."""
        kept = tuple(e for e in self.edges if not e.open_boundary)
        if len(kept) == len(self.edges):
            return self
        return replace(self, edges=kept)

    def edge_detectors(self, i: int) -> tuple[int, ...]:
        """Global detectors at edge ``i``'s ends; the boundary end has none."""
        e = self.edges[i]
        return tuple(self.detectors[v] for v in (e.u, e.v) if v < self.boundary)


def _lightest(edges, edge_ids, overrides) -> int:
    """The parallel edge routes take: lightest effective weight, then
    (for partner edges discounted alike) the more probable edge."""
    return min(edge_ids, key=lambda ei: (overrides.get(ei, edges[ei].weight),
                                         edges[ei].weight, ei))


class Routes:
    """Lookups derived from one graph's edges; decodes repeat thousands
    of times per graph, so they are built once.

    Two attributes are written after construction: ``memo``, by the
    two-pass decodes of this X graph, and ``scratch``, the one routing
    matrix over the fixed layout, which the base Dijkstra read and each
    :meth:`reweighted` call rewrites in place.
    """

    def __init__(self, graph: MatchingGraph):
        self.edges = edges = graph.edges
        self.detectors = np.array(graph.detectors, dtype=np.intp)
        # id(z graph), X defects, Z defects -> (z graph, two-pass result)
        self.memo: dict[tuple, tuple] = {}
        self.edge_of_component = {c: i for i, e in enumerate(edges)
                                  for c in e.components}
        pos = [e.weight for e in edges if e.weight > 0]
        self.min_weight = min(pos) if pos else 1.0
        key_edges: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(edges):
            key_edges.setdefault((e.u, e.v), []).append(i)
        keys = sorted(key_edges)
        self.key_pos = {k: i for i, k in enumerate(keys)}
        self.key_edges = tuple(tuple(key_edges[k]) for k in keys)
        self.edge_key = [self.key_pos[e.u, e.v] for e in edges]
        # both directions stored explicitly so dijkstra runs directed and
        # skips its symmetrization copy; slot_key is the key whose weight
        # fills each stored entry (plus one while the layout is built, so
        # no entry is zero)
        u, v = np.array(keys, dtype=np.int32).reshape(-1, 2).T
        n = graph.boundary + 1
        self.scratch = csr_matrix(
            (np.tile(np.arange(1, len(keys) + 1), 2),
             (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))
        self.slot_key = self.scratch.data - 1
        self.best = np.array([_lightest(edges, ids, {})
                              for ids in self.key_edges], dtype=int)
        self.key_weight = np.array([edges[ei].weight for ei in self.best],
                                   dtype=float)
        self.scratch.data = self.key_weight[self.slot_key]
        # base routes never change, and decodes reach nearly every node
        # of a graph, so every row is computed once, here
        self.dist, self.pred = dijkstra(self.scratch, directed=True,
                                        indices=np.arange(n),
                                        return_predecessors=True)

    def reweighted(self, overrides):
        """(matrix, edge per key); only overridden keys are chosen again.

        The matrix is :attr:`scratch`, rewritten in place, so it is valid
        until the next reweighted call on this graph."""
        edges = self.edges
        best = self.best.copy()
        key_weight = self.key_weight.copy()
        for i, w in overrides.items():
            k = self.edge_key[i]
            if len(self.key_edges[k]) == 1:         # best[k] is i already
                key_weight[k] = w
            else:
                best[k] = ei = _lightest(edges, self.key_edges[k], overrides)
                key_weight[k] = overrides.get(ei, edges[ei].weight)
        np.take(key_weight, self.slot_key, out=self.scratch.data)
        return self.scratch, best


def edge_weight(probability: float) -> float:
    if not 0.0 < probability <= 0.5:
        raise MatchingError(f"edge probability {probability} outside (0, 0.5]")
    return math.log((1.0 - probability) / probability)


def build_matching_graph(patch: int, cls: str,
                         components: list[Component]) -> MatchingGraph:
    """Assemble one class graph from all of one patch-class's components.

    Nodes are the components' detectors, ghost singletons' included;
    edges keep component order.  Normal parallel edges with identical
    endpoints, observable flips and open-boundary flag merge by
    odd-occurrence combination; ghost witnesses keep their pair
    identity.  A ghost singleton gets no edge: it would look exactly
    like a boundary edge, and its detector is toggled only by its
    partner patch's commits.  A decode that closes the open boundary
    decodes the graph's cached :attr:`~MatchingGraph.closed` view.
    """
    dets = sorted({d for c in components for d in c.detectors})
    node = {d: i for i, d in enumerate(dets)}
    boundary = len(dets)
    merged: dict[tuple, list] = {}
    witnesses = []
    for c in components:
        if c.role == "ghost_s":
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
            witnesses.append((u, v, c))
    edges = []
    for (u, v, obs, open_b, cut), comps in sorted(
            merged.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2], kv[0][4])):
        p = 0.0
        for c in comps:
            p = _merge_odd(p, c.probability)
        edges.append(GraphEdge(u, v, edge_weight(p),
                               tuple(c.index for c in comps), obs,
                               "normal", None, cut, _partners(comps), open_b))
    for u, v, c in sorted(witnesses, key=lambda t: (t[0], t[1], t[2].index)):
        edges.append(GraphEdge(u, v, edge_weight(c.probability), (c.index,),
                               c.observables, c.role, c.mech_id,
                               c.cut_partners, _partners([c]), c.open_boundary))
    return MatchingGraph(patch, cls, tuple(dets), tuple(edges))


def _partners(comps) -> tuple[tuple[int, float], ...]:
    return tuple((c.partner, c.probability) for c in comps
                 if c.partner is not None)


@dataclass(frozen=True)
class Correction:
    """Edge set explaining one class graph's defects.

    Matched paths combine mod 2, so an edge is either in the correction
    or not; with positive weights the paths of an exact matching share
    no edge anyway, since two paths sharing edge e could be rerouted
    around it for 2 w(e) less.
    """

    edges: tuple[int, ...]        # distinct edge indices, sorted
    weight: float                 # fsum of those edges' weights
    observables: tuple[int, ...]  # observables flipped an odd number of times


def _shortest_paths(graph: MatchingGraph, sources, overrides):
    """Routes from local source nodes: the rows built with the graph, or
    a Dijkstra on reweighted edges; returns (dist, pred, edge per key)."""
    routes = graph.routes
    if overrides:
        mat, best = routes.reweighted(overrides)
        dist, pred = dijkstra(mat, directed=True, indices=sources,
                              return_predecessors=True)
        return dist, pred, best
    return routes.dist[sources], routes.pred[sources], routes.best


def _walk(pred_row, routes, best, src_pos, target):
    """Recover the edge-index path from a dijkstra predecessor row."""
    path = []
    v = target
    while True:
        u = pred_row[v]
        if u < 0:
            raise MatchingError("no path during correction recovery")
        path.append(int(best[routes.key_pos[(min(u, v), max(u, v))]]))
        if u == src_pos:
            return path
        v = u


def _defects(graph: MatchingGraph, syndrome: np.ndarray) -> np.ndarray:
    """Local nodes of the graph's detectors that the syndrome sets."""
    if graph.detectors and len(syndrome) <= graph.detectors[-1]:
        raise MatchingError(f"syndrome of length {len(syndrome)} does not "
                            f"cover detector {graph.detectors[-1]}")
    return np.flatnonzero(syndrome[graph.routes.detectors])


def decode_mwpm(graph: MatchingGraph, syndrome: np.ndarray,
                weight_overrides: dict[int, float] | None = None) -> Correction:
    """Exact minimum-weight matching of this graph's defects.

    The syndrome is a boolean vector over all detectors of the model;
    only this graph's detectors are consulted.  Each defect either pairs
    with another or takes its own path to the boundary, so odd defect
    parity is absorbed by the boundary when reachable.  Pairs routed
    through the boundary are dropped and what stays splits into
    independent components, each matched exactly by `_match`.
    """
    nodes = _defects(graph, syndrome)
    if not len(nodes):
        return Correction((), 0.0, ())
    routes = graph.routes
    dist, pred, best = _shortest_paths(graph, nodes, weight_overrides)
    chosen: set[int] = set()
    for a, b in _match(dist[:, nodes], dist[:, graph.boundary]):
        target = graph.boundary if b is None else nodes[b]
        chosen ^= set(_walk(pred[a], routes, best, nodes[a], target))
    # report true log-likelihood weight even when the optimizer ran on
    # correlation-discounted weights
    total = math.fsum(graph.edges[i].weight for i in chosen)
    flips = np.zeros(graph.boundary + 1, dtype=bool)   # last: the boundary
    obs: set[int] = set()
    for i in chosen:
        e = graph.edges[i]
        flips[e.u] ^= True
        flips[e.v] ^= True
        obs ^= set(e.observables)
    want = np.zeros(graph.boundary, dtype=bool)
    want[nodes] = True
    if not np.array_equal(flips[:-1], want):
        raise MatchingError("correction symptom does not reproduce defects")
    return Correction(tuple(sorted(chosen)), total, tuple(sorted(obs)))


def _match(pair_dist: np.ndarray, boundary_dist: np.ndarray):
    """Minimum-weight matching of k defects as (a, b) with a < b, or
    (a, None) for a boundary leg.

    The boundary is a node of the routing graph, so a pair never costs
    more than its two boundary legs; a pair costing as much is routed
    through the boundary and is dropped.  The boundary takes any number
    of legs, so defects joined by no kept pair never interact: each
    component of kept pairs is solved alone, in closed form for one or
    two defects, else by `_exact_dp`, or by `_blossom` where the DP
    cannot certify its optimum.  One breadth-first walk finds the
    components, each from its lowest defect not yet reached, visiting
    neighbours in ascending order; a component's kept pairs are (a, b)
    with a < b, for a ascending and then b ascending.
    """
    k = len(boundary_dist)
    if k <= 2:                     # one component of two, or singletons
        legs = boundary_dist.tolist()
        if k == 2 and pair_dist[0, 1] < sum(legs) * (1.0 - PRUNE_TOL):
            return [(0, 1)]
        if not all(map(math.isfinite, legs)):
            raise MatchingError("defects cannot be matched (no boundary path)")
        return [(a, None) for a in range(k)]
    legs = boundary_dist[:, None] + boundary_dist[None, :]
    # infinite legs (no boundary path) never drop a pair, and a pair with
    # no path between its defects is never kept
    kept = pair_dist < legs * (1.0 - PRUNE_TOL)
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in np.argwhere(np.triu(kept, 1)).tolist():
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * k
    mate: list[tuple[int, int | None]] = []
    for start in range(k):
        if seen[start]:
            continue
        seen[start] = True
        order = [start]
        for a in order:
            for b in adj[a]:
                if not seen[b]:
                    seen[b] = True
                    order.append(b)
        if len(order) == 2:
            mate.append((start, order[1]))
        elif len(order) == 1:
            if not np.isfinite(boundary_dist[start]):
                raise MatchingError("defects cannot be matched "
                                    "(no boundary path)")
            mate.append((start, None))
        else:
            comp = sorted(order)
            pairs = [(a, b) for a in comp for b in adj[a] if b > a]
            mate.extend(_exact_dp(order, pairs, pair_dist, boundary_dist)
                        or _blossom(comp, pairs, pair_dist, boundary_dist))
    return mate


def _exact_dp(order, pairs, pair_dist, boundary_dist):
    """Exact matching of one component over bitmasks of its free defects,
    each pair as (smaller, larger) defect; ``order`` is the component's
    breadth-first order.

    The lowest free defect either takes its boundary leg or pairs with a
    free kept partner, whichever is cheaper; strict < keeps the first of
    equal moves, the boundary leg before partners in ascending order.
    Up to DP_MAX defects the DP runs over the defects in ascending order
    and always answers.  Above, it runs over the reverse of ``order``,
    which keeps partners close so it meets fewer masks, and it returns
    the matching only when it is the unique optimum, so blossom would
    return it too, and None otherwise: when it would meet more than
    DP_MASKS masks, or when at some mask of the optimum's path a second
    move comes within PRUNE_TOL of the total.  Any other matching leaves
    that path at some mask, so it costs at least the optimum plus that
    mask's gap.
    """
    certify = len(order) > DP_MAX
    comp = order[::-1] if certify else sorted(order)
    m = len(comp)
    local = {a: i for i, a in enumerate(comp)}
    legs = [float(boundary_dist[a]) for a in comp]
    partners: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    for a, b in pairs:
        i, j = local[a], local[b]
        if i > j:
            i, j = j, i
        partners[i].append((1 << j, float(pair_dist[a, b])))
    # optimal cost of each free mask met, and the partner bit its lowest
    # defect takes (0: its boundary leg)
    cost_of = {0: 0.0}
    move_of = {}

    def solve(mask):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        cost, move = math.inf, 0
        if legs[i] < math.inf:
            c = cost_of.get(rest)
            cost = legs[i] + (solve(rest) if c is None else c)
        for bit, w in partners[i]:
            if rest & bit:
                c = cost_of.get(rest ^ bit)
                c = w + (solve(rest ^ bit) if c is None else c)
                if c < cost:
                    cost, move = c, bit
        cost_of[mask] = cost
        move_of[mask] = move
        return cost

    mask = (1 << m) - 1
    if certify:
        # meet every mask first, then solve them smallest first, so the
        # recursion never runs deeper than one call
        met, todo = {0, mask}, [mask]
        while todo:
            sub = todo.pop()
            low = sub & -sub
            rest = sub ^ low
            i = low.bit_length() - 1
            if legs[i] < math.inf and rest not in met:
                met.add(rest)
                todo.append(rest)
            for bit, _ in partners[i]:
                if rest & bit and rest ^ bit not in met:
                    met.add(rest ^ bit)
                    todo.append(rest ^ bit)
            if len(met) > DP_MASKS:
                return None
        for sub in sorted(met)[1:-1]:
            solve(sub)
    if solve(mask) == math.inf:
        raise MatchingError("defects cannot be matched (no boundary path)")
    margin = PRUNE_TOL * cost_of[mask]
    mate = []
    while mask:
        low = mask & -mask
        move = move_of[mask]
        if certify:
            # every other move of the optimum's path costs more by margin
            i = low.bit_length() - 1
            rest = mask ^ low
            other = [w + cost_of[rest ^ bit] for bit, w in partners[i]
                     if rest & bit and bit != move]
            if move and legs[i] < math.inf:
                other.append(legs[i] + cost_of[rest])
            if min(other, default=math.inf) <= cost_of[mask] + margin:
                return None
        a = comp[low.bit_length() - 1]
        b = comp[move.bit_length() - 1] if move else None
        mate.append((a, b) if b is None or a < b else (b, a))
        mask ^= low | move
    return mate


def _blossom(comp, pairs, pair_dist, boundary_dist):
    """Blossom matching of one component, each defect with its own
    boundary copy and the copies joined at zero weight; it runs only
    where `_exact_dp` cannot certify a unique optimum.  Pairs come out
    as (smaller, larger) defects, as the DP's do."""
    m = len(comp)
    local = {a: i for i, a in enumerate(comp)}
    g = nx.Graph()
    g.add_nodes_from(range(2 * m))
    for a, b in pairs:
        g.add_edge(local[a], local[b], weight=pair_dist[a, b])
    for i, a in enumerate(comp):
        for j in range(i + 1, m):
            g.add_edge(m + i, m + j, weight=0.0)
        if np.isfinite(boundary_dist[a]):
            g.add_edge(i, m + i, weight=boundary_dist[a])
    mate = [sorted(pair) for pair in nx.min_weight_matching(g)]
    if sum(i < m for pair in mate for i in pair) != m:
        raise MatchingError("defects cannot be matched (no boundary path)")
    return [(comp[i], None if j >= m else comp[j]) for i, j in mate if i < m]


# the two-pass answer of a patch with no defect on either class graph
_EMPTY = (Correction((), 0.0, ()), Correction((), 0.0, ()))


def decode_correlated_two_pass(
        x_graph: MatchingGraph, z_graph: MatchingGraph, syndrome: np.ndarray,
) -> tuple[Correction, Correction]:
    """Two-pass correlated decode of one patch.

    The first pass decodes both class graphs independently; every
    selected edge with a cross-class partner discounts the partner's
    weight, and a class graph with discounted edges is decoded again.
    The result is remembered for the defects both graphs see; a patch
    whose graphs see none is answered with empty corrections, which is
    what decoding it returns, and is not remembered.
    """
    x_defects = _defects(x_graph, syndrome)
    z_defects = _defects(z_graph, syndrome)
    if not (len(x_defects) or len(z_defects)):
        return _EMPTY
    memo = x_graph.routes.memo
    key = (id(z_graph), x_defects.tobytes(), z_defects.tobytes())
    hit = memo.get(key)
    # an entry holds its Z graph alive, so no other graph can take its id
    if hit is not None:
        return hit[1]
    first_x = decode_mwpm(x_graph, syndrome)
    first_z = decode_mwpm(z_graph, syndrome)
    over_z = _partner_overrides(first_x, x_graph, z_graph)
    over_x = _partner_overrides(first_z, z_graph, x_graph)
    result = (decode_mwpm(x_graph, syndrome, over_x) if over_x else first_x,
              decode_mwpm(z_graph, syndrome, over_z) if over_z else first_z)
    if len(memo) >= MEMO_MAX:
        del memo[next(iter(memo))]
    memo[key] = (z_graph, result)
    return result


def _partner_overrides(corr: Correction, src_graph: MatchingGraph,
                       dst_graph: MatchingGraph) -> dict[int, float]:
    """Discounted weights for the partners of a correction's live edges."""
    trigger: dict[int, float] = {}
    for i in corr.edges:
        for comp, p in src_graph.edges[i].partners:
            target = dst_graph.routes.edge_of_component.get(comp)
            if target is not None:
                trigger[target] = _merge_odd(trigger.get(target, 0.0), p)
    if not trigger:
        return {}
    # parallel partner edges stay ordered by how probable their
    # triggering mechanisms are, all within the epsilon budget; a
    # discount never raises a weight, not even a zero one (p = 0.5)
    eps = CORRELATION_SCALE * dst_graph.routes.min_weight
    return {target: min(dst_graph.edges[target].weight, eps * (1.0 - p))
            for target, p in trigger.items()}

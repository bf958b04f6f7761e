"""Minimum-weight matching on class graphs and correlated reweighting."""

import dataclasses
import hashlib
import itertools
import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from ghostdec import matching
from ghostdec.builders import (NoiseParams, apply_noise_model, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import (DetectorErrorModel, ErrorMechanism, extract_dem,
                          sample_dem)
from ghostdec.ghost import build_protocol_graphs, run_ghost_protocol
from ghostdec.matching import (CORRELATION_SCALE, DP_MASKS, DP_MAX, MatchingError,
                               MatchingGraph, GraphEdge,
                               _blossom, _exact_dp, _match, _partner_overrides,
                               _shortest_paths, build_matching_graph,
                               decode_correlated_two_pass, decode_mwpm,
                               edge_weight)
from ghostdec.patience import patience_delay, plan_patience
from ghostdec.verify import brute_force_ml_decode
from ghostdec.windows import WindowConfig, plan_tproxy_windows


def class_components(dec, patch, cls):
    return [c for c in dec.components if (c.patch, c.cls) == (patch, cls)]


def class_graph(dec, patch, cls):
    """The class graph, as every pass of the ghost protocol decodes it."""
    return build_matching_graph(patch, cls, class_components(dec, patch, cls))


def memory_model(d=3, rounds=2, p=0.002):
    """A one-patch (patch 0) memory model."""
    dem = extract_dem(apply_noise_model(build_memory_circuit(d, rounds),
                                        NoiseParams(p)))
    return dem, ghost_decompose(dem)


def tproxy_model(d=3, n=1, p=0.001, extra_rounds=0):
    """A teleportation-proxy model and its patch ids."""
    dem = extract_dem(apply_noise_model(
        build_tproxy_circuit(d, n, extra_rounds=extra_rounds), NoiseParams(p)))
    return dem, ghost_decompose(dem), sorted(set(dem.detector_patch))


# -- weights ---------------------------------------------------------------------

def test_edge_weight_formula():
    assert edge_weight(0.5) == 0.0
    assert edge_weight(0.01) == pytest.approx(math.log(99.0))


@pytest.mark.parametrize("p", [0.0, -0.1, 0.500001, 1.0])
def test_edge_weight_rejects_out_of_range(p):
    with pytest.raises(MatchingError):
        edge_weight(p)


# -- graph construction ------------------------------------------------------------

def test_parallel_normal_edges_merge():
    dem, dec = memory_model()
    g = class_graph(dec, 0, "Z")
    seen = set()
    for e in g.edges:
        if e.role == "normal":
            open_b = dec.components[e.components[0]].open_boundary
            key = (e.u, e.v, e.observables, open_b, e.cut_partners)
            assert key not in seen
            seen.add(key)


def test_merged_probability_is_odd_combination():
    dem, dec = memory_model()
    g = class_graph(dec, 0, "Z")
    assert any(len(e.components) > 1 for e in g.edges)
    for e in g.edges:
        if e.role != "normal":
            continue
        p = 0.0
        for ci in e.components:
            q = dec.components[ci].probability
            p = p * (1.0 - q) + q * (1.0 - p)
        assert e.weight == pytest.approx(edge_weight(p), rel=1e-12)


def test_ghost_singletons_get_no_edge():
    dem, dec, patches = tproxy_model()
    singletons = 0
    for patch in patches:
        for cls in ("X", "Z"):
            g = class_graph(dec, patch, cls)
            comps = class_components(dec, patch, cls)
            assert not any(e.role == "ghost_s" for e in g.edges)
            singletons += sum(c.role == "ghost_s" for c in comps)
            # each ghost witness is an edge of its own, even when parallel
            witnesses = [e for e in g.edges if e.role != "normal"]
            assert all(len(e.components) == 1 for e in witnesses)
            assert sorted(e.components[0] for e in witnesses) == [
                c.index for c in comps if c.role == "ghost_e"]
    assert singletons


def test_class_nodes_cover_hidden_edges():
    # a detector whose only components are ghost singletons, which get
    # no edge, must still be a node so a defect there fails loudly
    # instead of vanishing
    dem, dec, patches = tproxy_model()
    for patch in patches:
        for cls in ("X", "Z"):
            g = class_graph(dec, patch, cls)
            want = {t for c in class_components(dec, patch, cls)
                    for t in c.detectors}
            assert set(g.detectors) == want
    # on the built circuits every ghost-singleton detector has other
    # edges too, so a hand-made model gives one none: detector 0 of
    # patch 0 is the singleton of the witness (1, 2) on patch 1
    lone = DetectorErrorModel((ErrorMechanism(0.01, (0, 1, 2), ()),
                               ErrorMechanism(0.01, (1,), ())),
                              3, 0, (0, 1, 1), (0, 0, 0), ("Z",) * 3, ())
    dec = ghost_decompose(lone)
    assert [c.role for c in dec.components] == ["ghost_s", "ghost_e",
                                                "normal"]
    g = class_graph(dec, 0, "Z")
    assert (g.detectors, g.edges) == ((0,), ())
    with pytest.raises(MatchingError, match="no boundary path"):
        decode_mwpm(g, np.array([True, False, False]))


# -- decoding against brute force ---------------------------------------------------

def brute_min_weight(graph, defect_nodes, cap=4):
    best = None
    for k in range(cap + 1):
        for combo in itertools.combinations(range(len(graph.edges)), k):
            flips = [0] * graph.boundary
            w = 0.0
            for ei in combo:
                e = graph.edges[ei]
                if e.u < graph.boundary:
                    flips[e.u] ^= 1
                if e.v < graph.boundary:
                    flips[e.v] ^= 1
                w += e.weight
            want = [1 if i in defect_nodes else 0 for i in range(graph.boundary)]
            if flips == want and (best is None or w < best - 1e-12):
                best = w
    return best


def test_decoder_matches_exhaustive_search():
    dem, dec = memory_model(rounds=1)
    g = class_graph(dec, 0, "Z")
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(40):
        k = rng.integers(1, 4)
        defects = sorted(rng.choice(len(g.detectors), size=k, replace=False))
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        for i in defects:
            syndrome[g.detectors[i]] = True
        corr = decode_mwpm(g, syndrome)
        expect = brute_min_weight(g, set(defects))
        assert expect is not None
        assert corr.weight == pytest.approx(expect, rel=1e-9)
        checked += 1
    assert checked == 40


def test_correction_reproduces_its_defects():
    dem, dec, patches = tproxy_model()
    rng = np.random.default_rng(11)
    for patch in patches:
        for cls in ("X", "Z"):
            g = class_graph(dec, patch, cls)
            for _ in range(25):
                k = int(rng.integers(0, 5))
                picks = rng.choice(len(g.detectors), size=min(k, len(g.detectors)),
                                   replace=False)
                syndrome = np.zeros(dem.detector_count, dtype=bool)
                for i in picks:
                    syndrome[g.detectors[i]] = True
                corr = decode_mwpm(g, syndrome)
                # the edges flip exactly the picked detectors, mod 2
                hits = Counter(n for i in corr.edges
                               for n in (g.edges[i].u, g.edges[i].v))
                odd = {n for n, c in hits.items() if c % 2 and n < g.boundary}
                assert odd == set(picks.tolist())


def test_empty_syndrome_returns_empty_correction():
    dem, dec = memory_model()
    g = class_graph(dec, 0, "Z")
    corr = decode_mwpm(g, np.zeros(dem.detector_count, dtype=bool))
    assert corr.edges == ()
    assert corr.weight == 0.0
    # a vector too short for the graph's detectors is an error, not empty,
    # also once the memo holds the empty answer
    with pytest.raises(MatchingError):
        decode_mwpm(g, np.zeros(3, dtype=bool))
    gx = class_graph(dec, 0, "X")
    decode_correlated_two_pass(gx, g, np.zeros(dem.detector_count, dtype=bool))
    with pytest.raises(MatchingError):
        decode_correlated_two_pass(gx, g, np.zeros(3, dtype=bool))


def test_isolated_defect_raises():
    g = MatchingGraph(0, "Z", detectors=(0, 1),
                      edges=(GraphEdge(0, 2, 1.0, (0,), (), "normal", None),))
    syndrome = np.array([False, True, False])
    with pytest.raises(MatchingError, match="no boundary path"):
        decode_mwpm(g, syndrome)


def test_decoding_is_deterministic():
    dem, dec = memory_model()
    g = class_graph(dec, 0, "Z")
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    for t in g.detectors[:4]:
        syndrome[t] = True
    ref = decode_mwpm(g, syndrome)
    for _ in range(5):
        assert decode_mwpm(g, syndrome) == ref


# -- correlated two-pass ------------------------------------------------------------

def test_cross_class_mechanisms_decode_to_ml():
    dem, dec, patches = tproxy_model()
    gx = class_graph(dec, patches[0], "X")
    gz = class_graph(dec, patches[0], "Z")
    scope = set(gx.detectors) | set(gz.detectors)
    cases = 0
    for m in dem.mechanisms:
        classes = {dem.detector_class[t] for t in m.detectors}
        if classes != {"X", "Z"} or not set(m.detectors) <= scope:
            continue
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        for t in m.detectors:
            syndrome[t] = True
        cx, cz = decode_correlated_two_pass(gx, gz, syndrome)
        got = tuple(sorted(set(cx.observables) ^ set(cz.observables)))
        ml = brute_force_ml_decode(dem, frozenset(m.detectors), weight_cap=3)
        assert got == ml.observables
        cases += 1
    assert cases > 10


def test_two_pass_reduces_to_single_pass_without_partners():
    dem, dec = memory_model(rounds=2)
    # strip partner links so no reweighting can trigger
    gx = class_graph(dec, 0, "X")
    gz = class_graph(dec, 0, "Z")
    bare_x, bare_z = (
        dataclasses.replace(g, edges=tuple(dataclasses.replace(e, partners=())
                                           for e in g.edges))
        for g in (gx, gz))
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    syndrome[gx.detectors[0]] = True
    syndrome[gz.detectors[0]] = True
    cx, cz = decode_correlated_two_pass(bare_x, bare_z, syndrome)
    assert cx == decode_mwpm(bare_x, syndrome)
    assert cz == decode_mwpm(bare_z, syndrome)


def test_reported_weight_ignores_discounts():
    dem, dec, patches = tproxy_model()
    gx = class_graph(dec, patches[0], "X")
    gz = class_graph(dec, patches[0], "Z")
    cross = next(m for m in dem.mechanisms
                 if {dem.detector_class[t] for t in m.detectors} == {"X", "Z"}
                 and {dem.detector_patch[t] for t in m.detectors} == {0})
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    for t in cross.detectors:
        syndrome[t] = True
    cx, cz = decode_correlated_two_pass(gx, gz, syndrome)
    for corr, g in ((cx, gx), (cz, gz)):
        assert corr.weight == pytest.approx(
            sum(g.edges[i].weight for i in corr.edges))


def test_graph_data_alone_reproduces_correlated_decodes():
    dem, dec, patches = tproxy_model()
    gx = class_graph(dec, patches[0], "X")
    gz = class_graph(dec, patches[0], "Z")
    assert "routes" not in vars(gx)        # built on first decode only
    rebuilt = [MatchingGraph(g.patch, g.cls, g.detectors, g.edges)
               for g in (gx, gz)]
    scope = set(gx.detectors) | set(gz.detectors)
    reweighted = 0
    for m in dem.mechanisms:
        if ({dem.detector_class[t] for t in m.detectors} != {"X", "Z"}
                or not set(m.detectors) <= scope):
            continue
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        syndrome[list(m.detectors)] = True
        got = decode_correlated_two_pass(gx, gz, syndrome)
        assert decode_correlated_two_pass(*rebuilt, syndrome) == got
        reweighted += got != (decode_mwpm(gx, syndrome),
                              decode_mwpm(gz, syndrome))
    assert reweighted > 0
    assert gx.routes is gx.routes


def test_memo_tells_z_graphs_apart():
    # one X graph decoded beside two Z graphs of the same detectors gets
    # each pair's own answer, the answer of fresh copies
    dem, dec, patches = tproxy_model()
    gx = class_graph(dec, patches[0], "X")
    gz = class_graph(dec, patches[0], "Z")
    heavier = dataclasses.replace(gz, edges=tuple(
        dataclasses.replace(e, weight=e.weight * (1 + i % 3))
        for i, e in enumerate(gz.edges)))
    rng = np.random.default_rng(11)
    differ = 0
    for _ in range(60):
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        syndrome[rng.choice(gx.detectors + gz.detectors, size=4,
                            replace=False)] = True
        got = {}
        for z in (gz, heavier, gz):
            got[id(z)] = decode_correlated_two_pass(gx, z, syndrome)
            assert got[id(z)] == decode_correlated_two_pass(
                dataclasses.replace(gx), dataclasses.replace(z), syndrome)
        differ += got[id(gz)] != got[id(heavier)]
    assert differ > 30


def test_overrides_pick_parallel_edges_like_a_full_rebuild():
    dem, dec = tproxy_model(d=5, n=2)[:2]
    plan = plan_tproxy_windows(dec, WindowConfig())
    graphs = {id(g): g for w in plan.windows for g in w.graphs.values()}
    rng = np.random.default_rng(7)
    parallel = 0
    for g in graphs.values():
        routes = g.routes
        by_key: dict = {}
        for i, e in enumerate(g.edges):
            by_key.setdefault((e.u, e.v), []).append(i)
        parallel += sum(len(es) > 1 for es in by_key.values())
        for _ in range(5):
            picks = rng.choice(len(g.edges), size=len(g.edges) // 4,
                               replace=False)
            # few distinct values, so discounted parallel edges tie
            eps = 0.01 * routes.min_weight
            over = {int(i): float(eps * rng.integers(1, 3)) for i in picks}
            mat, best = routes.reweighted(over)
            dense = mat.toarray()
            for (u, v), ids in by_key.items():
                want = min(ids, key=lambda i: (over.get(i, g.edges[i].weight),
                                               g.edges[i].weight, i))
                assert best[routes.key_pos[u, v]] == want
                w = over.get(want, g.edges[want].weight)
                assert dense[u, v] == dense[v, u] == w
    # the distinct window graphs hold 245 parallel keys
    assert len(graphs) == 10 and parallel > 200


def test_defect_free_patches_are_answered_before_the_memo(monkeypatch):
    # a patch whose two class graphs see no defect is decoded by neither,
    # and its answer is not remembered
    dem, dec, patches = tproxy_model()
    gx = class_graph(dec, patches[0], "X")
    gz = class_graph(dec, patches[0], "Z")
    elsewhere = [t for t in range(dem.detector_count)
                 if t not in set(gx.detectors) | set(gz.detectors)]
    calls = []
    decode = matching.decode_mwpm

    def counted(*args):
        calls.append(args[0])
        return decode(*args)

    monkeypatch.setattr(matching, "decode_mwpm", counted)
    empty = matching.Correction((), 0.0, ())
    for dets in ((), elsewhere[:1], elsewhere):
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        syndrome[list(dets)] = True
        assert decode_correlated_two_pass(gx, gz, syndrome) == (empty, empty)
        assert not calls and gx.routes.memo == {}
    # a too-short syndrome still fails before any answer
    with pytest.raises(MatchingError):
        decode_correlated_two_pass(gx, gz, np.zeros(3, dtype=bool))
    syndrome[gz.detectors[0]] = True
    decode_correlated_two_pass(gx, gz, syndrome)
    assert calls and len(gx.routes.memo) == 1


def test_reweighted_decodes_share_one_scratch_matrix():
    # one graph's reweighted decodes write one matrix in turn; no weight
    # of one decode leaks into the next, nor into the base routes
    dem, dec, patches = tproxy_model()
    g = class_graph(dec, patches[0], "X")
    routes = g.routes
    dist, pred = routes.dist.copy(), routes.pred.copy()
    eps = CORRELATION_SCALE * routes.min_weight
    rng = np.random.default_rng(5)
    moved = 0
    for _ in range(40):
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        syndrome[rng.choice(g.detectors, size=4, replace=False)] = True
        a, b = ({int(i): eps for i in rng.choice(len(g.edges),
                                                  size=len(g.edges) // 4,
                                                  replace=False)}
                for _ in range(2))
        got = [decode_mwpm(g, syndrome, over) for over in (a, b, None)]
        assert got == [decode_mwpm(dataclasses.replace(g), syndrome, over)
                       for over in (a, b, None)]
        moved += got[0] != got[2] and got[1] != got[0]
        assert routes.reweighted(a)[0] is routes.reweighted(b)[0] \
            is routes.scratch
    assert np.array_equal(routes.dist, dist)
    assert np.array_equal(routes.pred, pred)
    assert moved >= 10


# -- pruned, split matching against one blossom over every defect --------------------

def full_graph_objective(graph, syndrome, overrides=None):
    """Optimum of one blossom over every defect, each with a boundary copy,
    the copies joined at zero weight; None when no matching exists."""
    nodes = [i for i, d in enumerate(graph.detectors) if syndrome[d]]
    dist = _shortest_paths(graph, nodes, overrides)[0]
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
    mate = [(min(a, b), max(a, b)) for a, b in nx.min_weight_matching(g)]
    if sum(a < k for pair in mate for a in pair) != k:
        return None
    return math.fsum(dist[a, graph.boundary if b >= k else nodes[b]]
                     for a, b in mate if a < k)


def matched_objective(graph, corr, overrides=None):
    """The optimizer's weight of a correction: its edges' routing weights."""
    over = overrides or {}
    return math.fsum(over.get(i, graph.edges[i].weight) for i in corr.edges)


def assert_reproduces(graph, corr, syndrome):
    flips = np.zeros(graph.boundary + 1, dtype=int)
    for i in corr.edges:
        flips[graph.edges[i].u] ^= 1
        flips[graph.edges[i].v] ^= 1
    assert [graph.detectors[v] for v in np.flatnonzero(flips[:-1])] == \
        [d for d in graph.detectors if syndrome[d]]


def count_blossoms(monkeypatch):
    calls = []
    blossom = nx.min_weight_matching

    def counted(g, *args, **kwargs):
        calls.append(g.number_of_nodes())
        return blossom(g, *args, **kwargs)
    monkeypatch.setattr(nx, "min_weight_matching", counted)
    return calls


def watch_certificates(monkeypatch):
    """Each call of the DP that `_match` makes on a component above
    DP_MAX, where it certifies, as (its arguments, its matching or None)."""
    calls = []
    dp = matching._exact_dp

    def watched(*args):
        mate = dp(*args)
        if len(args[0]) > DP_MAX:
            calls.append((args, mate))
        return mate
    monkeypatch.setattr(matching, "_exact_dp", watched)
    return calls


def test_split_matching_has_the_full_graph_optimum(monkeypatch):
    dem, dec = memory_model(d=7, rounds=7, p=5e-3)
    gx, gz = class_graph(dec, 0, "X"), class_graph(dec, 0, "Z")
    rng = np.random.default_rng(9)
    blossoms = count_blossoms(monkeypatch)
    certificates = watch_certificates(monkeypatch)
    split_nodes = full_nodes = overridden = certified = 0
    for _ in range(100):
        syndrome = np.zeros(dem.detector_count, dtype=bool)
        for g in (gx, gz):
            k = int(rng.integers(4, 26))
            syndrome[list(rng.choice(g.detectors, size=k, replace=False))] = True
        first = {g.cls: decode_mwpm(g, syndrome) for g in (gx, gz)}
        overrides = {"X": _partner_overrides(first["Z"], gz, gx),
                     "Z": _partner_overrides(first["X"], gx, gz)}
        for g in (gx, gz):
            for over in (None, overrides[g.cls]):
                blossoms.clear()
                certificates.clear()
                corr = decode_mwpm(g, syndrome, over)
                split_nodes += sum(blossoms)
                # a component above DP_MAX reaches blossom only where the
                # DP gives up, and a certified matching is blossom's own,
                # pair for pair and in the same orientation
                assert blossoms == [2 * len(args[0])
                                    for args, mate in certificates
                                    if mate is None]
                for (order, *args), mate in certificates:
                    if mate is not None:
                        assert set(mate) == set(_blossom(sorted(order),
                                                         *args))
                        certified += 1
                assert_reproduces(g, corr, syndrome)
                assert list(corr.edges) == sorted(set(corr.edges))
                assert corr.weight == math.fsum(g.edges[i].weight
                                                for i in corr.edges)
                blossoms.clear()
                want = full_graph_objective(g, syndrome, over)
                full_nodes += sum(blossoms)
                assert matched_objective(g, corr, over) == pytest.approx(
                    want, rel=1e-9)
                overridden += bool(over)
    assert overridden > 150
    # some components above DP_MAX are certified and some still reach
    # blossom, on fewer nodes than one blossom over every defect
    assert certified > 0
    assert 0 < split_nodes < full_nodes


def test_memory_d7_matchings_are_pinned(monkeypatch):
    # recorded matchings of every `_match` call over 300 memory d=7
    # shots: each call's pairs, sorted, as (smaller, larger) or (a, None).
    # A tie resolved the other way moves this digest even where it flips
    # no observable, so no decision digest would see it
    dem = extract_dem(apply_noise_model(build_memory_circuit(7, 7),
                                        NoiseParams(5e-3)))
    dec = ghost_decompose(dem)
    graphs = build_protocol_graphs(dec)
    blossoms = count_blossoms(monkeypatch)
    dp_calls = []
    dp, match = matching._exact_dp, matching._match

    def watched_dp(order, pairs, *args):
        dp_calls.append((order, pairs))
        return dp(order, pairs, *args)

    mates = []

    def watched_match(pair_dist, boundary_dist):
        mate = match(pair_dist, boundary_dist)
        mates.append(sorted(mate))
        return mate
    monkeypatch.setattr(matching, "_exact_dp", watched_dp)
    monkeypatch.setattr(matching, "_match", watched_match)
    dets, _ = sample_dem(dem, seed=1, shots=300)
    for s in range(300):
        run_ghost_protocol(dec, dets[s], graphs=graphs)
    # the shots reach every solver: the DP below and above DP_MAX, and
    # blossom where the DP above DP_MAX gives up; the DP gets each
    # component in the order of one breadth-first walk from its lowest
    # defect, which sets the masks it meets above DP_MAX
    assert len(mates) == 1196
    assert sum(len(order) > DP_MAX for order, _ in dp_calls) == 35
    assert len(blossoms) == 5
    assert all(order == breadth_first(pairs, min(order))
               for order, pairs in dp_calls)
    digest = hashlib.sha256(repr(mates).encode()).hexdigest()[:16]
    assert digest == "8d1692cee325649c"


def patience_graph_sets():
    """The global graphs and every window graph of a tproxy d=5, 2-gate
    patience plan, each set with the model its components index."""
    dem, dec, _ = tproxy_model(d=5, n=2,
                               extra_rounds=patience_delay(5, 1))
    plan = plan_patience(dec, WindowConfig(), 5)
    windows = plan.base.windows + plan.extended
    return dec, [(dec, build_protocol_graphs(dec))] + [
        (w.decomposed, w.graphs) for w in windows]


def test_views_are_cached_and_drop_only_their_edges():
    dec, sets = patience_graph_sets()
    dropped = Counter()
    for model, graphs in sets:
        by_index = {c.index: c for c in model.components}
        for g in graphs.values():
            view = g.closed
            assert g.closed is view
            kept = [e for e in g.edges if not e.open_boundary]
            assert list(map(id, view.edges)) == list(map(id, kept))
            assert (view is g) == (len(kept) == len(g.edges))
            assert (view.patch, view.cls, view.detectors) == (
                g.patch, g.cls, g.detectors)
            dropped[model is dec] += view is not g
            for i, e in enumerate(g.edges):
                for c in e.components:
                    assert (g.edge_detectors(i)
                            == by_index[c].detectors)
    # the uncut model opens nothing; every cut opens something
    assert not dropped[True] and dropped[False]


def test_no_decoded_graph_holds_a_ghost_singleton():
    # every graph the protocol or the complementary herald decodes keeps
    # its class's ghost-singleton detectors as nodes, but no g_s edge
    dec, sets = patience_graph_sets()
    singletons = Counter()
    for model, graphs in sets:
        for (patch, cls), g in graphs.items():
            for view in (g, g.closed):
                assert all(e.role != "ghost_s" for e in view.edges)
            gs = {d for c in model.components if c.role == "ghost_s"
                  and (c.patch, c.cls) == (patch, cls) for d in c.detectors}
            assert gs <= set(g.detectors)
            singletons[model is dec] += len(gs)
    assert singletons[True] and singletons[False]


def closed_graphs(plan):
    """The distinct closed-boundary graphs that the complementary herald
    decodes and have detectors."""
    return {id(g.closed): g.closed for w in plan.base.windows
            for g in w.graphs.values() if g.detectors}.values()


@pytest.mark.parametrize("d", [3, 5])
def test_closed_graphs_keep_a_boundary_path_from_every_detector(d):
    # closing the temporal cut keeps every spatial boundary edge, so the
    # complementary herald's closed decode can always match its defects
    config = WindowConfig()
    dec = tproxy_model(d=d, n=2,
                       extra_rounds=patience_delay(d, config.n_buf))[1]
    closed = closed_graphs(plan_patience(dec, config, d))
    assert len(closed) > 4
    for g in closed:
        assert np.isfinite(g.routes.dist[:, g.boundary]).all()


def test_closed_graphs_fail_exactly_where_the_full_graph_does():
    # the closed graphs always reach the boundary, so the same graphs
    # without boundary edges supply the syndromes that cannot be matched
    dem, dec, _ = tproxy_model(d=3, n=2)
    closed = closed_graphs(plan_patience(dec, WindowConfig(), 3))
    rng = np.random.default_rng(3)
    outcomes = Counter()
    for g in closed:
        walled = dataclasses.replace(g, edges=tuple(
            e for e in g.edges if e.v != g.boundary))
        for graph in (g, walled):
            for _ in range(20):
                k = min(int(rng.integers(1, 7)), len(g.detectors))
                syndrome = np.zeros(dem.detector_count, dtype=bool)
                syndrome[list(rng.choice(g.detectors, size=k,
                                         replace=False))] = True
                want = full_graph_objective(graph, syndrome)
                if want is None:
                    with pytest.raises(MatchingError):
                        decode_mwpm(graph, syndrome)
                else:
                    corr = decode_mwpm(graph, syndrome)
                    assert matched_objective(graph, corr) == pytest.approx(
                        want, rel=1e-9)
                outcomes[graph is walled, want is None] += 1
    assert outcomes[False, True] == 0
    assert outcomes[True, True] > 50 and outcomes[True, False] > 50


# -- the closed-form rules on hand-made graphs ---------------------------------------

def chain_graph(boundary_weight):
    """Detectors 0-1-2 in a chain of weight-1 edges; when boundary_weight is
    not None, 0 reaches the boundary (3) flipping observable 0, and 2
    reaches it flipping observable 1."""
    edges = [GraphEdge(0, 1, 1.0, (0,), (), "normal", None),
             GraphEdge(1, 2, 1.0, (1,), (), "normal", None)]
    if boundary_weight is not None:
        edges += [GraphEdge(0, 3, boundary_weight, (2,), (0,), "normal", None),
                  GraphEdge(2, 3, boundary_weight, (3,), (1,), "normal", None)]
    return MatchingGraph(0, "Z", (0, 1, 2), tuple(edges))


def no_blossom(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form components need no blossom")
    monkeypatch.setattr(nx, "min_weight_matching", refuse)


def test_lone_defect_goes_to_the_boundary(monkeypatch):
    no_blossom(monkeypatch)
    corr = decode_mwpm(chain_graph(1.0), np.array([True, False, False]))
    assert (corr.edges, corr.observables, corr.weight) == ((2,), (0,), 1.0)


def test_close_pair_is_matched_together(monkeypatch):
    no_blossom(monkeypatch)
    corr = decode_mwpm(chain_graph(5.0), np.array([True, True, False]))
    assert (corr.edges, corr.observables, corr.weight) == ((0,), (), 1.0)


def test_pair_routed_through_the_boundary_takes_two_legs(monkeypatch):
    # the shortest path from 0 to 2 runs through the boundary, so the
    # pair is dropped and each defect takes its own leg: the same edges
    # and observables as the path through the boundary node
    g = chain_graph(0.75)
    from0, from2 = _shortest_paths(g, [0, 2], None)[0]
    assert from0[2] == from0[3] + from2[3] == 1.5
    no_blossom(monkeypatch)
    corr = decode_mwpm(g, np.array([True, False, True]))
    assert (corr.edges, corr.observables, corr.weight) == ((2, 3), (0, 1), 1.5)


def test_pairs_through_the_boundary_do_not_join_components(monkeypatch):
    # two close pairs whose cross pairs all route through the boundary:
    # two closed-form components, not one component of four
    edges = [GraphEdge(0, 1, 1.0, (0,), (), "normal", None),
             GraphEdge(2, 3, 1.0, (1,), (), "normal", None)]
    edges += [GraphEdge(v, 4, 2.0, (2 + v,), (0,), "normal", None)
              for v in range(4)]
    g = MatchingGraph(0, "Z", (0, 1, 2, 3), tuple(edges))
    no_blossom(monkeypatch)
    corr = decode_mwpm(g, np.ones(4, dtype=bool))
    assert (corr.edges, corr.observables, corr.weight) == ((0, 1), (), 2.0)


def test_closed_boundary_odd_component_raises(monkeypatch):
    g = chain_graph(None)
    no_blossom(monkeypatch)
    for defects in ([True, False, False], [True, True, True]):
        with pytest.raises(MatchingError, match="no boundary path"):
            decode_mwpm(g, np.array(defects))
    # an even pair needs no boundary; it matches along the chain
    corr = decode_mwpm(g, np.array([True, False, True]))
    assert (corr.edges, corr.observables, corr.weight) == ((0, 1), (), 2.0)
    # a sparse odd closed component above DP_MAX raises from the
    # certifying DP, which proves no matching exists
    n = DP_MAX + 1 + DP_MAX % 2
    ring = ring_distances(n)
    with pytest.raises(MatchingError, match="no boundary path"):
        _match(ring, np.full(n, np.inf))
    # closed legs keep every pair of a connected graph, so the smallest
    # odd closed chain above DP_MAX is a complete component: it meets more
    # than DP_MASKS masks and raises through blossom
    monkeypatch.undo()
    chain = MatchingGraph(0, "Z", tuple(range(n)), tuple(
        GraphEdge(v, v + 1, 1.0, (v,), (), "normal", None)
        for v in range(n - 1)))
    blossoms = count_blossoms(monkeypatch)
    with pytest.raises(MatchingError, match="no boundary path"):
        decode_mwpm(chain, np.ones(n, dtype=bool))
    assert blossoms == [2 * n]


def ring_distances(n, rng=None):
    """Pair distances of n defects in a ring: neighbours at 1.0 (or at
    random weights from ``rng``), every other pair unreachable."""
    pair_dist = np.full((n, n), np.inf)
    for a in range(n):
        b = (a + 1) % n
        pair_dist[a, b] = pair_dist[b, a] = 1.0 if rng is None else \
            rng.uniform(0.5, 1.5)
    return pair_dist


def padded_match(pair_dist, legs):
    """``_match`` of the same defects beside a third one that joins no
    pair, so the general component split solves them."""
    k = len(legs)
    full = np.full((k + 1, k + 1), np.inf)
    full[:k, :k] = pair_dist
    mate = _match(full, np.append(legs, 0.0))
    assert (k, None) in mate
    return [m for m in mate if m != (k, None)]


def test_one_or_two_defects_match_in_closed_form():
    rng = np.random.default_rng(17)
    cases = [(np.zeros((1, 1)), np.array([2.0])),
             (np.zeros((1, 1)), np.array([np.inf])),
             # a pair costing exactly its legs is dropped; just below, kept
             (np.array([[0, 3.0], [3.0, 0]]), np.array([1.0, 2.0])),
             (np.array([[0, 3.0 * (1 - 2e-9)], [3.0, 0]]), np.array([1.0, 2.0])),
             (np.array([[0, 5.0], [5.0, 0]]), np.array([np.inf, 1.0])),
             (np.array([[0, np.inf], [np.inf, 0]]), np.array([np.inf, 1.0])),
             (np.array([[0, np.inf], [np.inf, 0]]), np.array([2.0, 1.0]))]
    for _ in range(200):
        d = rng.uniform(0, 4, size=(2, 2))
        cases.append((d, rng.uniform(0, 3, size=2)))
    kept = raised = 0
    for pair_dist, legs in cases:
        try:
            want = padded_match(pair_dist, legs)
        except MatchingError:
            raised += 1
            with pytest.raises(MatchingError, match="no boundary path"):
                _match(pair_dist, legs)
            continue
        got = _match(pair_dist, legs)
        assert got == want, (pair_dist, legs)
        kept += (0, 1) in got
    assert raised == 2 and 50 < kept < len(cases) - 50


def test_a_partner_discount_never_raises_a_weight():
    # the X edge's mechanism has Z partners of p = 0.5 (weight 0) and
    # p = 0.25; only the second is discounted below its weight
    gx = MatchingGraph(0, "X", (0,), (GraphEdge(
        0, 1, 1.0, (0,), (), "normal", None,
        partners=((1, 0.5), (2, 0.25))),))
    gz = MatchingGraph(0, "Z", (1, 2), (
        GraphEdge(0, 2, edge_weight(0.5), (1,), (), "normal", None),
        GraphEdge(1, 2, edge_weight(0.25), (2,), (), "normal", None),
        GraphEdge(0, 1, 4.0, (3,), (), "normal", None)))
    assert gz.edges[0].weight == 0.0
    over = _partner_overrides(decode_mwpm(gx, np.array([True, False, False])),
                              gx, gz)
    eps = CORRELATION_SCALE * edge_weight(0.25)
    assert over == {0: 0.0, 1: pytest.approx(eps * 0.75)}
    assert all(w <= gz.edges[i].weight for i, w in over.items())


# -- the exact DP against blossom on random components -------------------------------

def random_component(m, rng, complete, closed, band=None):
    """(pair_dist, boundary_dist, kept pairs) of m defects joined into one
    component by kept pairs: every pair, or a random path plus a few more.
    With ``band`` the path runs in defect order and the others join
    defects at most ``band`` apart, as in a component whose defects are
    numbered along the lattice.  Every boundary leg is infinite when
    closed, else about a fifth."""
    legs = rng.uniform(2.0, 6.0, m)
    legs[closed | (rng.random(m) < 0.2)] = np.inf
    kept = np.ones((m, m), dtype=bool) if complete else rng.random((m, m)) < 0.1
    order = rng.permutation(m)
    if band is not None:
        order = np.arange(m)
        kept &= abs(order[:, None] - order[None, :]) <= band
    kept[order[:-1], order[1:]] = True
    kept = np.triu(kept | kept.T, 1)
    both = legs[:, None] + legs[None, :]
    pair_dist = np.where(kept, rng.uniform(0.3, 0.98, (m, m))
                         * np.minimum(both, 12.0), both)
    pair_dist = np.triu(pair_dist, 1) + np.triu(pair_dist, 1).T
    return pair_dist, legs, np.argwhere(kept).tolist()


def breadth_first(pairs, start=0):
    """The order in which `_match` walks the component of ``start``, its
    lowest defect, joined by ``pairs``: breadth first, neighbours
    ascending."""
    order = [start]
    for a in order:
        order += sorted({b for p in pairs if a in p for b in p} - {a}
                        - set(order))
    return order


def solved_objective(solve, pairs, pair_dist, legs):
    """A solver's objective on one whole component, None when it raises
    "no boundary path"; each defect is matched once, over kept pairs or
    finite legs."""
    try:
        mate = solve(list(range(len(legs))), pairs, pair_dist, legs)
    except MatchingError as exc:
        assert "no boundary path" in str(exc)
        return None
    assert sorted(d for a, b in mate for d in (a, b) if d is not None) == \
        list(range(len(legs)))
    assert all([a, b] in pairs for a, b in mate if b is not None)
    return math.fsum(legs[a] if b is None else pair_dist[a, b]
                     for a, b in mate)


def walked_dp(_, pairs, pair_dist, legs):
    """`_exact_dp` of one whole component, in the order `_match` walks it."""
    return _exact_dp(breadth_first(pairs), pairs, pair_dist, legs)


def dp_matching(pairs, pair_dist, legs):
    """The DP's matching of one whole component, None when it gives up
    (above DP_MAX defects only), True when it proves no matching exists."""
    try:
        return walked_dp(None, pairs, pair_dist, legs)
    except MatchingError as exc:
        assert "no boundary path" in str(exc)
        return True


@pytest.mark.parametrize("m", range(3, DP_MAX + 3))
def test_exact_dp_has_the_blossom_optimum(monkeypatch, m):
    rng = np.random.default_rng(m)
    blossoms = count_blossoms(monkeypatch)
    infeasible = 0
    gave_up = {False: 0, True: 0}
    for complete in (False, True):
        for closed in (False, False, False, True):
            pair_dist, legs, pairs = random_component(m, rng, complete, closed)
            want = solved_objective(_blossom, pairs, pair_dist, legs)
            infeasible += want is None
            # the DP gives up only above DP_MAX, where it certifies, and
            # through _match the component reaches blossom only there
            falls_back = dp_matching(pairs, pair_dist, legs) is None
            assert m > DP_MAX or not falls_back
            solvers = [] if falls_back else [walked_dp]
            for solve in solvers + [lambda *_: _match(pair_dist, legs)]:
                blossoms.clear()
                got = solved_objective(solve, pairs, pair_dist, legs)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == pytest.approx(want, rel=1e-9)
            assert blossoms == ([2 * m] if falls_back else [])
            gave_up[complete] += falls_back
    # both closed components of an odd size cannot be matched
    assert infeasible >= 2 * (m % 2)
    # above DP_MAX every complete component meets more than DP_MASKS
    # masks and falls back, and some sparse ones are certified
    assert gave_up[True] == (4 if m > DP_MAX else 0)
    assert gave_up[False] < 4


# -- the DP above DP_MAX, where it certifies -----------------------------------------

def test_certified_dp_returns_blossoms_matching():
    # sparse components above DP_MAX, with continuous weights that tie
    # nowhere
    rng = np.random.default_rng(23)
    certified = 0
    for m in range(DP_MAX + 1, 3 * DP_MAX, 2):
        for closed in (False, False, True):
            pair_dist, legs, pairs = random_component(m, rng, False, closed,
                                                      band=6)
            mate = dp_matching(pairs, pair_dist, legs)
            if mate not in (None, True):
                # the same pairs, each as (smaller, larger) like blossom's
                assert set(mate) == set(_blossom(list(range(m)), pairs,
                                                 pair_dist, legs))
                assert all(b is None or a < b for a, b in mate)
                certified += 1
    assert certified >= 24


def test_exact_ties_fall_back_to_blossom(monkeypatch):
    # an even closed ring with equal weights has two perfect matchings
    n = DP_MAX + 2
    ring = ring_distances(n)
    legs = np.full(n, np.inf)
    pairs = np.argwhere(np.triu(np.isfinite(ring), 1)).tolist()
    assert dp_matching(pairs, ring, legs) is None
    blossoms = count_blossoms(monkeypatch)
    mate = _match(ring, legs)
    assert blossoms == [2 * n]
    assert sorted(d for pair in mate for d in pair) == list(range(n))
    assert all(ring[a, b] == 1.0 for a, b in mate)
    # with distinct weights the same ring is certified, without blossom
    ring = ring_distances(n, np.random.default_rng(5))
    blossoms.clear()
    mate = _match(ring, legs)
    assert blossoms == []
    assert set(mate) == set(_blossom(list(range(n)), pairs, ring, legs))


def test_the_mask_cap_is_a_complete_dp_max_component(monkeypatch):
    rng = np.random.default_rng(29)
    for m in (DP_MAX, DP_MAX + 1):
        pair_dist, legs, pairs = random_component(m, rng, True, False)
        legs[:] = rng.uniform(2.0, 6.0, m)   # every leg open: the most masks
        # the cap binds only above DP_MAX defects
        monkeypatch.setattr(matching, "DP_MASKS", DP_MASKS - 1)
        assert (dp_matching(pairs, pair_dist, legs) is None) == (m > DP_MAX)
        # certified as if it were above DP_MAX, a complete component of
        # DP_MAX defects meets DP_MASKS masks exactly; one more defect
        # meets more and falls back, though its optimum is unique
        monkeypatch.setattr(matching, "DP_MAX", m - 1)
        monkeypatch.setattr(matching, "DP_MASKS", DP_MASKS)
        assert (dp_matching(pairs, pair_dist, legs) is None) == (m > DP_MAX)
        monkeypatch.setattr(matching, "DP_MASKS", math.inf)
        assert dp_matching(pairs, pair_dist, legs) is not None
        monkeypatch.setattr(matching, "DP_MASKS", DP_MASKS - 1)
        assert dp_matching(pairs, pair_dist, legs) is None
        monkeypatch.undo()


def test_hundreds_of_defects_need_no_deep_recursion(monkeypatch):
    # a chain of 600 defects, each pair of neighbours kept: far deeper
    # than Python's recursion limit, yet within the mask cap
    rng = np.random.default_rng(31)
    n = 600
    legs = rng.uniform(2.0, 6.0, n)
    pair_dist = np.full((n, n), np.inf)
    for a in range(n - 1):
        pair_dist[a, a + 1] = pair_dist[a + 1, a] = \
            rng.uniform(0.3, 0.98) * (legs[a] + legs[a + 1])
    blossoms = count_blossoms(monkeypatch)
    mate = _match(pair_dist, legs)
    assert blossoms == []
    # the chain's optimum over defects a.., from its far end: defect a
    # takes its leg or pairs with a + 1
    best = np.zeros(n + 1)
    best[n - 1] = legs[n - 1]
    for a in range(n - 2, -1, -1):
        best[a] = min(legs[a] + best[a + 1], pair_dist[a, a + 1] + best[a + 2])
    assert sorted(d for pair in mate for d in pair if d is not None) == \
        list(range(n))
    assert math.fsum(legs[a] if b is None else pair_dist[a, b]
                     for a, b in mate) == pytest.approx(best[0], rel=1e-9)

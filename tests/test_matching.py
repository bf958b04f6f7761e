"""Minimum-weight matching on class graphs and correlated reweighting."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import extract_dem
from ghostdec.matching import (MatchingError, MatchingGraph, GraphEdge,
                               build_matching_graph, decode_correlated_two_pass,
                               decode_mwpm, edge_weight)
from ghostdec.verify import brute_force_ml_decode
from ghostdec.windows import WindowConfig, plan_tproxy_windows


def class_components(dec, patch, cls):
    return [c for c in dec.components if (c.patch, c.cls) == (patch, cls)]


def class_graph(dec, patch, cls, **options):
    return build_matching_graph(patch, cls, class_components(dec, patch, cls),
                                **options)


def memory_model(d=3, rounds=2, p=0.002):
    """A one-patch (patch 0) memory model."""
    dem = extract_dem(apply_noise_model(build_memory_circuit(d, rounds),
                                        NoiseParams(p)))
    return dem, ghost_decompose(dem)


def tproxy_model(d=3, n=1, p=0.001):
    """A teleportation-proxy model and its patch ids."""
    dem = extract_dem(apply_noise_model(build_tproxy_circuit(d, n), NoiseParams(p)))
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


def test_ghost_singletons_hidden_by_default():
    dem, dec, patches = tproxy_model()
    for patch in patches:
        for cls in ("X", "Z"):
            hidden = class_graph(dec, patch, cls, expose_gs=False)
            shown = class_graph(dec, patch, cls, expose_gs=True)
            assert not any(e.role == "ghost_s" for e in hidden.edges)
            extra = [e for e in shown.edges if e.role == "ghost_s"]
            in_class = [c for c in class_components(dec, patch, cls)
                        if c.role == "ghost_s"]
            assert len(extra) == len(in_class)
            # ghost edges never merge, even when parallel
            assert all(len(e.components) == 1 for e in shown.edges
                       if e.role != "normal")


def test_class_nodes_cover_hidden_edges():
    # a detector whose only edges are hidden ghost singletons must still
    # be a node so a defect there fails loudly instead of vanishing
    dem, dec, patches = tproxy_model()
    for patch in patches:
        for cls in ("X", "Z"):
            g = class_graph(dec, patch, cls, expose_gs=False)
            want = {t for c in class_components(dec, patch, cls)
                    for t in c.detectors}
            assert set(g.detectors) == want


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
                assert corr.defects == tuple(g.detectors[i] for i in sorted(picks))


def test_empty_syndrome_returns_empty_correction():
    dem, dec = memory_model()
    g = class_graph(dec, 0, "Z")
    corr = decode_mwpm(g, np.zeros(dem.detector_count, dtype=bool))
    assert corr.edges == ()
    assert corr.weight == 0.0
    # a vector too short for the graph's detectors is an error, not empty
    with pytest.raises(MatchingError):
        decode_mwpm(g, np.zeros(3, dtype=bool))


def test_isolated_defect_raises():
    g = MatchingGraph(0, "Z", detectors=(0, 1),
                      edges=(GraphEdge(0, 2, 1.0, (0,), (), "normal", None),))
    syndrome = np.array([False, True, False])
    with pytest.raises(MatchingError):
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
    assert parallel > 500

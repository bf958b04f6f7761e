"""Minimum-weight matching on class graphs and correlated reweighting."""

import itertools
import math

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.decompose import ghost_decompose, partition_dem
from ghostdec.dem import extract_dem
from ghostdec.matching import (MatchingError, MatchingGraph, GraphEdge,
                               build_matching_graph, decode_correlated_two_pass,
                               decode_mwpm, edge_weight)
from ghostdec.verify import brute_force_ml_decode


def memory_partition(d=3, rounds=2, p=0.002):
    dem = extract_dem(apply_noise_model(build_memory_circuit(d, rounds),
                                        NoiseParams(p)))
    dec = ghost_decompose(dem)
    return dem, dec, partition_dem(dec)[0]


def tproxy_graphs(d=3, n=1, p=0.001):
    dem = extract_dem(apply_noise_model(build_tproxy_circuit(d, n), NoiseParams(p)))
    dec = ghost_decompose(dem)
    parts = partition_dem(dec)
    return dem, dec, parts


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
    dem, dec, part = memory_partition()
    g = build_matching_graph(part, "Z")
    seen = set()
    for e in g.edges:
        if e.role == "normal":
            key = (e.u, e.v, e.observables, e.open_boundary)
            assert key not in seen
            seen.add(key)


def test_merged_probability_is_odd_combination():
    dem, dec, part = memory_partition()
    g = build_matching_graph(part, "Z")
    for e in g.edges:
        if e.role != "normal":
            continue
        p = 0.0
        for ci in e.components:
            q = dec.components[ci].probability
            p = p * (1.0 - q) + q * (1.0 - p)
        assert e.probability == pytest.approx(p, rel=1e-12)


def test_ghost_singletons_hidden_by_default():
    dem, dec, parts = tproxy_graphs()
    for part in parts:
        for cls in ("X", "Z"):
            hidden = build_matching_graph(part, cls, expose_gs=False)
            shown = build_matching_graph(part, cls, expose_gs=True)
            assert not any(e.role == "ghost_s" for e in hidden.edges)
            extra = [e for e in shown.edges if e.role == "ghost_s"]
            in_class = [c for c in part.components
                        if c.cls == cls and c.role == "ghost_s"]
            assert len(extra) == len(in_class)
            # ghost edges never merge, even when parallel
            assert all(len(e.components) == 1 for e in shown.edges
                       if e.role != "normal")


def test_class_nodes_cover_hidden_edges():
    # a detector whose only edges are hidden ghost singletons must still
    # be a node so a defect there fails loudly instead of vanishing
    dem, dec, parts = tproxy_graphs()
    for part in parts:
        for cls in ("X", "Z"):
            g = build_matching_graph(part, cls, expose_gs=False)
            want = {t for c in part.components if c.cls == cls
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
    dem, dec, part = memory_partition(rounds=1)
    g = build_matching_graph(part, "Z")
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
    dem, dec, parts = tproxy_graphs()
    rng = np.random.default_rng(11)
    for part in parts:
        for cls in ("X", "Z"):
            g = build_matching_graph(part, cls)
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
    dem, dec, part = memory_partition()
    g = build_matching_graph(part, "Z")
    corr = decode_mwpm(g, np.zeros(dem.detector_count, dtype=bool))
    assert corr.edges == ()
    assert corr.weight == 0.0


def test_isolated_defect_raises():
    g = MatchingGraph(0, "Z", detectors=(0, 1),
                      edges=(GraphEdge(0, 0, 2, 1.0, 0.1, (0,), (), "normal",
                                       None, False),))
    syndrome = np.array([False, True, False])
    with pytest.raises(MatchingError):
        decode_mwpm(g, syndrome)


def test_decoding_is_deterministic():
    dem, dec, part = memory_partition()
    g = build_matching_graph(part, "Z")
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    for t in g.detectors[:4]:
        syndrome[t] = True
    ref = decode_mwpm(g, syndrome)
    for _ in range(5):
        assert decode_mwpm(g, syndrome) == ref


# -- correlated two-pass ------------------------------------------------------------

def test_cross_class_mechanisms_decode_to_ml():
    dem, dec, parts = tproxy_graphs()
    part = parts[0]
    gx = build_matching_graph(part, "X")
    gz = build_matching_graph(part, "Z")
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
    dem, dec, part = memory_partition(rounds=2)
    # strip partner links so no reweighting can trigger
    gx = build_matching_graph(part, "X")
    gz = build_matching_graph(part, "Z")
    bare_x = MatchingGraph(gx.patch, gx.cls, gx.detectors, gx.edges)
    bare_z = MatchingGraph(gz.patch, gz.cls, gz.detectors, gz.edges)
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    syndrome[gx.detectors[0]] = True
    syndrome[gz.detectors[0]] = True
    cx, cz = decode_correlated_two_pass(bare_x, bare_z, syndrome)
    assert cx == decode_mwpm(bare_x, syndrome)
    assert cz == decode_mwpm(bare_z, syndrome)


def test_reported_weight_ignores_discounts():
    dem, dec, parts = tproxy_graphs()
    part = parts[0]
    gx = build_matching_graph(part, "X")
    gz = build_matching_graph(part, "Z")
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

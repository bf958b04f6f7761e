"""Iterative ghost-edge protocol: schedules, commits, and the logical frame."""

import numpy as np
import pytest

import ghostdec.ghost
from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_memory_circuit, build_tproxy_circuit)
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import extract_dem, sample_dem
from ghostdec.ghost import (DEFAULT_SCHEDULE, PassSchedule, ProtocolError,
                            build_protocol_graphs, run_ghost_protocol,
                            select_schedule)
from ghostdec.matching import decode_mwpm
from ghostdec.verify import brute_force_ml_decode


@pytest.fixture(scope="module")
def setup():
    dem = extract_dem(apply_noise_model(build_tproxy_circuit(3, 1),
                                        NoiseParams(0.001)))
    dec = ghost_decompose(dem)
    return dem, dec, build_protocol_graphs(dec)


def vec(dem, dets):
    v = np.zeros(dem.detector_count, dtype=bool)
    for t in dets:
        v[t] = True
    return v


# -- schedules ---------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ProtocolError):
        PassSchedule(1, frozenset())
    with pytest.raises(ProtocolError):
        PassSchedule(4, frozenset({0}))
    with pytest.raises(ProtocolError):
        PassSchedule(4, frozenset({5}))
    with pytest.raises(ProtocolError):
        PassSchedule(4, frozenset({4}))  # final pass must stay unexposed


def test_schedule_selection_table():
    assert select_schedule(3, 1, "tproxy") == DEFAULT_SCHEDULE
    assert select_schedule(11, 1, "memory") == DEFAULT_SCHEDULE
    assert select_schedule(11, 2, "deep") == PassSchedule(6, frozenset({1, 4}))
    assert select_schedule(11, 3, "deep") == PassSchedule(6, frozenset({1, 4}))
    assert select_schedule(11, 1, "deep") == PassSchedule(8, frozenset({1, 4, 6}))
    assert select_schedule(5, 1, "deep") == DEFAULT_SCHEDULE


# -- graph sets ------------------------------------------------------------------

@pytest.fixture(scope="module")
def memory_setup():
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 3),
                                        NoiseParams(5e-3)))
    dec = ghost_decompose(dem)
    return dem, dec, build_protocol_graphs(dec)


def test_memory_graphs_are_shared_across_exposure(memory_setup):
    dem, dec, graphs = memory_setup
    assert not dec.pairs
    for cls in ("X", "Z"):
        assert graphs[0, cls, True] is graphs[0, cls, False]


def test_shared_graphs_are_decoded_once_per_barrier_state(memory_setup,
                                                          monkeypatch):
    dem, dec, graphs = memory_setup
    calls = []
    decode = ghostdec.ghost.decode_correlated_two_pass

    def counted(*args):
        calls.append(1)
        return decode(*args)

    monkeypatch.setattr(ghostdec.ghost, "decode_correlated_two_pass", counted)
    dets, _ = sample_dem(dem, seed=5, shots=20)
    s = next(s for s in range(20) if dets[s].sum() >= 2)
    res = run_ghost_protocol(dec, dets[s], graphs=graphs, collect_trace=False)
    assert len(calls) == 1
    assert any(c.edges for c in res.corrections.values())


# -- basic runs --------------------------------------------------------------------

def test_empty_syndrome_is_a_no_op(setup):
    dem, dec, graphs = setup
    res = run_ghost_protocol(dec, vec(dem, ()), graphs=graphs)
    assert not res.logical_flips.any()
    assert not res.frame_delta.any()
    assert not res.refinement_delta.any()
    assert res.commit_toggles == ()
    assert all(c.edges == () for c in res.corrections.values())


def test_syndrome_length_checked(setup):
    dem, dec, graphs = setup
    with pytest.raises(ProtocolError):
        run_ghost_protocol(dec, np.zeros(3, dtype=bool), graphs=graphs)


def test_interpatch_hyperedge_commits_and_refines(setup):
    dem, dec, graphs = setup
    pair = next(p for p in dec.pairs
                if len(dec.components[p.g_e].detectors) == 2)
    mech = dem.mechanisms[pair.mech_id]
    res = run_ghost_protocol(dec, vec(dem, mech.detectors), graphs=graphs)
    gs = dec.components[pair.g_s]
    assert (pair.mech_id, gs.detectors[0]) in res.commit_toggles
    # the commit's refinement covers the whole mechanism across patches
    flipped = set(np.flatnonzero(res.refinement_delta))
    assert set(dec.components[pair.g_e].detectors) <= flipped
    assert set(gs.detectors) <= flipped
    # messages crossed patches
    sent = [t for t in res.trace if not t.get("barrier") and t["sent"]]
    assert sent
    # answer agrees with exhaustive likelihood
    ml = brute_force_ml_decode(dem, frozenset(mech.detectors), weight_cap=3)
    assert tuple(int(x) for x in np.flatnonzero(res.logical_flips)) == ml.observables


def test_single_mechanism_answers_match_ml(setup):
    dem, dec, graphs = setup
    for i, m in enumerate(dem.mechanisms):
        if not m.detectors:
            continue
        res = run_ghost_protocol(dec, vec(dem, m.detectors), graphs=graphs,
                                 collect_trace=False)
        ml = brute_force_ml_decode(dem, frozenset(m.detectors), weight_cap=3)
        got = tuple(int(x) for x in np.flatnonzero(res.logical_flips))
        assert got == ml.observables, f"mechanism {i}"


# -- protocol invariants -------------------------------------------------------------

def test_final_corrections_never_contain_ghost_singletons(setup):
    dem, dec, graphs = setup
    dets, _ = sample_dem(dem, seed=23, shots=300)
    for s in range(300):
        res = run_ghost_protocol(dec, dets[s], graphs=graphs, collect_trace=False)
        for (patch, cls), corr in res.corrections.items():
            g = graphs[patch, cls, False]
            assert all(g.edges[i].role != "ghost_s" for i in corr.edges)


def test_frame_consistency_with_refined_syndrome(setup):
    # re-decoding the refined syndrome without any ghost machinery must
    # reproduce the final-pass corrections, so the logical answer is the
    # committed frame plus that plain decode
    dem, dec, graphs = setup
    dets, _ = sample_dem(dem, seed=29, shots=200)
    for s in range(200):
        res = run_ghost_protocol(dec, dets[s], graphs=graphs, collect_trace=False)
        refined = dets[s] ^ res.refinement_delta
        plain = np.zeros(dem.observable_count, dtype=bool)
        for (patch, cls), corr in res.corrections.items():
            check = decode_mwpm(graphs[patch, cls, False], refined)
            for j in check.observables:
                plain[j] ^= True
        expect = plain ^ res.frame_delta
        assert np.array_equal(res.logical_flips, expect)


def test_rerun_with_committed_keys_adds_nothing(setup):
    dem, dec, graphs = setup
    pair = next(p for p in dec.pairs
                if len(dec.components[p.g_e].detectors) == 2)
    mech = dem.mechanisms[pair.mech_id]
    first = run_ghost_protocol(dec, vec(dem, mech.detectors), graphs=graphs,
                               collect_trace=False)
    assert first.commit_toggles
    refined = vec(dem, mech.detectors) ^ first.refinement_delta
    again = run_ghost_protocol(dec, refined, graphs=graphs,
                               collect_trace=False)
    assert again.commit_toggles == ()
    assert not again.frame_delta.any()
    combined = again.logical_flips ^ first.frame_delta
    assert np.array_equal(combined, first.logical_flips)


def test_protocol_is_deterministic(setup):
    dem, dec, graphs = setup
    dets, _ = sample_dem(dem, seed=31, shots=50)
    for s in range(50):
        a = run_ghost_protocol(dec, dets[s], graphs=graphs, collect_trace=False)
        b = run_ghost_protocol(dec, dets[s], graphs=graphs, collect_trace=False)
        assert np.array_equal(a.logical_flips, b.logical_flips)
        assert a.commit_toggles == b.commit_toggles


def test_trace_shape(setup):
    dem, dec, graphs = setup
    res = run_ghost_protocol(dec, vec(dem, dem.mechanisms[2].detectors),
                             graphs=graphs)
    patch_entries = [t for t in res.trace if not t.get("barrier")]
    assert {t["pass"] for t in patch_entries} == set(range(1, 5))
    for t in patch_entries:
        assert set(t) == {"pass", "patch", "weight", "edges", "committed", "sent"}

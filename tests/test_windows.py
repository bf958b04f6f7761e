"""Windowed real-time decoding, patience and sliding memory windows."""

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_memory_circuit, build_tproxy_circuit)
from ghostdec.circuits import CircuitError
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import extract_dem, sample_dem
from ghostdec.ghost import build_protocol_graphs, run_ghost_protocol
import ghostdec.patience
import ghostdec.windows
from ghostdec.patience import (PatienceError, patience_delay, patient_decode,
                               plan_patience)
from ghostdec.windows import (WindowConfig, WindowError, _slice_components,
                              compute_tw_error, decode_memory_sliding,
                              decode_tproxy_global, decode_tproxy_windowed,
                              plan_memory_windows, plan_tproxy_windows,
                              severance_region, tproxy_gates)

CONFIG = WindowConfig()


def decomposed(circuit, p):
    dem = extract_dem(apply_noise_model(circuit, NoiseParams(p)))
    return dem, ghost_decompose(dem)


@pytest.fixture(scope="module")
def patience_setup():
    dem, dec = decomposed(build_tproxy_circuit(5, 2, extra_rounds=2), 3e-3)
    return dem, dec, plan_patience(dec, CONFIG, 5), plan_tproxy_windows(dec, CONFIG)


def test_full_horizon_windowed_equals_global():
    dem, dec = decomposed(build_tproxy_circuit(3, 2), 5e-3)
    graphs = build_protocol_graphs(dec)
    # every gate's horizon lies at or past the last round: one global window
    plan = plan_tproxy_windows(dec, CONFIG, allowance=max(dem.detector_time))
    dets, _ = sample_dem(dem, seed=3, shots=200)
    assert dets.any(axis=1).sum() > 150
    for s in range(200):
        win = decode_tproxy_windowed(dec, dets[s], CONFIG, plan=plan)
        glob = decode_tproxy_global(dec, dets[s], graphs=graphs)
        assert np.array_equal(win.decisions, glob), f"shot {s}"


def test_unretried_patient_shots_keep_windowed_decisions(patience_setup):
    dem, dec, pplan, wplan = patience_setup
    assert pplan.delay_rounds == 1
    dets, _ = sample_dem(dem, seed=4, shots=100)
    kept = 0
    for s in range(100):
        shot = patient_decode(dec, dets[s], CONFIG, 5, plan=pplan)
        if any(h.heralded and h.delay_rounds for h in shot.heralds):
            continue
        kept += 1
        win = decode_tproxy_windowed(dec, dets[s], CONFIG, plan=wplan)
        assert np.array_equal(shot.decisions, shot.base_decisions)
        assert np.array_equal(shot.decisions, win.decisions), f"shot {s}"
    assert kept > 90


def test_patience_delay_table():
    assert [patience_delay(d) for d in (3, 5, 7, 9, 11)] == [0, 1, 2, 3, 4]


def test_patience_needs_delay_rounds_in_the_circuit(monkeypatch):
    dem, dec = decomposed(build_tproxy_circuit(9, 2), 1e-3)

    def refuse(*args, **kwargs):
        raise AssertionError("graphs built before the delay check")

    # the missing rounds show in detector times alone: nothing is built
    monkeypatch.setattr(ghostdec.windows, "build_protocol_graphs", refuse)
    monkeypatch.setattr(ghostdec.patience, "build_protocol_graphs", refuse)
    with pytest.raises(WindowError, match="needs 3 delay rounds"):
        plan_patience(dec, CONFIG, 9)


def test_wrong_syndrome_length_raises(patience_setup):
    dem, dec, pplan, wplan = patience_setup
    short = np.zeros(dem.detector_count - 1, dtype=bool)
    with pytest.raises(CircuitError):
        decode_tproxy_windowed(dec, short, CONFIG, plan=wplan)
    with pytest.raises(CircuitError):
        patient_decode(dec, short, CONFIG, 5, plan=pplan)


def test_plan_fixes_window_parameters(patience_setup):
    dem, dec, pplan, wplan = patience_setup
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    with pytest.raises(WindowError):
        decode_tproxy_windowed(dec, syndrome, WindowConfig(2), plan=wplan)
    with pytest.raises(PatienceError):
        patient_decode(dec, syndrome, WindowConfig(2), 5, plan=pplan)
    with pytest.raises(PatienceError):
        patient_decode(dec, syndrome, CONFIG, 7, plan=pplan)


def test_only_ghost_free_patches_share_window_graphs(patience_setup):
    dem, dec, pplan, wplan = patience_setup
    window = wplan.windows[0]
    assert (window.lo, window.hi) == (None, 2)
    shared = {(p, c) for p, c, _ in window.graphs
              if window.graphs[p, c, True] is window.graphs[p, c, False]}
    assert shared == {(2, "X"), (2, "Z")}
    assert not any(c.role == "ghost_s" and c.patch == 2
                   for c in window.decomposed.components)


@pytest.mark.parametrize("lo, hi", [(None, 2), (None, 5), (1, 4), (3, 6),
                                    (5, 5)])
def test_slice_keeps_detectors_and_whole_pairs(patience_setup, lo, hi):
    dem, dec, _, _ = patience_setup
    time = dem.detector_time
    sliced = _slice_components(dec, lo, hi)
    kept = [c for c in dec.components
            if (lo is None or all(time[d] >= lo for d in c.detectors))
            and any(time[d] <= hi for d in c.detectors)]
    assert 0 < len(kept) < len(dec.components)
    assert len(sliced.components) == len(kept)
    index = {}
    for orig, c in zip(kept, sliced.components):
        assert c.mech_id == orig.mech_id
        assert (set(c.detectors) | set(c.cut_partners)
                == set(orig.detectors) | set(orig.cut_partners))
        index[orig.index] = c.index
    alive = [pr for pr in dec.pairs if pr.g_e in index and pr.g_s in index]
    assert len(sliced.pairs) == len(alive)
    for orig, pr in zip(alive, sliced.pairs):
        assert (pr.mech_id, pr.g_e, pr.g_s) == (
            orig.mech_id, index[orig.g_e], index[orig.g_s])
        ge, gs = sliced.components[pr.g_e], sliced.components[pr.g_s]
        assert (ge.role, gs.role) == ("ghost_e", "ghost_s")
        assert ge.pair_id == gs.pair_id == pr.pair_id
    ghosts = [c for c in sliced.components if c.role != "normal"]
    assert len(ghosts) == 2 * len(sliced.pairs)


def test_sliding_windows_reject_ghost_pairs(patience_setup):
    dem, dec, _, _ = patience_setup
    assert dec.pairs
    with pytest.raises(WindowError):
        plan_memory_windows(dec, 2, 1)


def test_single_sliding_window_equals_global_memory():
    dem, dec = decomposed(build_memory_circuit(3, 3), 5e-3)
    rounds = max(dem.detector_time) + 1
    plan = plan_memory_windows(dec, rounds, 0)
    assert len(plan.windows) == 1
    graphs = build_protocol_graphs(dec)
    dets, _ = sample_dem(dem, seed=6, shots=200)
    for s in range(200):
        sliding = decode_memory_sliding(dec, dets[s], plan)
        glob = run_ghost_protocol(dec, dets[s], graphs=graphs,
                                  collect_trace=False)
        assert np.array_equal(sliding, glob.logical_flips), f"shot {s}"


def test_sliding_windows_step_by_commit_size():
    dem, dec = decomposed(build_memory_circuit(3, 6), 5e-3)
    first, last = min(dem.detector_time), max(dem.detector_time)
    with pytest.raises(WindowError):
        plan_memory_windows(dec, 0, 1)
    with pytest.raises(WindowError):
        plan_memory_windows(dec, 1, -1)
    for commit_rounds, buffer_rounds in ((1, 1), (2, 1), (2, 0)):
        plan = plan_memory_windows(dec, commit_rounds, buffer_rounds)
        assert plan.commit_rounds == commit_rounds
        assert len(plan.windows) > 1
        assert plan.windows[0].lo == first
        for a, b in zip(plan.windows, plan.windows[1:]):
            assert b.lo - a.lo == commit_rounds
        for w in plan.windows:
            assert w.hi - w.lo + 1 <= commit_rounds + buffer_rounds
        assert plan.windows[-1].hi == last


def test_severance_region_keeps_mechanisms_near_the_decision():
    dem, dec = decomposed(build_tproxy_circuit(3, 2), 1e-3)
    time = dem.detector_time
    for gate in tproxy_gates(dem, CONFIG):
        for radius in range(3):
            near = tuple(
                e for e, m in enumerate(dem.mechanisms) if m.detectors
                and all(abs(time[d] - gate.decision_round) <= radius
                        for d in m.detectors))
            assert near
            assert severance_region(dem, gate, radius) == near
        everything = tuple(e for e, m in enumerate(dem.mechanisms)
                           if m.detectors)
        assert severance_region(dem, gate, max(time)) == everything


def test_tw_error_rejects_empty_and_mismatched_arrays():
    with pytest.raises(WindowError):
        compute_tw_error(np.zeros((0, 2), bool), np.zeros((0, 2), bool))
    with pytest.raises(WindowError):
        compute_tw_error(np.zeros((3, 2), bool), np.zeros((3, 1), bool))
    err = compute_tw_error([[0, 1], [1, 1]], [[0, 1], [1, 0]])
    assert (err.shots, err.disagreements, err.rate) == (2, 1, 0.5)

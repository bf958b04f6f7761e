"""Iterative ghost-edge protocol: graph sets, commits, and the logical frame."""

import dataclasses

import numpy as np
import pytest

import ghostdec.ghost
import ghostdec.matching
from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_memory_circuit, build_tproxy_circuit)
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import (DetectorErrorModel, ErrorMechanism, extract_dem,
                          sample_dem)
from ghostdec.ghost import (ProtocolError, build_protocol_graphs,
                            run_ghost_protocol)
from ghostdec.matching import decode_correlated_two_pass, decode_mwpm
from ghostdec.patience import plan_patience
from ghostdec.verify import brute_force_ml_decode
from ghostdec.windows import WindowConfig, plan_tproxy_windows


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


# -- graph sets ------------------------------------------------------------------

@pytest.fixture(scope="module")
def memory_setup():
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 3),
                                        NoiseParams(5e-3)))
    dec = ghost_decompose(dem)
    return dem, dec, build_protocol_graphs(dec)


@pytest.mark.parametrize("closed", [False, True])
def test_each_patch_class_graph_is_built_once(setup, monkeypatch, closed):
    # the one gate's window cut gives the model open-boundary edges, and
    # the complementary herald's closed graphs are views that drop them;
    # a fresh model has built none of the graphs its window shares, and
    # no graph holds its class's ghost singletons
    dem, _, _ = setup
    dec = ghost_decompose(dem)
    built = []
    build = ghostdec.ghost.build_matching_graph

    def counted(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ghostdec.ghost, "build_matching_graph", counted)
    plan = plan_patience(dec, WindowConfig(), 3)
    (window,) = plan.base.windows
    assert (window.lo, window.hi) == (min(dem.detector_time), 2)
    graphs = window.graphs
    assert sorted((g.patch, g.cls) for g in built) == sorted(graphs)
    assert all(dec.graphs.get(key) is g
               for key, g in graphs.items() if key not in window.decomposed.changed)
    opened = 0
    for full in built:
        assert graphs[full.patch, full.cls] is full
        shown = full.closed if closed else full
        assert shown.detectors == full.detectors
        want = [e for e in full.edges if not (closed and e.open_boundary)]
        assert list(map(id, shown.edges)) == list(map(id, want))
        assert (shown is full) == (len(want) == len(full.edges))
        assert all(e.role != "ghost_s" for e in shown.edges)
        opened += sum(e.open_boundary for e in full.edges)
    keys = {(g.patch, g.cls) for g in built}
    assert opened and any(c.role == "ghost_s" and (c.patch, c.cls) in keys
                          for c in window.decomposed.components)


def cold_copies(graphs):
    """Copies of a graph set that have derived and remembered nothing
    yet, their closed views included."""
    return {key: dataclasses.replace(g) for key, g in graphs.items()}


def test_shared_graphs_are_decoded_once_per_barrier_state(memory_setup,
                                                          monkeypatch):
    dem, dec, graphs = memory_setup
    calls = []
    decode = ghostdec.matching.decode_mwpm

    def counted(*args):
        calls.append(1)
        return decode(*args)

    monkeypatch.setattr(ghostdec.matching, "decode_mwpm", counted)
    dets, _ = sample_dem(dem, seed=5, shots=20)
    s = next(s for s in range(20) if dets[s].sum() >= 2)
    once = cold_copies(graphs)
    decode_correlated_two_pass(once[0, "X"], once[0, "Z"], dets[s])
    per_decode = len(calls)
    calls.clear()
    cold = cold_copies(graphs)
    res = run_ghost_protocol(dec, dets[s], graphs=cold)
    # a barrier state that commits nothing costs one two-pass decode
    assert len(calls) == per_decode >= 2
    assert any(c.edges for _, c in res.corrections.values())
    # and the same syndrome again costs none
    calls.clear()
    again = run_ghost_protocol(dec, dets[s], graphs=cold)
    assert not calls
    assert again.corrections == res.corrections


# -- basic runs --------------------------------------------------------------------

def test_empty_syndrome_is_a_no_op(setup):
    dem, dec, graphs = setup
    res = run_ghost_protocol(dec, vec(dem, ()), graphs=graphs,
                             collect_trace=True)
    assert not res.logical_flips.any()
    assert not res.frame_delta.any()
    assert not res.refinement_delta.any()
    assert not any(record.committed for record in res.trace)
    assert all(c.edges == () for _, c in res.corrections.values())


def test_syndrome_length_checked(setup):
    dem, dec, graphs = setup
    with pytest.raises(ProtocolError):
        run_ghost_protocol(dec, np.zeros(3, dtype=bool), graphs=graphs)


def test_interpatch_hyperedge_commits_and_refines(setup):
    dem, dec, graphs = setup
    pid, (ge, gs) = next((e, p) for e, p in dec.pairs.items()
                         if len(p[0].detectors) == 2)
    mech = dem.mechanisms[pid]
    res = run_ghost_protocol(dec, vec(dem, mech.detectors), graphs=graphs,
                             collect_trace=True)
    # the pair is applied at the barriers an odd number of times
    committed = [c for record in res.trace for c in record.committed]
    assert committed.count(pid) % 2 == 1
    # the commit's refinement covers the whole mechanism across patches
    flipped = set(np.flatnonzero(res.refinement_delta))
    assert set(ge.detectors) <= flipped
    assert set(gs.detectors) <= flipped
    # messages crossed patches: the witness is selected in the patch
    # that does not hold the singleton
    assert ge.patch != gs.patch
    assert any(g.edges[i].pair_id == pid
               for record in res.trace
               for (patch, _), (g, corr) in record.corrections.items()
               if patch == ge.patch for i in corr.edges)
    # answer agrees with exhaustive likelihood
    ml = brute_force_ml_decode(dem, frozenset(mech.detectors), weight_cap=3)
    assert tuple(int(x) for x in np.flatnonzero(res.logical_flips)) == ml.observables


def observable_pair_dem():
    """Patch 0 holds the witness (0, 1), patch 1 the singleton (2,) and the
    observable; each detector also has a less likely boundary edge."""
    return DetectorErrorModel(
        (ErrorMechanism(0.01, (0, 1, 2), (0,)),
         ErrorMechanism(0.001, (0,), ()), ErrorMechanism(0.001, (1,), ()),
         ErrorMechanism(0.001, (2,), ())),
        3, 1, (0, 0, 1), (1, 1, 1), ("Z",) * 3, (1,), ("Z",))


def test_ghost_commit_flips_an_observable():
    dem = observable_pair_dem()
    dec = ghost_decompose(dem)
    ((ge, gs),) = dec.pairs.values()
    assert (ge.detectors, ge.observables) == ((0, 1), ())
    assert (gs.detectors, gs.observables) == ((2,), (0,))
    res = run_ghost_protocol(dec, vec(dem, (0, 1, 2)),
                             graphs=build_protocol_graphs(dec),
                             collect_trace=True)
    assert [record.committed for record in res.trace] == [[0], [], [], []]
    # the observable flip reaches the answer through the frame alone
    assert res.frame_delta.tolist() == [True]
    assert res.logical_flips.tolist() == [True]
    assert res.refinement_delta.tolist() == [True, True, True]
    assert all(c.edges == () for _, c in res.corrections.values())


def test_single_mechanism_answers_match_ml(setup):
    dem, dec, graphs = setup
    for i, m in enumerate(dem.mechanisms):
        if not m.detectors:
            continue
        res = run_ghost_protocol(dec, vec(dem, m.detectors), graphs=graphs)
        ml = brute_force_ml_decode(dem, frozenset(m.detectors), weight_cap=3)
        got = tuple(int(x) for x in np.flatnonzero(res.logical_flips))
        assert got == ml.observables, f"mechanism {i}"


@pytest.mark.parametrize("build, judged", [
    (lambda: build_memory_circuit(5, 5), 1611),
    (lambda: build_tproxy_circuit(5, 1), 1877)], ids=["memory", "tproxy"])
def test_d5_single_faults_decode_to_their_truth(build, judged):
    # where no other mechanism has a fault's detector set with other
    # observables, the fault's own observables are its ML answer, so
    # single faults are judged at d=5 without an oracle
    dem = extract_dem(apply_noise_model(build(), NoiseParams(1e-3)))
    dec = ghost_decompose(dem)
    graphs = build_protocol_graphs(dec)
    answers = {}
    for m in dem.mechanisms:
        answers.setdefault(m.detectors, set()).add(m.observables)
    faults = [m for m in dem.mechanisms if len(answers[m.detectors]) == 1]
    assert len(faults) == judged
    wrong = [m for m in faults if tuple(np.flatnonzero(run_ghost_protocol(
        dec, vec(dem, m.detectors), graphs=graphs).logical_flips))
        != m.observables]
    assert wrong == []


# -- protocol invariants -------------------------------------------------------------

def test_final_corrections_never_contain_ghost_singletons(setup):
    dem, dec, graphs = setup
    dets, _ = sample_dem(dem, seed=23, shots=300)
    for s in range(300):
        res = run_ghost_protocol(dec, dets[s], graphs=graphs)
        for g, corr in res.corrections.values():
            assert all(g.edges[i].role != "ghost_s" for i in corr.edges)


def test_frame_consistency_with_refined_syndrome(setup):
    # re-decoding the refined syndrome without any ghost machinery must
    # reproduce the final-pass corrections, so the logical answer is the
    # committed frame plus that plain decode
    dem, dec, graphs = setup
    dets, _ = sample_dem(dem, seed=29, shots=200)
    for s in range(200):
        res = run_ghost_protocol(dec, dets[s], graphs=graphs)
        refined = dets[s] ^ res.refinement_delta
        plain = np.zeros(dem.observable_count, dtype=bool)
        for (patch, cls), corr in res.corrections.items():
            check = decode_mwpm(graphs[patch, cls], refined)
            for j in check.observables:
                plain[j] ^= True
        expect = plain ^ res.frame_delta
        assert np.array_equal(res.logical_flips, expect)


def test_rerun_with_committed_keys_adds_nothing(setup):
    dem, dec, graphs = setup
    e = next(e for e, (ge, _) in dec.pairs.items()
             if len(ge.detectors) == 2)
    mech = dem.mechanisms[e]
    first = run_ghost_protocol(dec, vec(dem, mech.detectors), graphs=graphs)
    assert first.refinement_delta.any()
    refined = vec(dem, mech.detectors) ^ first.refinement_delta
    again = run_ghost_protocol(dec, refined, graphs=graphs)
    assert not again.refinement_delta.any()
    assert not again.frame_delta.any()
    combined = again.logical_flips ^ first.frame_delta
    assert np.array_equal(combined, first.logical_flips)


def test_protocol_is_deterministic(setup):
    dem, dec, graphs = setup
    dets, _ = sample_dem(dem, seed=31, shots=50)
    for s in range(50):
        a = run_ghost_protocol(dec, dets[s], graphs=graphs)
        b = run_ghost_protocol(dec, dets[s], graphs=graphs)
        assert np.array_equal(a.logical_flips, b.logical_flips)
        assert np.array_equal(a.refinement_delta, b.refinement_delta)


def test_trace_shape(setup):
    dem, dec, graphs = setup
    res = run_ghost_protocol(dec, vec(dem, dem.mechanisms[2].detectors),
                             graphs=graphs, collect_trace=True)
    assert len(res.trace) == 4
    # every pass decodes each patch-class graph itself
    for record in res.trace:
        assert set(record.corrections) == set(graphs)
        for key, (g, _) in record.corrections.items():
            assert g is graphs[key]
    assert res.trace[-1].corrections == res.corrections
    assert res.trace[-1].committed == []


def test_committed_ids_name_the_mechanisms_their_pairs_split():
    # global and window runs commit a pair by its mechanism's id; in the
    # model, that mechanism is the XOR of the pair's two fragments.  The
    # syndromes are sampled shots and each pair's whole mechanism.  The
    # built circuit's runs commit no pair that flips an observable, so
    # the one-pair model with an observable joins them.
    tproxy = extract_dem(apply_noise_model(build_tproxy_circuit(3, 2),
                                           NoiseParams(5e-3)))
    flips_observable = 0
    for dem in (tproxy, observable_pair_dem()):
        dec = ghost_decompose(dem)
        runs = [(dec, build_protocol_graphs(dec))]
        if dem is tproxy:
            runs += [(w.decomposed, w.graphs)
                     for w in plan_tproxy_windows(dec, WindowConfig()).windows]
        dets, _ = sample_dem(dem, seed=37, shots=100)
        syndromes = list(dets) + [vec(dem, dem.mechanisms[e].detectors)
                                  for e in dec.pairs]
        committed = set()
        for model, graphs in runs:
            for syndrome in syndromes:
                res = run_ghost_protocol(model, syndrome, graphs=graphs,
                                         collect_trace=True)
                ids = {pid for record in res.trace
                       for pid in record.committed}
                assert ids <= set(model.pairs)
                committed |= ids
        assert committed
        for pid in committed:
            ge, gs = dec.pairs[pid]
            mech = dem.mechanisms[pid]
            assert set(ge.detectors) ^ set(gs.detectors) == set(mech.detectors)
            assert (set(ge.observables) ^ set(gs.observables)
                    == set(mech.observables))
            flips_observable += bool(mech.observables)
    assert flips_observable


def test_tracing_changes_nothing():
    dem = extract_dem(apply_noise_model(build_tproxy_circuit(3, 2),
                                        NoiseParams(5e-3)))
    dec = ghost_decompose(dem)
    graphs = build_protocol_graphs(dec)
    dets, _ = sample_dem(dem, seed=37, shots=100)
    commits = 0
    for s in range(100):
        plain = run_ghost_protocol(dec, dets[s], graphs=graphs)
        traced = run_ghost_protocol(dec, dets[s], graphs=graphs,
                                    collect_trace=True)
        for name in ("logical_flips", "frame_delta", "refinement_delta"):
            assert np.array_equal(getattr(plain, name), getattr(traced, name))
        assert plain.corrections == traced.corrections
        assert plain.passes_with_commits == traced.passes_with_commits
        assert plain.trace == [] and len(traced.trace) == 4
        commits += plain.passes_with_commits
    assert commits


# -- the decode memo -------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_gate_setup():
    dem = extract_dem(apply_noise_model(build_tproxy_circuit(3, 2),
                                        NoiseParams(5e-3)))
    dec = ghost_decompose(dem)
    return dem, dec, build_protocol_graphs(dec)


def test_passes_stop_at_the_first_quiet_barrier(two_gate_setup, monkeypatch):
    # a barrier that commits nothing leaves the working syndrome as it
    # was, so every later pass would only repeat its pass
    dem, dec, graphs = two_gate_setup
    patches = len({p for p, _ in graphs})
    calls = []
    decode = ghostdec.ghost.decode_correlated_two_pass

    def counted(*args):
        calls.append(args[2].copy())
        return decode(*args)

    monkeypatch.setattr(ghostdec.ghost, "decode_correlated_two_pass", counted)
    dets, _ = sample_dem(dem, seed=37, shots=100)
    quiet = committing = 0
    for s in range(100):
        calls.clear()
        res = run_ghost_protocol(dec, dets[s], graphs=graphs)
        passes = len(calls) // patches
        assert len(calls) == patches * passes
        assert passes == res.passes_with_commits + 1 <= ghostdec.ghost.PASSES
        # a pass runs only after a barrier that changed the working syndrome
        for k in range(1, passes):
            assert not np.array_equal(calls[k * patches],
                                      calls[(k - 1) * patches])
        traced = run_ghost_protocol(dec, dets[s], graphs=graphs,
                                    collect_trace=True)
        trace = traced.trace
        assert len(trace) == ghostdec.ghost.PASSES
        assert all(record.committed for record in trace[:passes - 1])
        assert all(record == trace[passes - 1] for record in trace[passes:])
        assert trace[-1].committed == [] and trace[-1].corrections == \
            res.corrections
        if not res.passes_with_commits:
            assert trace[-1].corrections == trace[0].corrections
        quiet += passes == 1
        committing += passes > 1
    assert quiet and committing


def test_warm_graphs_decode_as_cold_copies(two_gate_setup, monkeypatch):
    dem, dec, graphs = two_gate_setup
    calls = {"warm": 0, "cold": 0}
    first_x = 0                    # warm first-pass decodes of an X graph
    inputs = set()                 # distinct warm patch inputs with defects
    decode = ghostdec.matching.decode_mwpm
    two_pass = ghostdec.ghost.decode_correlated_two_pass
    side = "warm"

    def counted(*args):
        nonlocal first_x
        calls[side] += 1
        first_x += side == "warm" and len(args) == 2 and args[0].cls == "X"
        return decode(*args)

    def recorded(gx, gz, syndrome):
        if side == "warm":
            key = (id(gx), id(gz), tuple(syndrome[list(gx.detectors)]),
                   tuple(syndrome[list(gz.detectors)]))
            if any(key[2] + key[3]):
                inputs.add(key)
        return two_pass(gx, gz, syndrome)

    monkeypatch.setattr(ghostdec.matching, "decode_mwpm", counted)
    monkeypatch.setattr(ghostdec.ghost, "decode_correlated_two_pass", recorded)
    warm_graphs = cold_copies(graphs)
    dets, _ = sample_dem(dem, seed=41, shots=200)
    for s in range(200):
        side = "warm"
        warm = run_ghost_protocol(dec, dets[s], graphs=warm_graphs)
        side = "cold"
        cold = run_ghost_protocol(dec, dets[s], graphs=cold_copies(graphs))
        assert ([c for _, c in warm.corrections.values()]
                == [c for _, c in cold.corrections.values()]), f"shot {s}"
        for name in ("logical_flips", "frame_delta", "refinement_delta"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))
        assert warm.passes_with_commits == cold.passes_with_commits
    # 200 shots of at most PASSES passes never fill a memo, so the warm
    # graphs decode each distinct input with defects once; inputs repeat across shots,
    # so they decode less than cold copies
    assert 200 * ghostdec.ghost.PASSES < ghostdec.matching.MEMO_MAX
    assert first_x == len(inputs)
    assert calls["warm"] < calls["cold"]


def test_memo_never_grows_past_its_bound(two_gate_setup, monkeypatch):
    dem, dec, graphs = two_gate_setup
    monkeypatch.setattr(ghostdec.matching, "MEMO_MAX", 3)
    small = cold_copies(graphs)
    dets, _ = sample_dem(dem, seed=43, shots=60)
    sizes = set()
    for s in range(60):
        res = run_ghost_protocol(dec, dets[s], graphs=small)
        sizes |= {len(g.routes.memo) for g in small.values()
                  if "routes" in vars(g)}
        assert max(sizes) <= 3
        want = run_ghost_protocol(dec, dets[s], graphs=cold_copies(graphs))
        assert res.corrections.keys() == want.corrections.keys()
        assert all(res.corrections[k][1] == want.corrections[k][1]
                   for k in want.corrections)
    assert 3 in sizes

"""Windowed real-time decoding, patience and sliding memory windows."""

import dataclasses
import hashlib

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_memory_circuit, build_tproxy_circuit)
from ghostdec.circuits import CircuitError
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import (DetectorErrorModel, ErrorMechanism, extract_dem,
                          sample_dem)
from ghostdec.ghost import PassRecord, build_protocol_graphs, run_ghost_protocol
from ghostdec.matching import (Correction, GraphEdge, MatchingError,
                               MatchingGraph, build_matching_graph)
import ghostdec.ghost
import ghostdec.matching
import ghostdec.patience
import ghostdec.windows
from ghostdec.patience import (HeraldResult, PatienceError,
                               herald_complementary, herald_weight_growth,
                               patience_delay, patient_decode, plan_patience)
from ghostdec.windows import (TproxyGate, TproxyPlan, WindowConfig,
                              WindowError, _slice_components, build_window,
                              carry_gates, compute_tw_error,
                              decode_memory_sliding, decode_tproxy_global,
                              decode_tproxy_windowed,
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
    # every gate's horizon lies at the last round: one global window
    gates = tproxy_gates(dem, CONFIG)
    window = build_window(dec, min(dem.detector_time), max(dem.detector_time))
    plan = TproxyPlan(CONFIG, gates, (window,) * len(gates))
    dets, _ = sample_dem(dem, seed=3, shots=200)
    assert dets.any(axis=1).sum() > 150
    for s in range(200):
        win = decode_tproxy_windowed(dec, dets[s], CONFIG, plan=plan)
        glob = decode_tproxy_global(dec, dets[s], graphs=graphs)
        assert np.array_equal(win.decisions, glob), f"shot {s}"


def test_carried_commits_reach_later_gates():
    # one ghost pair: the witness (0, 1) on patch 0, the singleton (2,) on
    # patch 1 with observable 0's flip; gate 0 decides observable 1 and
    # commits the pair, gate 1 decides observable 0 after it
    dem = DetectorErrorModel(
        (ErrorMechanism(0.01, (0, 1, 2), (0,)),
         ErrorMechanism(0.001, (0,), ()), ErrorMechanism(0.001, (1,), ()),
         ErrorMechanism(0.001, (2,), ())),
        3, 2, (0, 0, 1), (1, 1, 1), ("Z",) * 3, (1, 1), ("Z", "Z"))
    dec = ghost_decompose(dem)
    graphs = build_protocol_graphs(dec)
    seen = []

    def decode_gate(g, refined):
        seen.append(refined.tolist())
        return run_ghost_protocol(dec, refined, graphs=graphs)

    gates = (TproxyGate(1, 1, 1), TproxyGate(0, 1, 1))
    decisions = carry_gates(dem, np.ones(3, dtype=bool), gates, decode_gate)
    # gate 1 decodes the refined, empty syndrome and flips nothing itself:
    # its observable flips through gate 0's carried frame alone
    assert seen == [[True] * 3, [False] * 3]
    assert decisions.tolist() == [True, False]


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


def test_patience_without_delay_keeps_windowed_decisions():
    dem, dec = decomposed(build_tproxy_circuit(3, 2), 5e-3)
    pplan = plan_patience(dec, CONFIG, 3)
    assert (pplan.delay_rounds, pplan.extended) == (0, None)
    wplan = plan_tproxy_windows(dec, CONFIG)
    dets, _ = sample_dem(dem, seed=8, shots=100)
    heralded = 0
    for s in range(100):
        shot = patient_decode(dec, dets[s], CONFIG, 3, plan=pplan)
        assert not any(h.delay_rounds for h in shot.heralds)
        heralded += sum(h.heralded for h in shot.heralds)
        win = decode_tproxy_windowed(dec, dets[s], CONFIG, plan=wplan)
        assert np.array_equal(shot.decisions, shot.base_decisions)
        assert np.array_equal(shot.decisions, win.decisions), f"shot {s}"
    assert heralded
    with pytest.raises(PatienceError):
        HeraldResult(False, False, 1, False)


def pass_record(edges, committed=()):
    """A two-patch pass record from (patch, cls, u, v, weight) edges in
    global detector ids, v None for the boundary."""
    corrections = {}
    for patch in (0, 1):
        for cls in ("X", "Z"):
            mine = [e[2:] for e in edges if e[:2] == (patch, cls)]
            dets = sorted({d for u, v, _ in mine for d in (u, v) if d is not None})
            node = {d: i for i, d in enumerate(dets)}
            g = MatchingGraph(patch, cls, tuple(dets), tuple(
                GraphEdge(node[u], len(dets) if v is None else node[v], w,
                          (), (), "normal", None) for u, v, w in mine))
            corr = Correction(tuple(range(len(mine))),
                              sum(w for _, _, w in mine), ())
            corrections[patch, cls] = (g, corr)
    return PassRecord(corrections, list(committed))


def herald_trace(last_edges):
    """Pass records of patch 0's first and final passes, with noise
    around them: a commit, a heavier middle pass and another patch's
    heavy edge into the region."""
    return [pass_record([(0, "Z", 1, None, 2.0)], committed=[0]),
            pass_record([(0, "Z", 1, 2, 40.0)]),
            pass_record([(1, "Z", 9, 1, 50.0)]
                        + [(0, *e) for e in last_edges])]


@pytest.mark.parametrize("last_edges,grows", [
    ([["Z", 7, 1, 3.0]], True),
    ([["Z", 2, None, 2.0]], False),
    ([["Z", 2, None, 2.0], ["X", 5, 6, 9.0], ["X", 5, None, 4.0]], False),
], ids=["grows", "equal", "outside-region"])
def test_weight_growth_herald_reads_regional_weight(last_edges, grows):
    assert herald_weight_growth(herald_trace(last_edges),
                                frozenset({1, 2}), 0) is grows


def test_weight_growth_herald_needs_passes_of_the_patch():
    with pytest.raises(PatienceError, match="needs a protocol trace"):
        herald_weight_growth([], frozenset({1}), 0)
    with pytest.raises(PatienceError, match="no passes for patch 3"):
        herald_weight_growth(herald_trace([]), frozenset({1}), 3)


def test_patience_delay_table():
    assert [patience_delay(d, 1) for d in (3, 5, 7, 9, 11)] == [0, 1, 2, 3, 4]
    assert [patience_delay(d, 2) for d in (3, 5, 7, 9, 11)] == [0, 0, 1, 2, 3]


def test_patience_needs_delay_rounds_in_the_circuit(monkeypatch):
    # a noiseless model has every detector's time and patch, and no
    # mechanisms to extract
    dec = ghost_decompose(extract_dem(build_tproxy_circuit(9, 2)))

    def refuse(*args, **kwargs):
        raise AssertionError("graphs built before the delay check")

    # the missing rounds show in detector times alone: nothing is built
    monkeypatch.setattr(ghostdec.windows, "build_protocol_graphs", refuse)
    monkeypatch.setattr(ghostdec.patience, "build_protocol_graphs", refuse)
    with pytest.raises(WindowError, match="needs 3 delay rounds"):
        plan_patience(dec, CONFIG, 9)


def noiseless(circuit):
    return ghost_decompose(extract_dem(circuit))


def short_sliding_syndrome():
    dec = noiseless(build_memory_circuit(3, 2))
    short = np.zeros(dec.dem.detector_count - 1, dtype=bool)
    decode_memory_sliding(dec, short, plan_memory_windows(dec, 1, 0))


@pytest.mark.parametrize("call, match", [
    (lambda: WindowConfig(0), "n_buf must be at least 1"),
    (lambda: tproxy_gates(DetectorErrorModel((), 1, 1, (0,), (1,), ("Z",),
                                             (None,)), CONFIG),
     "observable 0 has no home patch"),
    (lambda: tproxy_gates(DetectorErrorModel((), 1, 1, (0,), (1,), ("Z",),
                                             (1,)), CONFIG),
     "observable 0's home patch 1 has no detectors"),
    (lambda: plan_tproxy_windows(noiseless(build_memory_circuit(3, 2)), CONFIG),
     r"expected one surviving patch, found \[\]"),
    (lambda: plan_tproxy_windows(noiseless(build_tproxy_circuit(3, 1)),
                                 WindowConfig(2)),
     "n_buf reaches back past the first round"),
    (lambda: plan_memory_windows(ghost_decompose(DetectorErrorModel(
        (), 0, 0, (), (), (), ())), 1, 0), "model has no detectors"),
    (short_sliding_syndrome, "syndrome length does not match"),
], ids=["n-buf", "homeless-observable", "home-without-detectors",
        "no-survivor", "n-buf-past-start",
        "no-detectors", "short-sliding-syndrome"])
def test_bad_window_input_raises(call, match):
    with pytest.raises(WindowError, match=match):
        call()


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


def test_plans_for_another_model_raise(patience_setup):
    # the same circuit at another noise strength is another model; an
    # equal model rebuilt from the same data is the plan's own
    dem, dec, pplan, wplan = patience_setup
    _, other = decomposed(build_tproxy_circuit(5, 2, extra_rounds=2), 8e-3)
    syndrome = np.zeros(dem.detector_count, dtype=bool)
    with pytest.raises(WindowError, match="another model"):
        decode_tproxy_windowed(other, syndrome, CONFIG, plan=wplan)
    with pytest.raises(PatienceError, match="another model"):
        patient_decode(other, syndrome, CONFIG, 5, plan=pplan)
    twin = dataclasses.replace(dec, dem=dataclasses.replace(dem))
    assert twin.dem is not dem
    assert not decode_tproxy_windowed(twin, syndrome, CONFIG,
                                      plan=wplan).decisions.any()
    assert not patient_decode(twin, syndrome, CONFIG, 5,
                              plan=pplan).decisions.any()
    mem_dem, mem = decomposed(build_memory_circuit(3, 3), 5e-3)
    _, mem_other = decomposed(build_memory_circuit(3, 3), 8e-3)
    with pytest.raises(WindowError, match="another model"):
        decode_memory_sliding(mem_other,
                              np.zeros(mem_dem.detector_count, dtype=bool),
                              plan_memory_windows(mem, 1, 1))


def test_only_ghost_free_patches_share_window_graphs(patience_setup):
    dem, dec, pplan, wplan = patience_setup
    window = wplan.windows[0]
    assert (window.lo, window.hi) == (min(dem.detector_time), 2)
    shared = {key for key, g in window.graphs.items() if g.hidden is g}
    assert shared == {(2, "X"), (2, "Z")}
    assert not any(c.role == "ghost_s" and c.patch == 2
                   for c in window.decomposed.components)


def test_closed_views_are_window_graphs_where_nothing_opens(patience_setup):
    dem, dec, pplan, _ = patience_setup
    same = other = 0
    for window in pplan.base.windows:
        graphs = window.graphs
        closed = closed_views(window)
        assert closed.keys() == graphs.keys()
        for key, g in graphs.items():
            want = [e for e in g.edges if not e.open_boundary]
            assert list(map(id, closed[key].edges)) == list(map(id, want))
            assert closed[key].detectors == g.detectors
            assert (closed[key] is g) == (len(want) == len(g.edges))
            same += closed[key] is g
            other += closed[key] is not g
        # a closed view hides ghost singletons exactly where its graph does
        for key, g in graphs.items():
            assert (closed[key].hidden is closed[key]) == (g.hidden is g)
    assert same and other


def closed_views(window):
    """The window's graphs as the complementary herald decodes them."""
    return {key: g.closed for key, g in window.graphs.items()}


def cut_chain(spatial_boundary):
    """Detectors 0, 1, 2 of patch 0 at rounds 0, 1, 2, cut after round 1:
    a cheap mechanism (1, 2) becomes detector 1's edge to the open
    temporal boundary.  With ``spatial_boundary``, detector 0 also
    reaches the spatial boundary, flipping observable 0.  Returns the
    window and its closed graphs."""
    mechs = [ErrorMechanism(0.01, (0, 1), ()), ErrorMechanism(0.1, (1, 2), ())]
    if spatial_boundary:
        mechs.append(ErrorMechanism(0.01, (0,), (0,)))
    dem = DetectorErrorModel(tuple(mechs), 3, 1, (0, 0, 0), (0, 1, 2),
                             ("Z",) * 3, (0,))
    window = build_window(ghost_decompose(dem), 0, 1)
    return window, closed_views(window)


def test_complementary_herald_fires_when_closing_the_cut_flips_the_answer():
    window, closed = cut_chain(spatial_boundary=True)
    syndrome = np.array([False, True, False])
    # open: detector 1 leaves through the cut; closed: through detector 0
    # and the spatial boundary, which flips observable 0
    base = run_ghost_protocol(window.decomposed, syndrome, graphs=window.graphs)
    assert not base.logical_flips[0]
    assert run_ghost_protocol(window.decomposed, syndrome,
                              graphs=closed).logical_flips[0]
    assert herald_complementary(window, syndrome, 0, False)
    assert not herald_complementary(window, syndrome, 0, True)
    # a pair inside the window decodes alike either way
    pair = np.array([True, True, False])
    assert not herald_complementary(window, pair, 0, False)


def test_complementary_herald_fires_on_a_stranded_defect():
    window, closed = cut_chain(spatial_boundary=False)
    syndrome = np.array([False, True, False])
    # without the cut, detector 1 has no way to any boundary
    with pytest.raises(MatchingError, match="no boundary path"):
        run_ghost_protocol(window.decomposed, syndrome, graphs=closed)
    assert herald_complementary(window, syndrome, 0, False)
    assert herald_complementary(window, syndrome, 0, True)


def test_quiet_base_run_leaves_only_opened_graphs_to_decode(patience_setup,
                                                            monkeypatch):
    # when neither run commits, the base run has decoded every graph the
    # cut leaves alone on the very syndrome the closed decode sees
    dem, dec, pplan, _ = patience_setup
    gate, window = pplan.base.gates[0], pplan.base.windows[0]
    closed = closed_views(window)
    # every graph the closed decode can see, and the base graph it views
    source = {id(view): v for g in window.graphs.values()
              for v, view in ((g, g.closed), (g.hidden, g.closed.hidden))}
    untouched = [v for g in window.graphs.values() for v in (g, g.hidden)
                 if v.closed is v]
    calls = []
    decode = ghostdec.matching.decode_mwpm

    def counted(graph, *args):
        calls.append(graph)
        return decode(graph, *args)

    monkeypatch.setattr(ghostdec.matching, "decode_mwpm", counted)
    dets, _ = sample_dem(dem, seed=47, shots=200)
    checked = 0
    for s in range(200):
        base = run_ghost_protocol(window.decomposed, dets[s],
                                  graphs=window.graphs)
        if base.passes_with_commits:
            continue
        calls.clear()
        herald_complementary(window, dets[s], gate.observable,
                             bool(base.logical_flips[gate.observable]))
        # a closed-run commit changes what the untouched graphs see
        if run_ghost_protocol(window.decomposed, dets[s],
                              graphs=closed).passes_with_commits:
            continue
        assert all(any(e.open_boundary for e in source[id(g)].edges)
                   for g in calls), f"shot {s}"
        checked += any(dets[s][list(g.detectors)].any() for g in untouched)
    assert checked > 20


@pytest.mark.parametrize("lo, hi", [(1, 2), (1, 5), (1, 4), (3, 6), (5, 5)])
def test_slice_keeps_detectors_and_whole_pairs(patience_setup, lo, hi):
    dem, dec, _, _ = patience_setup
    time = dem.detector_time
    sliced = _slice_components(dec, lo, hi)
    for model in (dec, sliced):
        # ghost commits look pairs up by id, the mechanism id both ends
        # keep in the slice
        for pid, (ge, gs) in model.pairs.items():
            assert ge.mech_id == gs.mech_id == pid
    kept = [c for c in dec.components
            if all(time[d] >= lo for d in c.detectors)
            and any(time[d] <= hi for d in c.detectors)]
    assert 0 < len(kept) < len(dec.components)
    assert len(sliced.components) == len(kept)
    ids = {orig.index for orig in kept}
    assert [c.index for c in sliced.components] == [c.index for c in kept]
    alive = [(pid, ge.index, gs.index) for pid, (ge, gs) in dec.pairs.items()
             if ge.index in ids and gs.index in ids]
    assert [(pid, ge.index, gs.index)
            for pid, (ge, gs) in sliced.pairs.items()] == alive
    for ge, gs in sliced.pairs.values():
        assert (ge.role, gs.role) == ("ghost_e", "ghost_s")
    ghosts = [c for c in sliced.components if c.role != "normal"]
    assert len(ghosts) == 2 * len(sliced.pairs)
    opened = 0
    for orig, c in zip(kept, sliced.components):
        assert c.mech_id == orig.mech_id
        assert (set(c.detectors) | set(c.cut_partners)
                == set(orig.detectors) | set(orig.cut_partners))
        assert c.partner == (orig.partner if orig.partner in ids else None)
        lost = any(time[d] > hi for d in orig.detectors)
        broken = orig.role == "ghost_s" and c.role == "normal"
        witness = dec.pairs[orig.mech_id][0] if broken else None
        assert c.open_boundary == (lost or broken and all(
            time[d] > hi for d in witness.detectors))
        opened += c.open_boundary
        # a component the cut leaves as it is stays the model's object
        assert (c is orig) == (c == orig)
    # a patch-class is changed exactly where a component is dropped or
    # rewritten
    assert sliced.source is dec
    by_index = {c.index: c for c in sliced.components}
    assert sliced.changed == {(c.patch, c.cls) for c in dec.components
                              if by_index.get(c.index) is not c}
    assert (opened > 0) == (hi < max(time))


@pytest.mark.parametrize("witness_time, lo, is_open", [(2, 1, True),
                                                      (0, 1, False)])
def test_broken_singleton_opens_when_its_witness_lies_above_the_cut(
        witness_time, lo, is_open):
    # witness (0, 1) on patch 0, singleton 2 on patch 1 at round 1; the
    # cut [lo, 1] drops the witness from above or from below
    dem = DetectorErrorModel((ErrorMechanism(0.01, (0, 1, 2), ()),), 3, 0,
                             (0, 0, 1), (witness_time, witness_time, 1),
                             ("Z",) * 3, ())
    dec = ghost_decompose(dem)
    assert [c.role for c in dec.components] == ["ghost_e", "ghost_s"]
    sliced = _slice_components(dec, lo, 1)
    assert sliced.pairs == {}
    (gs,) = sliced.components
    assert (gs.index, gs.detectors, gs.role) == (1, (2,), "normal")
    assert gs.open_boundary is is_open
    # the singleton's patch-class is rewritten, though it loses nothing
    assert sliced.changed == {(0, "Z"), (1, "Z")}


def test_a_lost_partner_changes_its_patch_class():
    # a Y-type fault's X half lies below the cut and is dropped, so its Z
    # half, whole above the cut, loses its partner: the Z graph is the
    # window's own
    dem = DetectorErrorModel((ErrorMechanism(0.01, (0, 1), ()),), 2, 0,
                             (0, 0), (1, 0), ("Z", "X"), ())
    dec = ghost_decompose(dem)
    window = build_window(dec, 1, 1)
    (z,) = window.decomposed.components
    assert z.partner is None and dec.components[z.index].partner is not None
    assert window.decomposed.changed == {(0, "X"), (0, "Z")}
    assert not dec.graphs


def replace_slice(decomposed, lo, hi):
    """The cut as a rewrite of each kept component with
    ``dataclasses.replace``, keeping indices and mechanism ids:
    (components, pair ids, invisible)."""
    time = decomposed.dem.detector_time
    comps = decomposed.components
    kept = {c.index for c in comps
            if all(time[d] >= lo for d in c.detectors)
            and any(time[d] <= hi for d in c.detectors)}
    alive = {pid for pid, (ge, gs) in decomposed.pairs.items()
             if ge.index in kept and gs.index in kept}
    out = []
    for c in comps:
        if c.index not in kept:
            continue
        hidden = tuple(d for d in c.detectors if time[d] > hi)
        broken = c.role != "normal" and c.mech_id not in alive
        open_b = c.open_boundary or bool(hidden)
        if c.role == "ghost_s" and broken:
            witness = decomposed.pairs[c.mech_id][0]
            open_b = open_b or all(time[d] > hi for d in witness.detectors)
        out.append(dataclasses.replace(
            c, detectors=tuple(d for d in c.detectors if time[d] <= hi),
            role="normal" if broken else c.role,
            partner=c.partner if c.partner in kept else None,
            open_boundary=open_b,
            cut_partners=tuple(sorted(set(c.cut_partners) | set(hidden)))))
    return tuple(out), sorted(alive), decomposed.invisible


def test_slices_equal_the_component_rewrite(patience_setup):
    _, dec, pplan, _ = patience_setup
    _, mem = decomposed(build_memory_circuit(3, 6), 5e-3)
    cuts = [(dec, w) for w in pplan.base.windows + pplan.extended]
    for commit_rounds, buffer_rounds in ((1, 1), (2, 1), (2, 0)):
        plan = plan_memory_windows(mem, commit_rounds, buffer_rounds)
        cuts += [(mem, w) for w in plan.windows]
    assert len(cuts) == 4 + 5 + 3 + 3
    for model, w in cuts:
        sliced = w.decomposed
        assert sliced.dem is model.dem
        assert (sliced.components, list(sliced.pairs), sliced.invisible) == \
            replace_slice(model, w.lo, w.hi), (w.lo, w.hi)


# -- windows share the graphs their cut leaves alone ---------------------------


def counted_builds(monkeypatch):
    """Graphs built by ``ghost.build_matching_graph`` from now on."""
    built = []
    build = ghostdec.ghost.build_matching_graph

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(ghostdec.ghost, "build_matching_graph", counted)
    return built


def realtime_setup():
    """A fresh two-gate model's global graphs and real-time plan, set up
    in the benchmark's order."""
    dem, dec = decomposed(build_tproxy_circuit(3, 2), 5e-3)
    return dem, dec, build_protocol_graphs(dec), plan_tproxy_windows(dec,
                                                                     CONFIG)


def assert_shares_exactly_the_untouched(dec, windows):
    """Each window graph is the model's own where the cut leaves its
    patch-class as the model has it, component for component, and a
    graph of its own elsewhere; returns how many are shared."""
    shared = 0
    for w in windows:
        for key, g in w.graphs.items():
            mine = [c for c in w.decomposed.components
                    if (c.patch, c.cls) == key]
            model = [c for c in dec.components if (c.patch, c.cls) == key]
            untouched = (len(mine) == len(model)
                         and all(a is b for a, b in zip(mine, model)))
            assert (key not in w.decomposed.changed) == untouched
            assert (g is dec.graphs.get(key)) == untouched, (w.lo, w.hi, key)
            assert g == build_matching_graph(*key, mine)
            shared += untouched
    return shared


def test_windows_share_the_models_graphs_where_the_cut_leaves_them(
        patience_setup, monkeypatch):
    built = counted_builds(monkeypatch)
    dem, dec, graphs, plan = realtime_setup()
    # patch 0 in both windows, patch 1 in the second
    assert len(built) == 12
    assert assert_shares_exactly_the_untouched(dec, plan.windows) == 6
    assert all(dec.graphs[key] is g for key, g in graphs.items())
    built.clear()
    dem, _, _, _ = patience_setup
    fresh = ghost_decompose(dem)
    pplan = plan_patience(fresh, CONFIG, 5)
    # patch 0 in all four windows, patch 1 in both windows of gate 1;
    # the model builds those four graphs once, on first request
    assert len(built) == 16
    assert assert_shares_exactly_the_untouched(
        fresh, pplan.base.windows + pplan.extended) == 12
    assert sorted(fresh.graphs) == [(0, "X"), (0, "Z"), (1, "X"), (1, "Z")]


def test_decompositions_of_one_circuit_share_no_graph():
    dem, dec = decomposed(build_tproxy_circuit(3, 2), 5e-3)
    other = ghost_decompose(dem)
    ids = []
    for model in (dec, other):
        graphs = build_protocol_graphs(model)
        windows = plan_patience(model, CONFIG, 3).base.windows
        ids.append({id(g) for gs in [graphs] + [w.graphs for w in windows]
                    for g in gs.values()})
    assert ids[0] and not ids[0] & ids[1]


def unshared(window):
    """The window with graphs of its own, freshly built."""
    alone = dataclasses.replace(window.decomposed, source=None, graphs={})
    return dataclasses.replace(window, graphs=build_protocol_graphs(alone))


def test_shared_graphs_decide_as_unshared_ones(patience_setup):
    dem, dec, graphs, plan = realtime_setup()
    alone = build_protocol_graphs(dataclasses.replace(dec, graphs={}))
    assert not set(map(id, alone.values())) & set(map(id, graphs.values()))
    plan_alone = dataclasses.replace(
        plan, windows=tuple(map(unshared, plan.windows)))
    dets, _ = sample_dem(dem, seed=53, shots=200)
    for s in range(200):
        assert np.array_equal(
            decode_tproxy_windowed(dec, dets[s], CONFIG, plan=plan).decisions,
            decode_tproxy_windowed(dec, dets[s], CONFIG,
                                   plan=plan_alone).decisions), f"shot {s}"
        assert np.array_equal(decode_tproxy_global(dec, dets[s], graphs=graphs),
                              decode_tproxy_global(dec, dets[s], graphs=alone))
    dem, dec, pplan, _ = patience_setup
    alone = dataclasses.replace(
        pplan, base=dataclasses.replace(
            pplan.base, windows=tuple(map(unshared, pplan.base.windows))),
        extended=tuple(map(unshared, pplan.extended)))
    dets, _ = sample_dem(dem, seed=59, shots=200)
    retried = 0
    for s in range(200):
        shot = patient_decode(dec, dets[s], CONFIG, 5, plan=pplan)
        want = patient_decode(dec, dets[s], CONFIG, 5, plan=alone)
        assert np.array_equal(shot.decisions, want.decisions), f"shot {s}"
        assert np.array_equal(shot.base_decisions, want.base_decisions)
        assert shot.heralds == want.heralds
        retried += any(h.delay_rounds for h in shot.heralds)
    assert retried


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
        glob = run_ghost_protocol(dec, dets[s], graphs=graphs)
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


@pytest.mark.parametrize("commit_rounds, buffer_rounds, windows, digest", [
    (1, 1, 5, "beb2f2bc2c537c21"), (2, 1, 3, "cab0aca1cfd581a8"),
    (2, 0, 3, "b80a478a4ed318f4")])
def test_multi_window_sliding_decisions_are_pinned(commit_rounds, buffer_rounds,
                                                   windows, digest):
    # recorded decisions; at these settings every window size disagrees
    # with the global decode on some shots, so the digests pin the
    # sliding cut and carry, not just the global answer
    dem, dec = decomposed(build_memory_circuit(3, 6), 5e-3)
    plan = plan_memory_windows(dec, commit_rounds, buffer_rounds)
    assert len(plan.windows) == windows
    dets, _ = sample_dem(dem, seed=12, shots=150)
    flips = np.array([decode_memory_sliding(dec, dets[s], plan)
                      for s in range(150)])
    got = hashlib.sha256(np.packbits(flips).tobytes()).hexdigest()[:16]
    assert got == digest


def test_tproxy_decisions_are_pinned(patience_setup):
    # recorded windowed, global and patient decisions, base decisions and
    # both heralds per gate; the shots hold retried gates, a complementary
    # herald and a windowed decision that differs from the global one, so
    # the digest pins the cut, the carry, both heralds and the retry, not
    # just the global answer
    dem, dec, pplan, wplan = patience_setup
    graphs = build_protocol_graphs(dec)
    dets, _ = sample_dem(dem, seed=10, shots=200)
    rows, retried, differ, complementary = [], 0, 0, 0
    for s in range(200):
        win = decode_tproxy_windowed(dec, dets[s], CONFIG,
                                     plan=wplan).decisions
        glob = decode_tproxy_global(dec, dets[s], graphs=graphs)
        shot = patient_decode(dec, dets[s], CONFIG, 5, plan=pplan)
        heralds = [b for h in shot.heralds
                   for b in (h.weight_growth, h.complementary)]
        rows.append(np.concatenate([win, glob, shot.decisions,
                                    shot.base_decisions, heralds]))
        retried += sum(h.delay_rounds > 0 for h in shot.heralds)
        complementary += sum(h.complementary for h in shot.heralds)
        differ += not np.array_equal(win, glob)
    assert (retried, complementary, differ) == (3, 1, 1)
    bits = np.packbits(np.array(rows, dtype=bool))
    assert hashlib.sha256(bits.tobytes()).hexdigest()[:16] == "8e8812920977c488"


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

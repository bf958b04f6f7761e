"""Hyperedge decomposition into per-patch, per-class graph components."""

import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_deep_clifford_circuit, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.decompose import Component, DecompositionError, ghost_decompose
from ghostdec.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from ghostdec.ghost import build_protocol_graphs


def tproxy_decomposed(d=3, n=1, p=0.001):
    dem = extract_dem(apply_noise_model(build_tproxy_circuit(d, n), NoiseParams(p)))
    return dem, ghost_decompose(dem)


def synthetic(mechanisms, patches, classes, times=None, obs_count=0,
              obs_patch=(), obs_class=()):
    n = len(patches)
    return DetectorErrorModel(tuple(mechanisms), n, obs_count,
                              tuple(patches), tuple(times or [0] * n),
                              tuple(classes), tuple(obs_patch), tuple(obs_class))


# -- structural invariants -------------------------------------------------------

def test_components_are_patch_and_class_pure():
    dem, dec = tproxy_decomposed()
    for c in dec.components:
        assert 1 <= len(c.detectors) <= 2
        assert {dem.detector_patch[t] for t in c.detectors} == {c.patch}
        assert {dem.detector_class[t] for t in c.detectors} == {c.cls}


def test_xor_reconstruction():
    dem, dec = tproxy_decomposed()
    frags = {}
    for c in dec.components:
        frags.setdefault(c.mech_id, []).append(c)
    for mid, group in frags.items():
        m = dem.mechanisms[mid]
        dets = frozenset()
        obs = []
        for c in group:
            assert not dets & set(c.detectors)  # fragments are disjoint
            dets ^= frozenset(c.detectors)
            obs.extend(c.observables)
        assert dets == frozenset(m.detectors)
        assert tuple(sorted(obs)) == m.observables
    covered = set(frags) | set(dec.invisible)
    assert covered == set(range(len(dem.mechanisms)))


def test_invisible_mechanisms_have_no_detectors():
    dem = synthetic([ErrorMechanism(0.01, (0, 1), ()),
                     ErrorMechanism(0.02, (), (0,)),
                     ErrorMechanism(0.03, (1,), (0,))],
                    patches=(0, 0), classes=("Z", "Z"), obs_count=1,
                    obs_patch=(0,), obs_class=("Z",))
    dec = ghost_decompose(dem)
    assert dec.invisible == (1,)
    # no component comes from the invisible mechanism
    assert {c.mech_id for c in dec.components} == {0, 2}


@pytest.mark.parametrize("family, d", [
    ("memory", 3), ("memory", 5), ("tproxy", 3), ("tproxy", 5),
    ("deep", 3), ("deep", 5), ("deep", 7)])
def test_every_logical_fault_sets_a_detector(family, d):
    build = {"memory": lambda: build_memory_circuit(d, 3),
             "tproxy": lambda: build_tproxy_circuit(d, 2),
             "deep": lambda: build_deep_clifford_circuit(d, 1, 3)}[family]
    dem = extract_dem(apply_noise_model(build(), NoiseParams(0.001)))
    assert ghost_decompose(dem).invisible == ()


def test_ghost_pairs_span_two_patches():
    dem, dec = tproxy_decomposed()
    assert dec.pairs
    assert list(dec.pairs) == sorted(dec.pairs)
    for e, (ge, gs) in dec.pairs.items():
        assert dec.components[ge.index] is ge
        assert dec.components[gs.index] is gs
        assert ge.role == "ghost_e"
        assert gs.role == "ghost_s"
        assert len(gs.detectors) == 1
        assert ge.patch != gs.patch
        # a pair's id is the mechanism both members come from, at its
        # full probability
        assert ge.mech_id == gs.mech_id == e
        assert ge.probability == dem.mechanisms[e].probability
        assert gs.probability == ge.probability
    # every ghost component belongs to exactly one pair
    assert sum(c.role != "normal" for c in dec.components) == 2 * len(dec.pairs)


def test_canonical_hyperedge_pairs():
    dem, dec = tproxy_decomposed()
    order3 = [i for i, m in enumerate(dem.mechanisms)
              if len(m.detectors) == 3
              and len({dem.detector_patch[t] for t in m.detectors}) == 2]
    paired = dec.pairs
    timelike = 0
    for i in order3:
        m = dem.mechanisms[i]
        majority = [t for t in m.detectors
                    if sum(dem.detector_patch[s] == dem.detector_patch[t]
                           for s in m.detectors) == 2]
        if len({dem.detector_class[t] for t in majority}) == 1:
            # same-class pair on one patch: paired, with the pair as g_e
            assert i in paired
            assert sorted(paired[i][0].detectors) == sorted(majority)
            timelike += 1
        else:
            # three fragments cannot XOR back to the source as one pair
            assert i not in paired
    assert timelike  # the canonical timelike hyperedges are present


def test_pair_xor_reconstructs_source_mechanism():
    dem, dec = tproxy_decomposed()
    for e, (ge, gs) in dec.pairs.items():
        got = set(ge.detectors) ^ set(gs.detectors)
        assert got == set(dem.mechanisms[e].detectors)


def test_partner_links_are_cross_class():
    dem, dec = tproxy_decomposed()
    linked = [c for c in dec.components if c.partner is not None]
    assert linked
    for c in linked:
        other = dec.components[c.partner]
        assert other.patch == c.patch
        assert other.cls != c.cls
        assert other.partner == c.index


def test_observable_flips_ride_matching_class():
    dem, dec = tproxy_decomposed()
    for c in dec.components:
        for j in c.observables:
            if dem.observable_class[j] is None:
                continue
            # when the mechanism has a fragment on the readout class of
            # the observable's patch, the flip must sit there
            siblings = [s for s in dec.components if s.mech_id == c.mech_id]
            eligible = [s for s in siblings
                        if s.patch == dem.observable_patch[j]
                        and s.cls == dem.observable_class[j]]
            if eligible:
                assert c in eligible


# -- splitting and error reporting ----------------------------------------------

def test_deep_circuit_splits_three_detector_components():
    dem = extract_dem(apply_noise_model(build_deep_clifford_circuit(3, 1, 4),
                                        NoiseParams(0.001)))
    dec = ghost_decompose(dem)
    for c in dec.components:
        assert len(c.detectors) <= 2


def test_rejects_mechanism_spanning_three_patches():
    dem = synthetic([ErrorMechanism(0.01, (0, 1, 2), ())],
                    patches=(0, 1, 2), classes=("Z", "Z", "Z"))
    with pytest.raises(DecompositionError):
        ghost_decompose(dem)


def test_rejects_four_detectors_in_one_class():
    dem = synthetic([ErrorMechanism(0.01, (0, 1, 2, 3), ())],
                    patches=(0, 0, 0, 0), classes=("Z",) * 4)
    with pytest.raises(DecompositionError):
        ghost_decompose(dem)


@pytest.mark.parametrize("detectors, role, match", [
    ((0, 1, 2), "normal", "component with 3 detectors"),
    ((0, 1), "ghost", "unknown role 'ghost'"),
], ids=["three-detectors", "unknown-role"])
def test_component_rejects_bad_shape(detectors, role, match):
    with pytest.raises(DecompositionError, match=match):
        Component(0, 0, 0, "Z", detectors, (), 0.01, role)


def test_three_detector_split_prefers_small_time_gap():
    dem = synthetic([ErrorMechanism(0.01, (0, 1, 2), ())],
                    patches=(0, 0, 0), classes=("Z",) * 3, times=(0, 5, 6))
    dec = ghost_decompose(dem)
    dets = sorted(tuple(c.detectors) for c in dec.components)
    assert dets == [(0,), (1, 2)]


def test_three_detector_split_prefers_natural_pair():
    # (0, 1) occurs as a whole mechanism elsewhere, so the hook splits
    # along it even though (1, 2) has the smaller time gap
    dem = synthetic([ErrorMechanism(0.01, (0, 1, 2), ()),
                     ErrorMechanism(0.02, (0, 1), ())],
                    patches=(0, 0, 0), classes=("Z",) * 3, times=(0, 5, 6))
    dec = ghost_decompose(dem)
    dets = sorted(tuple(c.detectors) for c in dec.components if c.mech_id == 0)
    assert dets == [(0, 1), (2,)]


def test_two_plus_two_interpatch_gets_no_pair():
    dem = synthetic([ErrorMechanism(0.01, (0, 1, 2, 3), ())],
                    patches=(0, 0, 1, 1), classes=("Z",) * 4)
    dec = ghost_decompose(dem)
    assert not dec.pairs
    assert all(c.role == "normal" for c in dec.components)


# -- protocol graphs -------------------------------------------------------------

def test_protocol_graphs_cover_detectors_disjointly():
    dem, dec = tproxy_decomposed()
    graphs = build_protocol_graphs(dec)
    patches = sorted(set(dem.detector_patch))
    assert list(graphs) == [(p, cls) for p in patches for cls in ("Z", "X")]
    seen = set()
    for (patch, cls), g in graphs.items():
        # each graph holds only its own patch and class
        assert (g.patch, g.cls) == (patch, cls)
        assert {dem.detector_patch[t] for t in g.detectors} <= {patch}
        assert {dem.detector_class[t] for t in g.detectors} <= {cls}
        for e in g.edges:
            for ci in e.components:
                assert (dec.components[ci].patch, dec.components[ci].cls) == (
                    patch, cls)
        assert all(e.role != "ghost_s" for e in g.edges)
        assert not (seen & set(g.detectors))
        seen |= set(g.detectors)
    assert seen == {t for c in dec.components for t in c.detectors}

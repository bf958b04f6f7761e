"""Fault-site enumeration and single-fault frame propagation."""

import numpy as np
import pytest

from ghostdec.builders import NoiseParams, apply_noise_model, build_memory_circuit
from ghostdec.circuits import CircuitError
from ghostdec.frames import (CircuitSampler, FaultPropagator, FaultSite,
                             iter_fault_sites)


def noisy_memory(d=3, rounds=2, p=0.001):
    return apply_noise_model(build_memory_circuit(d, rounds), NoiseParams(p))


# -- enumeration ---------------------------------------------------------------

def test_site_count_matches_iteration():
    c = noisy_memory()
    sites = list(iter_fault_sites(c))
    assert len(sites) == c.fault_site_base[-1]
    assert [s.site_id for s in sites] == list(range(len(sites)))
    # one shared numbering: each noise instruction's sites start at its base
    first = {}
    for s in sites:
        first.setdefault(s.instr_index, s.site_id)
    noisy = [i for i, ins in enumerate(c.instructions)
             if ins.op in ("DEPOL1", "DEPOL2", "MEAS_FLIP")]
    assert sorted(first) == noisy
    assert all(first[i] == c.fault_site_base[i] for i in noisy)
    # and measurement records are numbered from the shared offsets
    for rec in c.measurements:
        ins = c.instructions[rec.instr]
        pos = 0 if rec.qubit is None else ins.targets.index(rec.qubit)
        assert rec.index == c.meas_before[rec.instr] + pos
    assert c.meas_before[-1] == len(c.measurements)


def test_site_outcome_multiplicities():
    c = noisy_memory(p=0.003)
    by_instr = {}
    for s in iter_fault_sites(c):
        by_instr.setdefault((s.instr_index, s.qubits), []).append(s)
    for (idx, _), group in by_instr.items():
        op = c.instructions[idx].op
        arg = c.instructions[idx].arg
        if op == "DEPOL1":
            assert len(group) == 3
            assert all(s.probability == pytest.approx(arg / 3) for s in group)
            assert sorted(s.pauli for s in group) == ["X", "Y", "Z"]
        elif op == "DEPOL2":
            assert len(group) == 15
            assert all(s.probability == pytest.approx(arg / 15) for s in group)
            assert len({s.pauli for s in group}) == 15
        elif op == "MEAS_FLIP":
            assert len(group) == 1
            assert group[0].pauli == "FLIP"
            assert group[0].probability == pytest.approx(arg)


def test_noiseless_circuit_has_no_sites():
    assert build_memory_circuit(3, 2).fault_site_base[-1] == 0


# -- propagation ---------------------------------------------------------------

def test_measurement_flip_hits_adjacent_detectors():
    c = noisy_memory(rounds=3)
    prop = FaultPropagator(c)
    flips = [s for s in iter_fault_sites(c) if s.pauli == "FLIP"]
    assert flips
    for s in flips[:20]:
        dets, obs = prop.propagate(s)
        # a flipped ancilla readout disturbs the detector comparing it to
        # the previous round and the one comparing it to the next
        assert 1 <= len(dets) <= 2
        assert not obs


def test_flip_fault_rejected_off_channel():
    c = noisy_memory()
    prop = FaultPropagator(c)
    idx = next(i for i, ins in enumerate(c.instructions) if ins.op == "DEPOL1")
    bad = FaultSite(0, idx, (c.instructions[idx].targets[0],), "FLIP", 0.1)
    with pytest.raises(CircuitError):
        prop.propagate(bad)


def test_propagation_is_stateless():
    c = noisy_memory()
    prop = FaultPropagator(c)
    sites = list(iter_fault_sites(c))[:40]
    first = [prop.propagate(s) for s in sites]
    second = [prop.propagate(s) for s in reversed(sites)]
    assert first == list(reversed(second))


# -- sampling ------------------------------------------------------------------

def test_sampler_seed_reproducible():
    c = noisy_memory(p=0.01)
    a = CircuitSampler(c).sample(64, np.random.default_rng(3))
    b = CircuitSampler(c).sample(64, np.random.default_rng(3))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_sampler_rejects_negative_shots():
    with pytest.raises(CircuitError, match="shots"):
        CircuitSampler(noisy_memory()).sample(-1, np.random.default_rng(0))


def test_sampler_collect_sites_consistent():
    c = noisy_memory(p=0.01)
    prop = FaultPropagator(c)
    sites = list(iter_fault_sites(c))
    dets, obs, fired = CircuitSampler(c).sample(32, np.random.default_rng(9))
    for shot in range(32):
        dd = np.zeros(c.num_detectors, dtype=bool)
        oo = np.zeros(c.num_observables, dtype=bool)
        for sid in fired[shot]:
            fd, fo = prop.propagate(sites[sid])
            for t in fd:
                dd[t] ^= True
            for t in fo:
                oo[t] ^= True
        assert np.array_equal(dd, dets[shot])
        assert np.array_equal(oo, obs[shot])

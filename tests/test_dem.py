"""DEM extraction against an independent fault-enumeration oracle."""

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_deep_clifford_circuit, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.circuits import Circuit, CircuitError, Instruction, QubitDecl
from ghostdec.dem import (DetectorErrorModel, ErrorMechanism, extract_dem,
                          sample_dem)
from ghostdec.frames import CircuitSampler, FaultPropagator, iter_fault_sites
from ghostdec.tableau import check_detector_determinism
from ghostdec.verify import frame_sim_crosscheck


def oracle_dem(circuit):
    """Merge single-fault symptoms by brute forward propagation."""
    prop = FaultPropagator(circuit)
    merged = {}
    for site in iter_fault_sites(circuit):
        key = prop.propagate(site)
        p = merged.get(key, 0.0)
        merged[key] = p * (1.0 - site.probability) + site.probability * (1.0 - p)
    return {k: v for k, v in merged.items() if k != ((), ()) and v > 0.0}


def noisy(circuit, p=0.001):
    return apply_noise_model(circuit, NoiseParams(p))


@pytest.mark.parametrize("circuit", [
    noisy(build_memory_circuit(3, 3)),
    noisy(build_tproxy_circuit(3, 1)),
    noisy(build_deep_clifford_circuit(3, 1, 1, n_qubits=2)),
    noisy(build_memory_circuit(3, 3, "X")),
], ids=["memory-d3", "tproxy-d3", "deep-d3", "memory-x-d3"])
def test_extraction_matches_forward_oracle(circuit):
    dem = extract_dem(circuit)
    expect = oracle_dem(circuit)
    got = {(m.detectors, m.observables): m.probability for m in dem.mechanisms}
    assert set(got) == set(expect)
    for key, p in expect.items():
        assert got[key] == pytest.approx(p, rel=1e-12)


def test_a_record_named_twice_flips_nothing():
    # D0 and the observable name the one record twice, D1 names it once:
    # every interpreter XORs the record into D0 and the observable twice
    ancilla = (QubitDecl(0, 0.5, 0.5, 0, "ancilla-Z"),)
    c = Circuit(ancilla, (
        Instruction("RESET_Z", (0,)),
        Instruction("DEPOL1", (0,), arg=0.1),
        Instruction("MEAS_Z", (0,)),
        Instruction("MEAS_FLIP", (0,), arg=0.1),
        Instruction("DETECTOR", (-1, -1), coords=(0.0, 0.5, 0.5)),
        Instruction("DETECTOR", (-1,), coords=(1.0, 0.5, 0.5)),
        Instruction("OBSERVABLE", (-1, -1), index=0)))
    assert c.record_parities == ((0, 0, 1, 2, 2),)
    assert check_detector_determinism(c).ok
    dem = extract_dem(c)
    assert {(m.detectors, m.observables) for m in dem.mechanisms} == {((1,), ())}
    prop = FaultPropagator(c)
    assert {prop.propagate(s) for s in iter_fault_sites(c)} == {((1,), ()), ((), ())}
    dets, obs, _ = CircuitSampler(c).sample(200, np.random.default_rng(1))
    assert not dets[:, 0].any() and not obs.any() and dets[:, 1].any()
    assert frame_sim_crosscheck(c, dem, seed=1, shots=200).ok


def test_interpatch_hyperedges_exist():
    dem = extract_dem(noisy(build_tproxy_circuit(3, 1)))
    order3 = [m for m in dem.mechanisms
              if len(m.detectors) == 3
              and len({dem.detector_patch[t] for t in m.detectors}) == 2]
    assert order3
    for m in order3:
        patches = sorted(dem.detector_patch[t] for t in m.detectors)
        assert patches[0] != patches[2]  # 2 + 1 split across the pair


def test_detector_metadata_is_total():
    c = noisy(build_tproxy_circuit(3, 1))
    dem = extract_dem(c)
    assert len(dem.detector_patch) == dem.detector_count
    assert len(dem.detector_class) == dem.detector_count
    assert len(dem.detector_time) == dem.detector_count
    assert set(dem.detector_class) <= {"X", "Z"}
    assert set(dem.detector_patch) == {0, 1}


def test_observable_readout_class():
    zmem = extract_dem(noisy(build_memory_circuit(3, 2, "Z")))
    assert zmem.observable_class == ("Z",)
    xmem = extract_dem(noisy(build_memory_circuit(3, 2, "X")))
    assert xmem.observable_class == ("X",)


def test_noiseless_circuit_yields_empty_model():
    dem = extract_dem(build_memory_circuit(3, 2))
    assert not dem.mechanisms


def test_mechanism_validation():
    with pytest.raises(Exception):
        ErrorMechanism(0.0, (0,), ())
    with pytest.raises(Exception):
        ErrorMechanism(0.6, (0,), ())
    with pytest.raises(Exception):
        ErrorMechanism(0.1, (), ())


ONE_DATA_QUBIT = (QubitDecl(0, 0.5, 0.5, 0, "data"),)


def one_qubit_circuit(*gates):
    """Reset, ``gates``, measure; one detector at the data qubit's place."""
    return Circuit(ONE_DATA_QUBIT, (
        Instruction("RESET_Z", (0,)), *(Instruction(g, (0,)) for g in gates),
        Instruction("MEAS_Z", (0,)),
        Instruction("DETECTOR", (-1,), coords=(0.0, 0.5, 0.5))))


def two_detector_model(mechanism, times=(0, 0)):
    return DetectorErrorModel((mechanism,), 2, 1, (0, 0), times, ("Z", "Z"),
                              (0,))


@pytest.mark.parametrize("build, match", [
    (lambda: two_detector_model(ErrorMechanism(0.1, (2,), ())),
     "detector out of range"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (0,), (1,))),
     "observable out of range"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (0,), ()), times=(0,)),
     "detector time map is not total"),
    (lambda: extract_dem(one_qubit_circuit("H")), r"nondeterministic detectors \[0\]"),
    (lambda: extract_dem(Circuit(ONE_DATA_QUBIT, (
        Instruction("RESET_Z", (0,)), Instruction("H", (0,)),
        Instruction("MEAS_Z", (0,)), Instruction("OBSERVABLE", (-1,), index=0)))),
     r"nondeterministic observables \[0\]"),
    (lambda: extract_dem(one_qubit_circuit()), "detector 0 at .* matches no cell"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (-1,), ())),
     r"detector ids \(-1,\) are not strictly ascending from 0"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (0,), (-1,))),
     r"observable ids \(-1,\) are not strictly ascending from 0"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (5, 0), ())),
     r"detector ids \(5, 0\) are not strictly ascending"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (1, 1), ())),
     r"detector ids \(1, 1\) are not strictly ascending"),
    (lambda: two_detector_model(ErrorMechanism(0.1, (0,), (1, 0))),
     r"observable ids \(1, 0\) are not strictly ascending"),
    (lambda: DetectorErrorModel((), 1, 2, (0,), (0,), ("Z",), (0,)),
     "observable patch map is not total"),
    (lambda: DetectorErrorModel((), 1, 1, (0,), (0,), ("Z",), (0,),
                                ("Z", "X")),
     "observable class map is not total"),
], ids=["detector-range", "observable-range", "partial-map",
        "random-detector", "random-observable", "detector-off-cell",
        "negative-detector", "negative-observable", "unsorted-detectors",
        "repeated-detector", "unsorted-observables", "partial-observable-patch",
        "partial-observable-class"])
def test_malformed_models_raise(build, match):
    with pytest.raises(CircuitError, match=match):
        build()


# -- sampling ------------------------------------------------------------------

def test_sampled_marginals_match_analytic():
    dem = extract_dem(noisy(build_memory_circuit(3, 3), p=0.01))
    shots = 200_000
    dets, _ = sample_dem(dem, seed=17, shots=shots)
    freq = dets.mean(axis=0)
    for t in range(dem.detector_count):
        prod = 1.0
        for m in dem.mechanisms:
            if t in m.detectors:
                prod *= 1.0 - 2.0 * m.probability
        marginal = 0.5 * (1.0 - prod)
        sigma = np.sqrt(marginal * (1.0 - marginal) / shots)
        assert abs(freq[t] - marginal) < 5 * sigma + 1e-9


def test_sampling_is_chunk_partition_invariant():
    dem = extract_dem(noisy(build_memory_circuit(3, 2), p=0.01))
    whole = sample_dem(dem, seed=5, shots=3000)
    parts_d = []
    parts_o = []
    done = 0
    from ghostdec.dem import SAMPLE_CHUNK
    chunk_index = 0
    while done < 3000:
        take = min(SAMPLE_CHUNK, 3000 - done)
        d, o = sample_dem(dem, seed=5, shots=take, first_chunk=chunk_index)
        parts_d.append(d)
        parts_o.append(o)
        done += take
        chunk_index += 1
    assert np.array_equal(np.vstack(parts_d), whole[0])
    assert np.array_equal(np.vstack(parts_o), whole[1])


def test_block_draws_equal_one_whole_chunk_draw():
    # the reference draws each chunk as one SAMPLE_CHUNK-row matrix and
    # XORs the fired mechanisms' symptoms by a dense product
    from ghostdec.dem import SAMPLE_BLOCK, SAMPLE_CHUNK
    dem = extract_dem(noisy(build_memory_circuit(3, 2), p=0.01))
    probs = np.array([m.probability for m in dem.mechanisms])
    det_of = np.zeros((len(probs), dem.detector_count), dtype=int)
    obs_of = np.zeros((len(probs), dem.observable_count), dtype=int)
    for e, m in enumerate(dem.mechanisms):
        det_of[e, list(m.detectors)] = 1
        obs_of[e, list(m.observables)] = 1
    shots = SAMPLE_CHUNK + SAMPLE_BLOCK + 37
    dets, obs = sample_dem(dem, seed=9, shots=shots, first_chunk=2)
    fired = []
    for chunk, size in ((2, SAMPLE_CHUNK), (3, shots - SAMPLE_CHUNK)):
        rng = np.random.default_rng([9, chunk])
        fired.append(rng.random((SAMPLE_CHUNK, len(probs)))[:size] < probs)
    fired = np.vstack(fired).astype(int)
    assert np.array_equal(dets, (fired @ det_of) % 2 == 1)
    assert np.array_equal(obs, (fired @ obs_of) % 2 == 1)
    assert dets.any(axis=1).mean() > 0.5


@pytest.mark.parametrize("args", [
    {"seed": -1, "shots": 4},
    {"seed": 0, "shots": -1},
    {"seed": 0, "shots": 4, "first_chunk": -1},
], ids=["seed", "shots", "first_chunk"])
def test_sampling_rejects_negative_input(args):
    dem = extract_dem(noisy(build_memory_circuit(3, 1)))
    with pytest.raises(CircuitError, match="non-negative"):
        sample_dem(dem, **args)

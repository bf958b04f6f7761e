"""The oracles themselves: enumeration decoder, crosscheck, weight search."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_deep_clifford_circuit, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from ghostdec.frames import CircuitSampler
from ghostdec.verify import (VerifyError, brute_force_ml_decode,
                             frame_sim_crosscheck, min_failure_weight_search)


def random_model(rng, n_mechs=9, n_dets=6, n_obs=2):
    mechs = []
    for _ in range(n_mechs):
        k = int(rng.integers(1, 4))
        dets = tuple(sorted(rng.choice(n_dets, size=k, replace=False).tolist()))
        obs = tuple(sorted(rng.choice(n_obs, size=int(rng.integers(0, n_obs + 1)),
                                      replace=False).tolist()))
        mechs.append(ErrorMechanism(float(rng.uniform(1e-4, 0.4)), dets, obs))
    return DetectorErrorModel(tuple(mechs), n_dets, n_obs,
                              (0,) * n_dets, (0,) * n_dets, ("Z",) * n_dets,
                              (0,) * n_obs, ("Z",) * n_obs)


def naive_ml(dem, want, cap):
    mechs = [m for m in dem.mechanisms if m.detectors]
    mass = {}
    count = 0
    for w in range(1, cap + 1):
        for combo in itertools.combinations(range(len(mechs)), w):
            dets = frozenset()
            obs = frozenset()
            odds = 1.0
            for i in combo:
                m = mechs[i]
                dets ^= frozenset(m.detectors)
                obs ^= frozenset(m.observables)
                odds *= m.probability / (1.0 - m.probability)
            if dets == want:
                mass[tuple(sorted(obs))] = mass.get(tuple(sorted(obs)), 0.0) + odds
                count += 1
    return mass, count


def test_enumeration_matches_naive_reference():
    rng = np.random.default_rng(2)
    tried = 0
    for _ in range(40):
        dem = random_model(rng)
        want = frozenset(int(t) for t in
                         rng.choice(6, size=int(rng.integers(1, 4)), replace=False))
        mass, count = naive_ml(dem, want, cap=4)
        if not mass:
            with pytest.raises(VerifyError):
                brute_force_ml_decode(dem, want, weight_cap=4)
            continue
        got = brute_force_ml_decode(dem, want, weight_cap=4)
        assert got.solutions == count
        best = max(mass.values())
        assert got.probability == pytest.approx(best, rel=1e-9)
        assert got.observables in [k for k, v in mass.items()
                                   if v >= best * (1 - 1e-12)]
        tried += 1
    assert tried > 20


def test_syndrome_accepts_sets_and_vectors():
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 2),
                                        NoiseParams(0.002)))
    m = next(m for m in dem.mechanisms if len(m.detectors) == 2)
    as_set = brute_force_ml_decode(dem, frozenset(m.detectors), weight_cap=2)
    v = np.zeros(dem.detector_count, dtype=bool)
    for t in m.detectors:
        v[t] = True
    as_vec = brute_force_ml_decode(dem, v, weight_cap=2)
    assert as_set == as_vec
    # a list of ids once read as a 0/1 vector, i.e. as syndrome {1}
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 1),
                                        NoiseParams(0.002)))
    assert (0, 2) in {m.detectors for m in dem.mechanisms}
    assert brute_force_ml_decode(dem, frozenset({0, 2})).solutions
    for bad in ([0, 2], (0, 2), np.zeros(dem.detector_count - 1, dtype=bool),
                np.zeros(dem.detector_count, dtype=int)):
        with pytest.raises(VerifyError):
            brute_force_ml_decode(dem, bad)


def test_unexplainable_syndrome_raises():
    dem = DetectorErrorModel((ErrorMechanism(0.01, (0,), ()),), 2, 0,
                             (0, 0), (0, 0), ("Z", "Z"), ())
    with pytest.raises(VerifyError):
        brute_force_ml_decode(dem, frozenset({1}), weight_cap=4)
    with pytest.raises(VerifyError, match="weight_cap"):
        brute_force_ml_decode(dem, frozenset({0}), weight_cap=-1)


@pytest.mark.parametrize("ids", [{-1}, {5}, {0, 5}],
                         ids=["negative", "past-the-end", "beside-a-valid-id"])
def test_syndrome_ids_outside_the_model_raise(ids):
    dem = DetectorErrorModel((ErrorMechanism(0.01, (0,), ()),), 2, 0,
                             (0, 0), (0, 0), ("Z", "Z"), ())
    bad = [t for t in ids if t != 0]
    with pytest.raises(VerifyError,
                       match=re.escape(f"ids {bad} lie outside the model")):
        brute_force_ml_decode(dem, frozenset(ids))


@pytest.mark.parametrize("ids", [{1.5}, {np.float64(1.0)}],
                         ids=["fractional", "numpy-float"])
def test_non_integer_syndrome_ids_raise(ids):
    # 1.5 once read as detector 1, through int() truncation
    dem = DetectorErrorModel((ErrorMechanism(0.01, (0,), ()),
                              ErrorMechanism(0.01, (1,), ())), 2, 0,
                             (0, 0), (0, 0), ("Z", "Z"), ())
    with pytest.raises(VerifyError, match="are not integers"):
        brute_force_ml_decode(dem, frozenset(ids))
    assert brute_force_ml_decode(dem, {np.int64(1)}).solutions == 1


@pytest.mark.parametrize("circuit", [
    apply_noise_model(build_memory_circuit(3, 3), NoiseParams(0.01)),
    apply_noise_model(build_tproxy_circuit(3, 1), NoiseParams(0.01)),
    apply_noise_model(build_deep_clifford_circuit(3, 1, 1, n_qubits=2),
                      NoiseParams(0.01)),
    apply_noise_model(build_memory_circuit(3, 3, "X"), NoiseParams(0.01)),
], ids=["memory", "tproxy", "deep", "memory-x"])
def test_crosscheck_paths_agree(circuit):
    dem = extract_dem(circuit)
    report = frame_sim_crosscheck(circuit, dem, seed=3, shots=2000)
    assert report.ok
    assert report.mismatched_shots == 0


@pytest.mark.parametrize("seed, shots", [(-1, 10), (3, -1)])
def test_crosscheck_rejects_negative_seed_or_shots(seed, shots):
    circuit = apply_noise_model(build_memory_circuit(3, 1), NoiseParams(0.01))
    with pytest.raises(VerifyError, match="non-negative"):
        frame_sim_crosscheck(circuit, extract_dem(circuit), seed, shots)


def test_crosscheck_reports_a_corrupted_mechanism():
    circuit = apply_noise_model(build_memory_circuit(3, 3), NoiseParams(0.01))
    dem = extract_dem(circuit)
    # the likeliest mechanism gains a detector it does not flip; its
    # provenance stays, so its fault sites still map to it
    e = max(range(len(dem.mechanisms)), key=lambda i: dem.mechanisms[i].probability)
    m = dem.mechanisms[e]
    extra = min(set(range(dem.detector_count)) - set(m.detectors))
    bad = dataclasses.replace(m, detectors=tuple(sorted(m.detectors + (extra,))))
    corrupted = dataclasses.replace(
        dem, mechanisms=dem.mechanisms[:e] + (bad,) + dem.mechanisms[e + 1:])
    report = frame_sim_crosscheck(circuit, corrupted, seed=3, shots=2000)
    # the paths differ exactly where an odd number of its sites fired
    _, _, fired = CircuitSampler(circuit).sample(2000, np.random.default_rng(3))
    hits = [s for s, sites in enumerate(fired)
            if len(set(m.provenance) & set(sites)) % 2]
    assert len(hits) > 1
    assert report.ok is False
    assert report.first_mismatch == hits[0]
    assert report.mismatched_shots == len(hits)


def test_weight_search_finds_planted_failure():
    # decoder that ignores the syndrome entirely: any observable-flipping
    # mechanism alone is a weight-1 witness
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 2),
                                        NoiseParams(0.002)))
    n_obs = dem.observable_count

    def blind(_syndrome):
        return np.zeros(n_obs, dtype=bool)

    region = range(len(dem.mechanisms))
    hit = min_failure_weight_search(dem, blind, region, max_weight=1)
    assert hit is not None
    assert hit.weight == 1
    assert dem.mechanisms[hit.mechanism_ids[0]].observables


def test_weight_search_respects_region():
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 2),
                                        NoiseParams(0.002)))
    n_obs = dem.observable_count
    harmless = [i for i, m in enumerate(dem.mechanisms) if not m.observables]

    def blind(_syndrome):
        return np.zeros(n_obs, dtype=bool)

    assert min_failure_weight_search(dem, blind, harmless[:5], max_weight=1) is None


def test_weight_search_rejects_bad_input():
    dem = extract_dem(apply_noise_model(build_memory_circuit(3, 2),
                                        NoiseParams(0.002)))
    n = len(dem.mechanisms)

    def blind(_syndrome):
        return np.zeros(dem.observable_count, dtype=bool)

    # a negative weight cap once read as "nothing fails", id -1 as the
    # last mechanism, and an id past the end as an IndexError
    with pytest.raises(VerifyError, match="max_weight"):
        min_failure_weight_search(dem, blind, range(n), max_weight=-1)
    for region in ([0, -1], [n], [n - 1, n + 5]):
        with pytest.raises(VerifyError, match="region"):
            min_failure_weight_search(dem, blind, region, max_weight=1)
    assert min_failure_weight_search(dem, blind, [], max_weight=1) is None

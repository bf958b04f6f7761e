"""The oracles themselves: enumeration decoder, crosscheck, weight search."""

import itertools

import numpy as np
import pytest

from ghostdec.builders import (NoiseParams, apply_noise_model, build_memory_circuit,
                               build_tproxy_circuit)
from ghostdec.dem import DetectorErrorModel, ErrorMechanism, extract_dem
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


@pytest.mark.parametrize("circuit", [
    apply_noise_model(build_memory_circuit(3, 3), NoiseParams(0.01)),
    apply_noise_model(build_tproxy_circuit(3, 1), NoiseParams(0.01)),
], ids=["memory", "tproxy"])
def test_crosscheck_paths_agree(circuit):
    dem = extract_dem(circuit)
    report = frame_sim_crosscheck(circuit, dem, seed=3, shots=2000)
    assert report.ok
    assert report.mismatched_shots == 0


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

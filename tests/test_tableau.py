"""Exactness checks for the symbolic stabilizer simulator.

Measurement outcomes are symbolic parities over coin bits (one coin per
random measurement), so determinism of any parity of outcomes is checked
algebraically rather than statistically.
"""

import hashlib

import numpy as np
import pytest

from ghostdec.builders import build_memory_circuit, build_tproxy_circuit
from ghostdec.circuits import Circuit, Instruction, QubitDecl
from ghostdec.tableau import StabilizerSimulator, check_detector_determinism


def coin_part(form: int) -> int:
    return form >> 1


def measure(sim, x_qubits, z_qubits, sign_bit=0):
    xp = np.zeros(sim.n, dtype=bool)
    zp = np.zeros(sim.n, dtype=bool)
    xp[list(x_qubits)] = True
    zp[list(z_qubits)] = True
    return sim.measure_pauli(xp, zp, sign_bit)


def test_fresh_qubit_measures_zero():
    sim = StabilizerSimulator(1)
    assert sim.measure_z(0) == 0


def test_plus_state_measurement_is_a_fresh_coin():
    sim = StabilizerSimulator(1)
    sim.h(0)
    form = sim.measure_z(0)
    assert coin_part(form) != 0
    # collapsed: measuring again gives the same symbolic outcome
    assert sim.measure_z(0) == form


def test_bell_pair_outcomes_correlate_exactly():
    sim = StabilizerSimulator(2)
    sim.h(0)
    sim.cx(0, 1)
    a = sim.measure_z(0)
    b = sim.measure_z(1)
    assert coin_part(a) != 0
    assert a ^ b == 0


def test_ghz_parity_deterministic():
    sim = StabilizerSimulator(3)
    sim.h(0)
    sim.cx(0, 1)
    sim.cx(1, 2)
    forms = [sim.measure_z(q) for q in range(3)]
    assert forms[0] ^ forms[1] == 0
    assert forms[1] ^ forms[2] == 0


def test_negative_pauli_product_sign():
    sim = StabilizerSimulator(1)
    sim.h(0)
    sim.z_gate(0)
    # state |->: measuring -X gives +1
    assert measure(sim, [0], [], 1) == 0
    assert measure(sim, [0], [], 0) == 1


def test_reset_discards_random_outcome():
    sim = StabilizerSimulator(1)
    sim.h(0)
    sim.reset_z(0)
    assert sim.measure_z(0) == 0


def test_reset_x_gives_plus_state():
    sim = StabilizerSimulator(1)
    sim.h(0)
    sim.z_gate(0)   # |->: reset must fix the sign
    sim.reset_x(0)
    assert measure(sim, [0], [], 0) == 0


def test_two_qubit_pauli_product_on_bell_state():
    sim = StabilizerSimulator(2)
    sim.h(0)
    sim.cx(0, 1)
    assert measure(sim, [0, 1], [], 0) == 0   # XX
    assert measure(sim, [], [0, 1], 0) == 0   # ZZ
    # YY = -XX*ZZ on two qubits
    assert measure(sim, [0, 1], [0, 1], 0) == 1


def test_random_circuits_preserve_group_structure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 4
        sim = StabilizerSimulator(n)
        for _ in range(30):
            if rng.integers(2):
                sim.h(int(rng.integers(n)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                sim.cx(int(a), int(b))
        # measuring any full stabilizer twice is reproducible
        forms = [sim.measure_z(q) for q in range(n)]
        again = [sim.measure_z(q) for q in range(n)]
        assert forms == again


def _toy_circuit(instructions) -> Circuit:
    qubits = (QubitDecl(0, 0.5, 0.5, 0, "data"), QubitDecl(1, 1.5, 0.5, 0, "data"))
    return Circuit(qubits, tuple(instructions))


def test_checker_flags_nondeterministic_detector():
    # the random outcome is read by a detector and by an observable
    ins = [
        Instruction("RESET_Z", (0,)),
        Instruction("H", (0,)),
        Instruction("MEAS_Z", (0,)),
        Instruction("DETECTOR", (-1,), coords=(0.0, 0.0, 0.0)),
        Instruction("OBSERVABLE", (-1,), index=0),
    ]
    rep = check_detector_determinism(_toy_circuit(ins))
    assert not rep.ok
    assert rep.nondeterministic_detectors == [0]
    assert rep.nondeterministic_observables == [0]
    assert rep.nonzero_detectors == rep.nonzero_observables == []


def test_checker_flags_wrong_constant_parity():
    # the outcome is always 1, read by a detector and by an observable
    ins = [
        Instruction("RESET_Z", (0,)),
        Instruction("X", (0,)),
        Instruction("MEAS_Z", (0,)),
        Instruction("DETECTOR", (-1,), coords=(0.0, 0.0, 0.0)),
        Instruction("OBSERVABLE", (-1,), index=0),
    ]
    rep = check_detector_determinism(_toy_circuit(ins))
    assert not rep.ok
    assert rep.nonzero_detectors == [0]
    assert rep.nonzero_observables == [0]
    assert rep.nondeterministic_detectors == rep.nondeterministic_observables == []


def test_checker_passes_memory():
    rep = check_detector_determinism(build_memory_circuit(3, 3, "Z"))
    assert rep.ok
    assert len(rep.measurement_forms) == 8 * 3 + 9


def test_checker_ignores_noise_instructions():
    from ghostdec.builders import NoiseParams, apply_noise_model

    noisy = apply_noise_model(build_memory_circuit(3, 2, "Z"), NoiseParams(0.01))
    assert check_detector_determinism(noisy).ok


# -- the batched kernels against one-row-at-a-time references ------------------


def reference_rowsum(x, z, signs, h, i):
    """Row h := (row i) * (row h) with CHP's per-column g, one row at a time."""
    x1, z1 = x[i].astype(np.int8), z[i].astype(np.int8)
    x2, z2 = x[h].astype(np.int8), z[h].astype(np.int8)
    g = np.where((x1 == 1) & (z1 == 1), z2 - x2,
                 np.where((x1 == 1) & (z1 == 0), z2 * (2 * x2 - 1),
                          np.where((x1 == 0) & (z1 == 1), x2 * (1 - 2 * z2), 0)))
    tot = int(g.sum()) % 4
    assert tot in (0, 2)
    signs[h] ^= signs[i] ^ (tot // 2)
    x[h] ^= x[i]
    z[h] ^= z[i]


def random_pauli(rng, n):
    """A random Pauli product on at least one qubit, Y factors included."""
    while True:
        xp, zp = rng.random(n) < 0.3, rng.random(n) < 0.3
        if (xp | zp).any():
            return xp, zp


def random_tableau(rng, n=6, steps=40):
    """A simulator driven by random Clifford gates and Pauli-product
    measurements; its signs carry coins from the random outcomes."""
    sim = StabilizerSimulator(n)
    for _ in range(steps):
        k = int(rng.integers(5))
        q = int(rng.integers(n))
        if k == 0:
            sim.h(q)
        elif k == 1:
            a, b = rng.choice(n, size=2, replace=False)
            sim.cx(int(a), int(b))
        elif k == 2:
            (sim.x_gate, sim.y_gate, sim.z_gate)[int(rng.integers(3))](q)
        else:
            sim.measure_pauli(*random_pauli(rng, n), int(rng.integers(2)))
    return sim


def test_tableaux_hold_y_factors_and_coins():
    rng = np.random.default_rng(11)
    sims = [random_tableau(rng) for _ in range(10)]
    assert all(s.num_coins for s in sims)
    assert any((s.x & s.z).any() for s in sims)


def test_batched_rowsum_equals_one_row_at_a_time():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        sim = random_tableau(rng)
        n = sim.n
        # a stabilizer row commutes with every row but its destabilizer
        i = n + int(rng.integers(n))
        others = [h for h in range(2 * n) if h not in (i, i - n)]
        hs = np.sort(rng.choice(others, size=int(rng.integers(1, len(others))),
                                replace=False))
        x, z, signs = sim.x.copy(), sim.z.copy(), list(sim.signs)
        for h in hs.tolist():
            reference_rowsum(x, z, signs, h, i)
        sim._rowsum(hs, i)
        assert np.array_equal(sim.x, x) and np.array_equal(sim.z, z)
        assert sim.signs == signs
        checked += len(hs)
    assert checked > 200


def test_support_mask_equals_full_symplectic_product():
    rng = np.random.default_rng(8)
    for _ in range(40):
        sim = random_tableau(rng)
        for _ in range(5):
            xp, zp = random_pauli(rng, sim.n)
            full = ((sim.x & zp).sum(axis=1) + (sim.z & xp).sum(axis=1)) % 2 == 1
            assert np.array_equal(sim._anticommute_mask(xp, zp), full)


def test_deterministic_outcome_is_the_stabilizer_product_sign():
    # a product of stabilizer rows, accumulated one row at a time into a
    # scratch row, is measured with exactly the accumulated sign
    rng = np.random.default_rng(9)
    for _ in range(40):
        sim = random_tableau(rng)
        n = sim.n
        x = np.vstack([sim.x, np.zeros(n, dtype=bool)])
        z = np.vstack([sim.z, np.zeros(n, dtype=bool)])
        signs = sim.signs + [0]
        for r in (n + np.flatnonzero(rng.random(n) < 0.5)).tolist():
            reference_rowsum(x, z, signs, 2 * n, r)
        coins = sim.num_coins
        assert sim.measure_pauli(x[2 * n], z[2 * n]) == signs[2 * n]
        assert sim.num_coins == coins


def forms_digest(forms) -> str:
    h = hashlib.sha256()
    for f in forms:
        h.update(f.to_bytes((f.bit_length() + 8) // 8, "little"))
        h.update(b"|")
    return h.hexdigest()


def test_tproxy_measurement_forms_are_pinned():
    # recorded with the one-row-at-a-time oracle, before batching
    rep = check_detector_determinism(build_tproxy_circuit(5, 2))
    assert rep.ok and len(rep.measurement_forms) == 411
    assert forms_digest(rep.measurement_forms) == (
        "fc1658b50ff87aafe6160706e3416888e5121e4ddd3dec76a47619e9aec16a0b")

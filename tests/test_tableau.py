"""Exactness checks for the symbolic stabilizer simulator.

Measurement outcomes are symbolic parities over coin bits (one coin per
random measurement), so determinism of any parity of outcomes is checked
algebraically rather than statistically.
"""

import numpy as np
import pytest

from ghostdec.builders import CircuitBuilder, build_memory_circuit
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


def test_s_squared_flips_x_eigenstate():
    sim = StabilizerSimulator(1)
    sim.h(0)
    sim.s(0)
    sim.s(0)
    # Z|+> = |->, so measuring X gives -1 deterministically
    form = measure(sim, [0], [], 0)
    assert form == 1


def test_s_gate_turns_plus_into_y_eigenstate():
    sim = StabilizerSimulator(1)
    sim.h(0)
    sim.s(0)
    form = measure(sim, [0], [0], 0)  # measure Y
    assert form == 0


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
    sim.s(0)
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
            k = rng.integers(3)
            if k == 0:
                sim.h(int(rng.integers(n)))
            elif k == 1:
                sim.s(int(rng.integers(n)))
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

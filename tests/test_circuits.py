"""Circuit builders, noise application, and circuit validation."""

import pytest

from ghostdec.builders import (CircuitBuilder, NoiseParams, PauliStringTracker,
                               apply_noise_model, build_deep_clifford_circuit,
                               build_memory_circuit, build_tproxy_circuit)
from ghostdec.circuits import Circuit, CircuitError, Instruction, QubitDecl
from ghostdec.tableau import check_detector_determinism


# -- memory ------------------------------------------------------------------

def test_memory_d3_counts():
    c = build_memory_circuit(3, 3, "Z")
    assert len(c.qubits) == 9 + 8
    assert c.num_detectors == 24  # 4 + 8 + 8 + 4
    assert c.num_observables == 1


def test_memory_single_round_counts():
    c = build_memory_circuit(3, 1, "Z")
    assert c.num_detectors == 8  # 4 first-round + 4 readout


def test_memory_x_basis_symmetric():
    c = build_memory_circuit(3, 3, "X")
    assert c.num_detectors == 24
    assert check_detector_determinism(c).ok


@pytest.mark.parametrize("d,rounds", [(3, 1), (3, 4), (5, 2)])
def test_memory_determinism(d, rounds):
    assert check_detector_determinism(build_memory_circuit(d, rounds)).ok


def test_memory_rejects_bad_parameters():
    with pytest.raises(CircuitError):
        build_memory_circuit(4, 3)
    with pytest.raises(CircuitError):
        build_memory_circuit(3, 0)


# -- transversal CNOT detector structure ---------------------------------------

def test_cnot_round_detectors_use_three_measurements():
    c = build_tproxy_circuit(3, 1)
    # patch 1 (target) occupies x in [5, 10); its Z detectors in the round
    # after the CNOT must reference three measurements
    post = [det for det in c.detectors
            if det.coords[0] == 2 and det.coords[1] > 4]
    three = [det for det in post if len(det.meas) == 3]
    assert three, "expected three-measurement detectors on the partner patch"


def test_cnot_requires_prepared_patches():
    b = CircuitBuilder(3, 2)
    b.prep([0], "Z")
    with pytest.raises(CircuitError):
        b.transversal_cnot(0, 1)


def one_patch(prepped=True, rounds=0):
    """A d=3 one-patch builder, prepared in Z with ``rounds`` rounds run."""
    b = CircuitBuilder(3, 1)
    if prepped:
        b.prep([0], "Z")
    b.run_rounds(rounds)
    return b


@pytest.mark.parametrize("build, match", [
    (lambda: one_patch(False).prep([0], "Y"), "prep basis must be Z or X"),
    (lambda: one_patch().prep([0], "X"), "patch 0 already prepared"),
    (lambda: one_patch(False).run_round(), "before all live patches"),
    (lambda: one_patch().transversal_gate(0, "S"),
     "unsupported transversal gate 'S'"),
    (lambda: one_patch(False).transversal_gate(0, "H"), "patch 0 is not active"),
    (lambda: CircuitBuilder(3, 2).transversal_cnot(0, 0), "must differ"),
    (lambda: one_patch().readout(0), "patch 0 cannot be read out"),
    (lambda: one_patch(rounds=1).readout(0, "Y"),
     "readout basis must be Z or X"),
    (lambda: PauliStringTracker(1, 1).apply_1q("S", [0]),
     "cannot track gate 'S'"),
    (lambda: build_tproxy_circuit(3, 0), "at least one gate"),
    (lambda: build_deep_clifford_circuit(3, 1, 0), "at least one layer"),
    (lambda: build_deep_clifford_circuit(3, 1, 1, seed=-1),
     "seed must be non-negative"),
], ids=["prep-basis", "second-prep", "round-before-prep", "gate-s",
        "gate-unprepared", "cnot-self", "readout-before-round",
        "readout-basis", "track-s", "tproxy-no-gates", "deep-no-layers",
        "deep-negative-seed"])
def test_builder_misuse_raises(build, match):
    with pytest.raises(CircuitError, match=match):
        build()


# -- T-gate proxy ---------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (5, 1)])
def test_tproxy_determinism(d, n):
    c = build_tproxy_circuit(d, n)
    assert check_detector_determinism(c).ok
    assert c.num_observables == n


def test_tproxy_round_structure():
    c = build_tproxy_circuit(3, 2, n_buf=1)
    # rounds: 1 init + per gate (1 buf [+2 sep gap]) + tail 2
    times = sorted({det.coords[0] for det in c.detectors})
    assert times == [1, 2, 3, 4, 5, 6, 7]


def test_tproxy_extra_rounds_extend_tail():
    base = build_tproxy_circuit(3, 1, extra_rounds=0)
    ext = build_tproxy_circuit(3, 1, extra_rounds=2)
    t0 = max(det.coords[0] for det in base.detectors)
    t1 = max(det.coords[0] for det in ext.detectors)
    assert t1 == t0 + 2


def test_tproxy_rejects_small_buffer():
    with pytest.raises(CircuitError):
        build_tproxy_circuit(3, 1, n_buf=0)
    with pytest.raises(CircuitError, match="extra_rounds"):
        build_tproxy_circuit(3, 1, extra_rounds=-2)


# -- deep transversal Clifford ---------------------------------------------------

def test_deep_clifford_reproducible():
    a = build_deep_clifford_circuit(3, 1, 8, seed=3)
    b = build_deep_clifford_circuit(3, 1, 8, seed=3)
    c = build_deep_clifford_circuit(3, 1, 8, seed=4)
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed", range(4))
def test_deep_clifford_determinism(seed):
    c = build_deep_clifford_circuit(3, 1, 8, seed=seed)
    rep = check_detector_determinism(c)
    assert rep.ok
    assert c.num_observables == 4


def test_deep_clifford_layer_rounds():
    c = build_deep_clifford_circuit(3, 2, 5, seed=0)
    times = sorted({det.coords[0] for det in c.detectors})
    assert times == list(range(1, 11))


def test_deep_clifford_rejects_odd_qubit_count():
    with pytest.raises(CircuitError):
        build_deep_clifford_circuit(3, 1, 4, n_qubits=3)
    with pytest.raises(CircuitError, match="syndrome round"):
        build_deep_clifford_circuit(3, 0, 1)


# -- noise ------------------------------------------------------------------------

def test_noise_channel_counts_match_gates():
    c = build_memory_circuit(3, 2)
    noisy = apply_noise_model(c, NoiseParams(0.01))
    n_cx = sum(len(i.target_pairs()) for i in c.instructions if i.op == "CX")
    n_dep2 = sum(len(i.target_pairs()) for i in noisy.instructions if i.op == "DEPOL2")
    assert n_dep2 == n_cx
    n_meas = sum(len(i.targets) for i in c.instructions if i.op == "MEAS_Z")
    n_flip = sum(len(i.targets) for i in noisy.instructions if i.op == "MEAS_FLIP")
    assert n_flip == n_meas


def test_noise_application_rejects_noisy_input():
    noisy = apply_noise_model(build_memory_circuit(3, 1), NoiseParams(0.01))
    with pytest.raises(CircuitError):
        apply_noise_model(noisy, NoiseParams(0.01))


def test_zero_noise_leaves_circuit_unchanged():
    c = build_memory_circuit(3, 2)
    assert apply_noise_model(c, NoiseParams(0.0)) == c


def test_final_pauli_products_stay_noiseless():
    c = build_deep_clifford_circuit(3, 1, 2, seed=0)
    noisy = apply_noise_model(c, NoiseParams(0.01))
    saw_mpp = False
    for ins in noisy.instructions:
        if ins.op == "MPP":
            saw_mpp = True
        elif saw_mpp and ins.op not in ("TICK", "OBSERVABLE", "DETECTOR"):
            pytest.fail(f"instruction {ins.op} after final products")
    assert saw_mpp


def test_single_qubit_noise_defaults_to_tenth():
    p1, p2, pf = NoiseParams(0.01).resolve()
    assert p1 == pytest.approx(0.001)
    assert p2 == 0.01
    assert pf == 0.01


def test_noise_rejects_out_of_range():
    with pytest.raises(CircuitError):
        apply_noise_model(build_memory_circuit(3, 1), NoiseParams(0.6))


# -- validation ----------------------------------------------------------------------

DATA_QUBIT = (QubitDecl(0, 0.5, 0.5, 0, "data"),)


def test_circuit_rejects_unknown_op():
    with pytest.raises(CircuitError, match="FROB"):
        Circuit(DATA_QUBIT, (Instruction("FROB", (0,)),))


def test_circuit_rejects_out_of_range_record():
    ins = (Instruction("MEAS_Z", (0,)),
           Instruction("DETECTOR", (-2,), coords=(0, 0, 0)))
    with pytest.raises(CircuitError, match="record offset -2"):
        Circuit(DATA_QUBIT, ins)


TWO_QUBITS = (QubitDecl(0, 0.5, 0.5, 0, "data"),
              QubitDecl(1, 1.5, 0.5, 0, "data"))
THREE_QUBITS = TWO_QUBITS + (QubitDecl(2, 2.5, 0.5, 0, "data"),)
MEAS = Instruction("MEAS_Z", (0,))


def on_two_qubits(*instructions):
    return lambda: Circuit(TWO_QUBITS, instructions)


@pytest.mark.parametrize("build, match", [
    (lambda: QubitDecl(0, 0.5, 0.5, 0, "spare"), "unknown qubit kind"),
    (lambda: Circuit(TWO_QUBITS[:1] + (QubitDecl(0, 1.5, 0.5, 0, "data"),), ()),
     "duplicate qubit ids"),
    (lambda: Circuit(TWO_QUBITS[:1] + (QubitDecl(1, 0.5, 0.5, 0, "data"),), ()),
     "duplicate qubit coordinates"),
    (on_two_qubits(Instruction("S", (0,))), "unknown op 'S'"),
    (on_two_qubits(Instruction("H", (0, 2))), r"undeclared qubits \[2\]"),
    (on_two_qubits(Instruction("RESET_Z")), "RESET_Z with no targets"),
    (on_two_qubits(Instruction("MPP", paulis=((0, "Z"),)),
                   Instruction("H", (0,))), "may follow the first MPP"),
    (on_two_qubits(Instruction("CX", (0, 1, 0))), "even number of targets"),
    (on_two_qubits(Instruction("CX", (1, 1))), "targets the same qubit 1"),
    # each qubit at most once per instruction: the extractor's backward
    # pass would apply these CXs out of order, and both MEAS_FLIP flips
    # would be read as the first record's
    (lambda: Circuit(THREE_QUBITS, (Instruction("CX", (0, 1, 1, 2)),)),
     "targets the same qubit 1 twice"),
    (on_two_qubits(Instruction("MEAS_Z", (0, 0)),
                   Instruction("MEAS_FLIP", (0, 0), arg=0.01)),
     "MEAS_Z repeats a qubit: it targets the same qubit 0 twice"),
    (on_two_qubits(Instruction("DEPOL1", (0,))), "must lie in"),
    (on_two_qubits(Instruction("DEPOL2", (0, 1), arg=0.5)), "must lie in"),
    (on_two_qubits(Instruction("MEAS_FLIP", (0,), arg=0.1)),
     "MEAS_FLIP must directly follow"),
    (on_two_qubits(MEAS, Instruction("MEAS_FLIP", (1,), arg=0.1)),
     "MEAS_FLIP must directly follow"),
    (on_two_qubits(Instruction("MPP", paulis=())), "empty Pauli product"),
    (on_two_qubits(Instruction("MPP", paulis=((0, "Z"), (0, "X")))),
     "repeats a qubit"),
    (on_two_qubits(Instruction("MPP", paulis=((2, "Z"),))),
     "undeclared qubit 2"),
    (on_two_qubits(Instruction("MPP", paulis=((0, "I"),))), "invalid Pauli"),
    (on_two_qubits(MEAS, Instruction("DETECTOR", (0,), coords=(0, 0, 0))),
     "record offset 0"),
    (on_two_qubits(MEAS, Instruction("DETECTOR", (-1,))), "coords"),
    (on_two_qubits(MEAS, Instruction("OBSERVABLE", (-1,))), "needs an index"),
    (on_two_qubits(MEAS, Instruction("OBSERVABLE", (-1,), index=1)),
     "contiguous from 0"),
], ids=["qubit-kind", "duplicate-id", "duplicate-coords", "s-gate",
        "undeclared-target", "empty-targets", "op-after-mpp", "odd-pairs",
        "self-pair", "cx-shared-qubit", "repeated-measurement",
        "noise-without-probability", "noise-probability-high",
        "lone-meas-flip", "meas-flip-other-targets", "mpp-empty",
        "mpp-repeat", "mpp-undeclared", "mpp-pauli", "record-offset",
        "detector-coords", "observable-index", "observable-gap"])
def test_malformed_circuits_raise(build, match):
    with pytest.raises(CircuitError, match=match):
        build()

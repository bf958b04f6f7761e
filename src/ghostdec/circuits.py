"""Stabilizer-circuit intermediate representation.

A circuit is a flat list of instructions over declared qubits, checked
when it is built.  Supported operations:

* Clifford gates ``H X Y Z CX``
* ``RESET_Z`` / ``RESET_X`` and ``MEAS_Z`` (single-qubit, Z basis)
* ``MPP`` multi-qubit Pauli-product measurement (optionally negated),
  only permitted at the end of a circuit and never followed by noise
* noise channels ``DEPOL1(p)``, ``DEPOL2(p)`` and ``MEAS_FLIP(p)``
* ``TICK`` time-step markers (idle noise is counted per tick)
* ``DETECTOR(t,x,y)`` / ``OBSERVABLE(n)`` parity annotations over
  measurement-record offsets ``rec[-k]``

An instruction names each qubit at most once, so its targets act on
disjoint qubits in any order.  The interpreters (tableau, frames, dem)
share these conventions and keep only their own propagation: qubit
columns (:attr:`Circuit.columns`), record numbering
(:attr:`Circuit.meas_before`), the parities each record enters
(:attr:`Circuit.record_parities`), fault-site numbering
(:attr:`Circuit.fault_site_base`, :data:`DEPOL1_OUTCOMES`,
:data:`DEPOL2_OUTCOMES`), Pauli (x, z) bits (:data:`PAULI_BITS`) and the
op groups :data:`NOISE_OPS` and :data:`ANNOTATION_OPS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

GATES_1Q = ("H", "X", "Y", "Z")
GATES_2Q = ("CX",)
RESETS = ("RESET_Z", "RESET_X")
NOISE_OPS = ("DEPOL1", "DEPOL2", "MEAS_FLIP")
ANNOTATION_OPS = ("TICK", "DETECTOR", "OBSERVABLE")
PAIRWISE_OPS = ("CX", "DEPOL2")
# ops whose targets are qubit ids
QUBIT_OPS = GATES_1Q + GATES_2Q + RESETS + NOISE_OPS + ("MEAS_Z",)
ALL_OPS = QUBIT_OPS + ("MPP",) + ANNOTATION_OPS

PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

# Pauli outcomes of the depolarizing channels in fault-site order, one
# (x, z) bit pair per target qubit: DEPOL1 is X, Y, Z, and DEPOL2's
# outcome v = 1..15 has the bits (xa, za, xb, zb) of v, highest first.
DEPOL1_OUTCOMES = ((1, 0), (1, 1), (0, 1))
DEPOL2_OUTCOMES = tuple(((v >> 3 & 1, v >> 2 & 1), (v >> 1 & 1, v & 1))
                        for v in range(1, 16))

KIND_DATA = "data"
KIND_ANCILLA_X = "ancilla-X"
KIND_ANCILLA_Z = "ancilla-Z"
QUBIT_KINDS = (KIND_DATA, KIND_ANCILLA_X, KIND_ANCILLA_Z)


class CircuitError(ValueError):
    """Raised for malformed circuits and models and for invalid builder or
    sampler input; the base of every ghostdec error."""


@dataclass(frozen=True)
class QubitDecl:
    """Declaration of one physical qubit with lattice metadata."""

    id: int
    x: float
    y: float
    patch: int
    kind: str

    def __post_init__(self):
        if self.kind not in QUBIT_KINDS:
            raise CircuitError(f"unknown qubit kind {self.kind!r}")


@dataclass(frozen=True)
class Instruction:
    """One circuit instruction.

    ``targets`` holds qubit ids for gates and flat pairs for CX/DEPOL2,
    and negative record offsets for DETECTOR/OBSERVABLE.  ``arg`` is the
    channel probability for noise ops.  ``coords`` is the (t, x, y)
    detector annotation and ``index`` the observable index.  ``paulis``
    holds ((qubit, letter), ...) for MPP with ``sign`` 1 when negated.
    """

    op: str
    targets: tuple[int, ...] = ()
    arg: float | None = None
    coords: tuple[float, ...] | None = None
    index: int | None = None
    paulis: tuple[tuple[int, str], ...] | None = None
    sign: int = 0

    @property
    def qubits(self) -> tuple[int, ...]:
        """The qubit ids this instruction acts on, each at most once."""
        if self.op == "MPP":
            return tuple(q for q, _ in self.paulis)
        return self.targets if self.op in QUBIT_OPS else ()

    def target_pairs(self) -> list[tuple[int, int]]:
        assert self.op in PAIRWISE_OPS
        t = self.targets
        return [(t[i], t[i + 1]) for i in range(0, len(t), 2)]


@dataclass(frozen=True)
class Detector:
    """Resolved detector: absolute measurement indices plus coords."""

    index: int
    coords: tuple[float, float, float]
    meas: tuple[int, ...]


@dataclass(frozen=True)
class Observable:
    """Resolved logical observable: absolute measurement indices."""

    index: int
    meas: tuple[int, ...]


@dataclass(frozen=True)
class MeasRecord:
    """One measurement record: producing instruction and its qubit.

    ``qubit`` is None for MPP records (multi-qubit support).
    """

    index: int
    instr: int
    qubit: int | None


@dataclass(eq=True)
class Circuit:
    """A validated instruction list over declared qubits."""

    qubits: tuple[QubitDecl, ...]
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        self.qubits = tuple(self.qubits)
        self.instructions = tuple(self.instructions)
        _validate(self)

    @cached_property
    def columns(self) -> dict[int, int]:
        """Each qubit id's position in :attr:`qubits`."""
        return {q.id: i for i, q in enumerate(self.qubits)}

    @cached_property
    def meas_before(self) -> tuple[int, ...]:
        """Measurement records made before each instruction, then the total."""
        return tuple(accumulate(map(_record_count, self.instructions),
                                initial=0))

    @cached_property
    def fault_site_base(self) -> tuple[int, ...]:
        """Canonical id of each instruction's first fault site, then the total.

        Sites are numbered in instruction order: per target qubit the
        :data:`DEPOL1_OUTCOMES`, per target pair the
        :data:`DEPOL2_OUTCOMES`, and per target one MEAS_FLIP record flip.
        """
        return tuple(accumulate(map(_fault_site_count, self.instructions),
                                initial=0))

    @cached_property
    def measurements(self) -> tuple[MeasRecord, ...]:
        recs = []
        for i, ins in enumerate(self.instructions):
            if ins.op == "MEAS_Z":
                for q in ins.targets:
                    recs.append(MeasRecord(len(recs), i, q))
            elif ins.op == "MPP":
                recs.append(MeasRecord(len(recs), i, None))
        return tuple(recs)

    @property
    def num_measurements(self) -> int:
        return self.meas_before[-1]

    @cached_property
    def detectors(self) -> tuple[Detector, ...]:
        out = []
        for i, ins in enumerate(self.instructions):
            if ins.op == "DETECTOR":
                meas = tuple(sorted(self.meas_before[i] + off
                                    for off in ins.targets))
                out.append(Detector(len(out), ins.coords, meas))
        return tuple(out)

    @cached_property
    def observables(self) -> tuple[Observable, ...]:
        acc: dict[int, list[int]] = {}
        for i, ins in enumerate(self.instructions):
            if ins.op == "OBSERVABLE":
                acc.setdefault(ins.index, []).extend(
                    self.meas_before[i] + off for off in ins.targets)
        if acc and sorted(acc) != list(range(len(acc))):
            raise CircuitError("observable indices must be contiguous from 0")
        return tuple(Observable(i, tuple(sorted(acc[i]))) for i in sorted(acc))

    @cached_property
    def record_parities(self) -> tuple[tuple[int, ...], ...]:
        """Per measurement record, the parities it enters: detector k as k,
        observable j as ``num_detectors + j``.

        A parity that names a record twice lists it twice, so XOR-ing
        along the list cancels it.
        """
        out: list[list[int]] = [[] for _ in range(self.num_measurements)]
        for k, par in enumerate(self.detectors + self.observables):
            for r in par.meas:
                out[r].append(k)
        return tuple(map(tuple, out))

    @property
    def num_detectors(self) -> int:
        return len(self.detectors)

    @property
    def num_observables(self) -> int:
        return len(self.observables)

    def has_noise(self) -> bool:
        return any(ins.op in NOISE_OPS for ins in self.instructions)

    def ticks(self) -> list[tuple[int, int]]:
        """Instruction index ranges [start, end) delimited by TICK."""
        spans = []
        start = 0
        for i, ins in enumerate(self.instructions):
            if ins.op == "TICK":
                spans.append((start, i))
                start = i + 1
        if start < len(self.instructions):
            spans.append((start, len(self.instructions)))
        return spans


def _record_count(ins: Instruction) -> int:
    if ins.op == "MEAS_Z":
        return len(ins.targets)
    return int(ins.op == "MPP")


def _fault_site_count(ins: Instruction) -> int:
    if ins.op == "DEPOL1":
        return len(DEPOL1_OUTCOMES) * len(ins.targets)
    if ins.op == "DEPOL2":
        return len(DEPOL2_OUTCOMES) * (len(ins.targets) // 2)
    return len(ins.targets) if ins.op == "MEAS_FLIP" else 0


def _validate(circuit: Circuit) -> None:
    ids = [q.id for q in circuit.qubits]
    if len(set(ids)) != len(ids):
        raise CircuitError("duplicate qubit ids")
    known = set(ids)
    coords = {(q.x, q.y) for q in circuit.qubits}
    if len(coords) != len(ids):
        raise CircuitError("duplicate qubit coordinates")

    mpp_seen = False
    prev: Instruction | None = None
    for i, ins in enumerate(circuit.instructions):
        if ins.op not in ALL_OPS:
            raise CircuitError(f"unknown op {ins.op!r}")
        if ins.op in QUBIT_OPS:
            missing = [t for t in ins.targets if t not in known]
            if missing:
                raise CircuitError(f"{ins.op} targets undeclared qubits {missing}")
            if not ins.targets:
                raise CircuitError(f"{ins.op} with no targets")
            if mpp_seen:
                raise CircuitError("only MPP/DETECTOR/OBSERVABLE may follow the first MPP")
            if ins.op in PAIRWISE_OPS and len(ins.targets) % 2:
                raise CircuitError(f"{ins.op} needs an even number of targets")
        if ins.op in NOISE_OPS:
            if ins.arg is None or not (0.0 < ins.arg < 0.5):
                raise CircuitError(f"{ins.op} probability must lie in (0, 0.5)")
        if ins.op == "MEAS_FLIP":
            if prev is None or prev.op != "MEAS_Z" or prev.targets != ins.targets:
                raise CircuitError("MEAS_FLIP must directly follow MEAS_Z on the same targets")
        if ins.op == "MPP":
            mpp_seen = True
            if not ins.paulis:
                raise CircuitError("MPP with empty Pauli product")
            for q, p in ins.paulis:
                if q not in known:
                    raise CircuitError(f"MPP targets undeclared qubit {q}")
                if p not in ("X", "Y", "Z"):
                    raise CircuitError(f"MPP with invalid Pauli {p!r}")
        qs = ins.qubits
        if len(set(qs)) < len(qs):
            q = next(q for k, q in enumerate(qs) if q in qs[:k])
            raise CircuitError(
                f"{ins.op} repeats a qubit: it targets the same qubit {q} twice")
        if ins.op in ("DETECTOR", "OBSERVABLE"):
            count = circuit.meas_before[i]
            for off in ins.targets:
                if off >= 0 or count + off < 0:
                    raise CircuitError(
                        f"{ins.op} record offset {off} out of range "
                        f"({count} measurements so far)")
            if ins.op == "DETECTOR" and (ins.coords is None or len(ins.coords) != 3):
                raise CircuitError("DETECTOR needs (t, x, y) coords")
            if ins.op == "OBSERVABLE" and ins.index is None:
                raise CircuitError("OBSERVABLE needs an index")
        prev = ins
    circuit.detectors  # noqa: B018  - force observable/detector resolution
    circuit.observables

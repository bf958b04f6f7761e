"""Stabilizer-circuit intermediate representation and its text format.

A circuit is a flat list of instructions over declared qubits.  Supported
operations:

* Clifford gates ``H S X Y Z CX``
* ``RESET_Z`` / ``RESET_X`` and ``MEAS_Z`` (single-qubit, Z basis)
* ``MPP`` multi-qubit Pauli-product measurement (optionally negated),
  only permitted at the end of a circuit and never followed by noise
* noise channels ``DEPOL1(p)``, ``DEPOL2(p)`` and ``MEAS_FLIP(p)``
* ``TICK`` time-step markers (idle noise is counted per tick)
* ``DETECTOR(t,x,y)`` / ``OBSERVABLE(n)`` parity annotations over
  measurement-record offsets ``rec[-k]``
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

GATES_1Q = ("H", "S", "X", "Y", "Z")
GATES_2Q = ("CX",)
RESETS = ("RESET_Z", "RESET_X")
NOISE_OPS = ("DEPOL1", "DEPOL2", "MEAS_FLIP")
PAIRWISE_OPS = ("CX", "DEPOL2")
ALL_OPS = GATES_1Q + GATES_2Q + RESETS + NOISE_OPS + (
    "MEAS_Z", "MPP", "TICK", "DETECTOR", "OBSERVABLE")

KIND_DATA = "data"
KIND_ANCILLA_X = "ancilla-X"
KIND_ANCILLA_Z = "ancilla-Z"
QUBIT_KINDS = (KIND_DATA, KIND_ANCILLA_X, KIND_ANCILLA_Z)


class CircuitError(ValueError):
    """Raised for malformed circuits or unparsable circuit text."""


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
    def qubit_map(self) -> dict[int, QubitDecl]:
        return {q.id: q for q in self.qubits}

    @cached_property
    def meas_before(self) -> tuple[int, ...]:
        """Measurement records made before each instruction, then the total."""
        return tuple(accumulate(map(_record_count, self.instructions),
                                initial=0))

    @cached_property
    def fault_site_base(self) -> tuple[int, ...]:
        """Canonical id of each instruction's first fault site, then the total.

        Sites are numbered in instruction order: per target qubit the X, Y,
        Z outcomes of DEPOL1, per target pair the 15 outcomes of DEPOL2,
        and per target one MEAS_FLIP record flip.
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
        return 3 * len(ins.targets)
    if ins.op == "DEPOL2":
        return 15 * (len(ins.targets) // 2)
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
        if ins.op in GATES_1Q + GATES_2Q + RESETS + ("MEAS_Z", "DEPOL1", "DEPOL2", "MEAS_FLIP"):
            missing = [t for t in ins.targets if t not in known]
            if missing:
                raise CircuitError(f"{ins.op} targets undeclared qubits {missing}")
            if not ins.targets:
                raise CircuitError(f"{ins.op} with no targets")
            if mpp_seen and ins.op != "TICK":
                raise CircuitError("only MPP/DETECTOR/OBSERVABLE may follow the first MPP")
        if ins.op in PAIRWISE_OPS:
            if len(ins.targets) % 2:
                raise CircuitError(f"{ins.op} needs an even number of targets")
            for a, b in ins.target_pairs():
                if a == b:
                    raise CircuitError(f"{ins.op} pair targets the same qubit {a}")
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
            qs = [q for q, _ in ins.paulis]
            if len(set(qs)) != len(qs):
                raise CircuitError("MPP repeats a qubit")
            for q, p in ins.paulis:
                if q not in known:
                    raise CircuitError(f"MPP targets undeclared qubit {q}")
                if p not in ("X", "Y", "Z"):
                    raise CircuitError(f"MPP with invalid Pauli {p!r}")
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


def _fmt_num(v: float) -> str:
    f = float(v)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the line-oriented text format."""
    lines = []
    for q in circuit.qubits:
        lines.append(f"QUBIT {q.id} {_fmt_num(q.x)} {_fmt_num(q.y)} {q.patch} {q.kind}")
    ins_list = circuit.instructions
    i = 0
    while i < len(ins_list):
        ins = ins_list[i]
        nxt = ins_list[i + 1] if i + 1 < len(ins_list) else None
        if ins.op == "MEAS_Z" and nxt is not None and nxt.op == "MEAS_FLIP":
            tg = " ".join(str(t) for t in ins.targets)
            lines.append(f"MEAS_Z {tg} MEASFLIP({repr(nxt.arg)})")
            i += 2
            continue
        lines.append(_fmt_instruction(ins))
        i += 1
    return "\n".join(lines) + "\n"


def _fmt_instruction(ins: Instruction) -> str:
    if ins.op == "TICK":
        return "TICK"
    if ins.op == "MEAS_FLIP":
        raise CircuitError("dangling MEAS_FLIP cannot be serialized")
    if ins.op in ("DEPOL1", "DEPOL2"):
        tg = " ".join(str(t) for t in ins.targets)
        return f"{ins.op}({repr(ins.arg)}) {tg}"
    if ins.op == "DETECTOR":
        cs = ",".join(_fmt_num(c) for c in ins.coords)
        recs = " ".join(f"rec[{off}]" for off in ins.targets)
        return f"DETECTOR({cs}) {recs}"
    if ins.op == "OBSERVABLE":
        recs = " ".join(f"rec[{off}]" for off in ins.targets)
        return f"OBSERVABLE({ins.index}) {recs}"
    if ins.op == "MPP":
        body = "*".join(f"{p}{q}" for q, p in ins.paulis)
        return f"MPP {'-' if ins.sign else ''}{body}"
    tg = " ".join(str(t) for t in ins.targets)
    return f"{ins.op} {tg}"


def parse_circuit(text: str) -> Circuit:
    """Parse the text format produced by :func:`serialize_circuit`."""
    qubits: list[QubitDecl] = []
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_line(line, qubits, instructions)
        except CircuitError as e:
            raise CircuitError(f"line {lineno}: {e}") from None
        except (ValueError, IndexError) as e:
            raise CircuitError(f"line {lineno}: {e}") from None
    return Circuit(tuple(qubits), tuple(instructions))


def _parse_line(line: str, qubits: list, instructions: list) -> None:
    tokens = line.split()
    head = tokens[0]
    if head == "QUBIT":
        if len(tokens) != 6:
            raise CircuitError("QUBIT needs: id x y patch kind")
        qubits.append(QubitDecl(int(tokens[1]), float(tokens[2]), float(tokens[3]),
                                int(tokens[4]), tokens[5]))
        return
    if head == "TICK":
        if len(tokens) != 1:
            raise CircuitError("TICK takes no arguments")
        instructions.append(Instruction("TICK"))
        return
    if head.startswith("DETECTOR(") or head.startswith("OBSERVABLE("):
        op = head.split("(", 1)[0]
        argstr = head[len(op) + 1:]
        if not argstr.endswith(")"):
            raise CircuitError(f"malformed {op} header {head!r}")
        argstr = argstr[:-1]
        offs = []
        for tok in tokens[1:]:
            if not (tok.startswith("rec[") and tok.endswith("]")):
                raise CircuitError(f"malformed record token {tok!r}")
            offs.append(int(tok[4:-1]))
        if op == "DETECTOR":
            parts = argstr.split(",")
            if len(parts) != 3:
                raise CircuitError("DETECTOR needs (t,x,y)")
            instructions.append(Instruction("DETECTOR", tuple(offs),
                                            coords=tuple(float(p) for p in parts)))
        else:
            instructions.append(Instruction("OBSERVABLE", tuple(offs), index=int(argstr)))
        return
    if head.startswith("DEPOL1(") or head.startswith("DEPOL2("):
        op = head.split("(", 1)[0]
        if not head.endswith(")"):
            raise CircuitError(f"malformed {op} header {head!r}")
        p = float(head[len(op) + 1:-1])
        instructions.append(Instruction(op, tuple(int(t) for t in tokens[1:]), arg=p))
        return
    if head == "MPP":
        if len(tokens) != 2:
            raise CircuitError("MPP takes a single Pauli product")
        body = tokens[1]
        sign = 0
        if body.startswith("-"):
            sign = 1
            body = body[1:]
        paulis = []
        for term in body.split("*"):
            if not term or term[0] not in "XYZ":
                raise CircuitError(f"malformed MPP term {term!r}")
            paulis.append((int(term[1:]), term[0]))
        instructions.append(Instruction("MPP", paulis=tuple(paulis), sign=sign))
        return
    if head == "MEAS_Z":
        flip = None
        body = tokens[1:]
        if body and body[-1].startswith("MEASFLIP("):
            tok = body.pop()
            if not tok.endswith(")"):
                raise CircuitError(f"malformed MEASFLIP suffix {tok!r}")
            flip = float(tok[9:-1])
        targets = tuple(int(t) for t in body)
        instructions.append(Instruction("MEAS_Z", targets))
        if flip is not None:
            instructions.append(Instruction("MEAS_FLIP", targets, arg=flip))
        return
    if head in GATES_1Q + GATES_2Q + RESETS:
        instructions.append(Instruction(head, tuple(int(t) for t in tokens[1:])))
        return
    raise CircuitError(f"unknown opcode {head!r}")

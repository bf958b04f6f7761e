"""Builders for rotated-surface-code circuits with transversal logic.

Geometry convention (distance d, patch origin at (ox, oy)):

* data qubits sit at grid positions (i, j) in [0, d)^2, physical
  coordinates (ox + i + 0.5, oy + j + 0.5);
* stabilizer cells sit at lattice vertices (i, j) in [0, d]^2 at integer
  coordinates, Z-type when i + j is even and X-type when odd;
* interior vertices always host a plaquette; the left/right boundaries
  keep only X-type half-plaquettes, the top/bottom boundaries only
  Z-type ones, corners none;
* the logical Z representative is the left data column (i = 0) and
  logical X the top data row (j = 0).

Each syndrome-extraction round is eight ticks: ancilla reset, Hadamard
on X-ancillas, four CX layers, Hadamard again, ancilla measurement.
The CX sub-schedule visits data neighbors in the order NW, NE, SW, SE
for X-cells and NW, SW, NE, SE for Z-cells, which keeps the layers
disjoint on the checkerboard.

A transversal Hadamard is physical H on every data qubit plus a 90
degree relabeling of the data grid (no physical movement), so the
patch keeps measuring the standard checkerboard afterwards.  After a
transversal CNOT, the first detector on an error-receiving side is a
three-measurement parity that also references the partner patch's
previous round, which restores determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (Circuit, CircuitError, Instruction, QubitDecl,
                       KIND_DATA, KIND_ANCILLA_X, KIND_ANCILLA_Z,
                       GATES_1Q, GATES_2Q, RESETS)

# data-neighbor visit order per CX layer, as (di, dj) from the vertex
_ORDER_X = ((-1, -1), (0, -1), (-1, 0), (0, 0))
_ORDER_Z = ((-1, -1), (-1, 0), (0, -1), (0, 0))

def _rot_data(g: tuple[int, int], d: int) -> tuple[int, int]:
    i, j = g
    return (j, d - 1 - i)


def _rot_vertex(v: tuple[int, int], d: int) -> tuple[int, int]:
    i, j = v
    return (j, d - i)


def cell_kind(v: tuple[int, int]) -> str:
    return "Z" if (v[0] + v[1]) % 2 == 0 else "X"


def patch_cells(d: int) -> list[tuple[int, int]]:
    """Vertices hosting a stabilizer cell for one distance-d patch."""
    cells = []
    for i in range(d + 1):
        for j in range(d + 1):
            edge_lr = i in (0, d)
            edge_tb = j in (0, d)
            if edge_lr and edge_tb:
                continue
            k = cell_kind((i, j))
            if edge_lr and k != "X":
                continue
            if edge_tb and k != "Z":
                continue
            cells.append((i, j))
    return cells


def cell_data_neighbors(v: tuple[int, int], d: int) -> list[tuple[int, int]]:
    i, j = v
    out = []
    for di, dj in ((-1, -1), (0, -1), (-1, 0), (0, 0)):
        a, b = i + di, j + dj
        if 0 <= a < d and 0 <= b < d:
            out.append((a, b))
    return out


class _Patch:
    def __init__(self, index: int, d: int, origin: tuple[float, float]):
        self.index = index
        self.d = d
        self.origin = origin
        self.data_map: dict[tuple[int, int], int] = {}
        self.ancilla: dict[tuple[int, int], int] = {}
        self.cells = patch_cells(d)
        self.last_meas: dict[tuple[int, int], int] = {}
        self.extra_refs: dict[tuple[int, int], list[int]] = {}
        self.known = {"Z": False, "X": False}
        self.prepped = False
        self.rounds_done = 0
        self.alive = True

    def rotate(self) -> None:
        d = self.d
        self.data_map = {_rot_data(g, d): q for g, q in self.data_map.items()}
        self.last_meas = {_rot_vertex(v, d): m for v, m in self.last_meas.items()}
        self.extra_refs = {_rot_vertex(v, d): r for v, r in self.extra_refs.items()}
        self.known = {"Z": self.known["X"], "X": self.known["Z"]}

    def logical_grid(self, basis: str) -> list[tuple[int, int]]:
        """Data grid positions of the basis-``basis`` logical operator."""
        if basis == "Z":
            return [(0, j) for j in range(self.d)]
        return [(i, 0) for i in range(self.d)]


class CircuitBuilder:
    """Incrementally assembles a lockstep multi-patch circuit."""

    def __init__(self, d: int, num_patches: int):
        if d < 3 or d % 2 == 0:
            raise CircuitError("distance must be odd and >= 3")
        self.d = d
        self.qubits: list[QubitDecl] = []
        self.instructions: list[Instruction] = []
        self.meas_count = 0
        self.round_index = 0
        self._tick_open = False
        self.patches: list[_Patch] = []
        spacing = d + 2
        for k in range(num_patches):
            p = _Patch(k, d, (k * spacing, 0.0))
            self.patches.append(p)
            ox, oy = p.origin
            for i in range(d):
                for j in range(d):
                    q = len(self.qubits)
                    self.qubits.append(QubitDecl(q, ox + i + 0.5, oy + j + 0.5, k, KIND_DATA))
                    p.data_map[(i, j)] = q
            for v in p.cells:
                q = len(self.qubits)
                kind = KIND_ANCILLA_X if cell_kind(v) == "X" else KIND_ANCILLA_Z
                self.qubits.append(QubitDecl(q, ox + v[0], oy + v[1], k, kind))
                p.ancilla[v] = q
        self.tracker: PauliStringTracker | None = None

    # -- low-level emission ---------------------------------------------

    def _tick(self) -> None:
        if self._tick_open:
            self.instructions.append(Instruction("TICK"))
        self._tick_open = False

    def _emit(self, op: str, targets: tuple[int, ...], **kw) -> None:
        self.instructions.append(Instruction(op, targets, **kw))
        self._tick_open = True

    def _measure(self, targets: list[int]) -> list[int]:
        self._emit("MEAS_Z", tuple(targets))
        first = self.meas_count
        self.meas_count += len(targets)
        return list(range(first, self.meas_count))

    def _detector(self, t: float, coords: tuple[float, float], meas: list[int]) -> None:
        offs = tuple(sorted(m - self.meas_count for m in meas))
        self.instructions.append(
            Instruction("DETECTOR", offs, coords=(float(t), float(coords[0]), float(coords[1]))))

    def _observable(self, index: int, meas: list[int]) -> None:
        offs = tuple(sorted(m - self.meas_count for m in meas))
        self.instructions.append(Instruction("OBSERVABLE", offs, index=index))

    def _cell_detector(self, p: _Patch, v: tuple[int, int], refs: list[int]) -> None:
        """Detector of cell ``v``: ``refs``, the cell's last measurement
        when it has one, then its pending extra references."""
        if v in p.last_meas:
            refs = refs + [p.last_meas[v]]
        ox, oy = p.origin
        self._detector(self.round_index, (ox + v[0], oy + v[1]),
                       refs + p.extra_refs.pop(v, []))

    def _alive(self) -> list[_Patch]:
        return [p for p in self.patches if p.alive]

    # -- preparation ------------------------------------------------------

    def prep(self, patch_ids: list[int], basis: str) -> None:
        if basis not in ("Z", "X"):
            raise CircuitError(f"prep basis must be Z or X, got {basis!r}")
        self._tick()
        targets = []
        for k in patch_ids:
            p = self.patches[k]
            if p.prepped:
                raise CircuitError(f"patch {k} already prepared")
            targets += [p.data_map[g] for g in sorted(p.data_map)]
            p.prepped = True
            p.known[basis] = True
        self._emit("RESET_Z" if basis == "Z" else "RESET_X", tuple(sorted(targets)))

    # -- syndrome extraction ----------------------------------------------

    def run_round(self) -> None:
        alive = self._alive()
        if not alive or any(not p.prepped for p in alive):
            raise CircuitError("cannot run a round before all live patches are prepared")
        self.round_index += 1
        anc = [p.ancilla[v] for p in alive for v in sorted(p.cells)]
        xanc = [p.ancilla[v] for p in alive for v in sorted(p.cells) if cell_kind(v) == "X"]
        self._tick()
        self._emit("RESET_Z", tuple(sorted(anc)))
        self._tick()
        self._emit("H", tuple(sorted(xanc)))
        for layer in range(4):
            pairs = []
            for p in alive:
                for v in sorted(p.cells):
                    kind = cell_kind(v)
                    di, dj = (_ORDER_X if kind == "X" else _ORDER_Z)[layer]
                    g = (v[0] + di, v[1] + dj)
                    if g not in p.data_map:
                        continue
                    if kind == "X":
                        pairs.append((p.ancilla[v], p.data_map[g]))
                    else:
                        pairs.append((p.data_map[g], p.ancilla[v]))
            self._tick()
            if pairs:
                self._emit("CX", tuple(t for pair in pairs for t in pair))
        self._tick()
        self._emit("H", tuple(sorted(xanc)))
        self._tick()
        order = [(p, v) for p in alive for v in sorted(p.cells)]
        ids = self._measure([p.ancilla[v] for p, v in order])
        for (p, v), m in zip(order, ids):
            # a first-round cell is checked only when its value is known
            if p.rounds_done or p.known[cell_kind(v)]:
                self._cell_detector(p, v, [m])
            p.last_meas[v] = m
        for p in alive:
            p.rounds_done += 1

    def run_rounds(self, n: int) -> None:
        for _ in range(n):
            self.run_round()

    # -- transversal operations ---------------------------------------------

    def transversal_gate(self, patch: int, op: str) -> None:
        if op not in ("H", "X", "Y", "Z"):
            raise CircuitError(f"unsupported transversal gate {op!r}")
        p = self.patches[patch]
        if not p.alive or not p.prepped:
            raise CircuitError(f"patch {patch} is not active")
        self._tick()
        self._emit(op, tuple(sorted(p.data_map.values())))
        if self.tracker is not None:
            self.tracker.apply_1q(op, list(p.data_map.values()))
        if op == "H":
            p.rotate()

    def transversal_cnot(self, control: int, target: int) -> None:
        a, b = self.patches[control], self.patches[target]
        if a is b:
            raise CircuitError("control and target patches must differ")
        for p in (a, b):
            if not p.alive or not p.prepped:
                raise CircuitError(f"patch {p.index} is not active")
        self._tick()
        targets = []
        pairs = []
        for g in sorted(a.data_map):
            targets += [a.data_map[g], b.data_map[g]]
            pairs.append((a.data_map[g], b.data_map[g]))
        self._emit("CX", tuple(targets))
        if self.tracker is not None:
            self.tracker.apply_cx(pairs)
        if a.rounds_done == 0:
            b.known["Z"] = b.known["Z"] and a.known["Z"]
            a.known["X"] = a.known["X"] and b.known["X"]
            return
        for v in a.cells:
            if cell_kind(v) == "Z":
                b.extra_refs.setdefault(v, []).append(a.last_meas[v])
            else:
                a.extra_refs.setdefault(v, []).append(b.last_meas[v])

    # -- readout -------------------------------------------------------------

    def readout(self, patch: int, basis: str = "Z", observable: int | None = None) -> None:
        p = self.patches[patch]
        if not p.alive or p.rounds_done == 0:
            raise CircuitError(f"patch {patch} cannot be read out")
        if basis not in ("Z", "X"):
            raise CircuitError(f"readout basis must be Z or X, got {basis!r}")
        data = [p.data_map[g] for g in sorted(p.data_map)]
        if basis == "X":
            self._tick()
            self._emit("H", tuple(sorted(data)))
        self._tick()
        order = sorted(p.data_map)
        ids = self._measure([p.data_map[g] for g in order])
        meas_of = dict(zip(order, ids))
        for v in sorted(p.cells):
            if cell_kind(v) == basis:
                self._cell_detector(
                    p, v, [meas_of[g] for g in cell_data_neighbors(v, p.d)])
        if observable is not None:
            self._observable(observable,
                             [meas_of[g] for g in p.logical_grid(basis)])
        p.alive = False

    # -- final Pauli-product measurements -------------------------------------

    def mpp(self, paulis: list[tuple[int, str]], sign: int, observable: int | None) -> None:
        self._tick()
        self.instructions.append(Instruction("MPP", paulis=tuple(paulis), sign=sign))
        self._tick_open = True
        self.meas_count += 1
        if observable is not None:
            self._observable(observable, [self.meas_count - 1])

    def measure_stabilizers(self) -> None:
        """Noiseless MPP of every live cell's stabilizer, each checked by a
        detector against the cell's last ancilla measurement."""
        for p in self._alive():
            for v in sorted(p.cells):
                kind = cell_kind(v)
                self.mpp([(p.data_map[g], kind)
                          for g in cell_data_neighbors(v, p.d)], 0, None)
                self._cell_detector(p, v, [self.meas_count - 1])

    def finish(self) -> Circuit:
        return Circuit(tuple(self.qubits), tuple(self.instructions))


# -- logical-operator bookkeeping for deep circuits -------------------------


class PauliStringTracker:
    """Heisenberg-conjugates Pauli strings through transversal gates.

    Row i holds the exact physical image of the i-th initial logical
    generator as (x bits, z bits, sign) over all qubit ids.  Measuring
    a row's string at the end reproduces the generator's initial value,
    because syndrome measurements commute with every row.  A site with
    both bits set denotes Y (with the usual implied phase), matching
    the sign conventions of the tableau simulator.
    """

    def __init__(self, num_rows: int, num_qubits: int):
        self.x = np.zeros((num_rows, num_qubits), dtype=bool)
        self.z = np.zeros((num_rows, num_qubits), dtype=bool)
        self.sign = np.zeros(num_rows, dtype=bool)

    def apply_1q(self, gate: str, qubits: list[int]) -> None:
        for q in qubits:
            x, z = self.x[:, q], self.z[:, q]
            if gate == "H":
                self.sign ^= x & z
                self.x[:, q], self.z[:, q] = z.copy(), x.copy()
            elif gate == "X":
                self.sign ^= z
            elif gate == "Z":
                self.sign ^= x
            elif gate == "Y":
                self.sign ^= x ^ z
            else:
                raise CircuitError(f"cannot track gate {gate!r}")

    def apply_cx(self, pairs: list[tuple[int, int]]) -> None:
        for c, t in pairs:
            self.sign ^= self.x[:, c] & self.z[:, t] & ~(self.x[:, t] ^ self.z[:, c])
            self.x[:, t] ^= self.x[:, c]
            self.z[:, c] ^= self.z[:, t]

    def realize(self, row: int) -> tuple[list[tuple[int, str]], int]:
        """Return (paulis, sign) for an MPP measuring row ``row``."""
        paulis = []
        for q in np.flatnonzero(self.x[row] | self.z[row]):
            xb, zb = self.x[row, q], self.z[row, q]
            paulis.append((int(q), "Y" if (xb and zb) else ("X" if xb else "Z")))
        return paulis, int(self.sign[row])


# -- circuit families --------------------------------------------------------


def build_memory_circuit(d: int, rounds: int, basis: str = "Z") -> Circuit:
    """Single-patch memory: prepare, extract syndromes, read out."""
    if rounds < 1:
        raise CircuitError("memory needs at least one round")
    b = CircuitBuilder(d, 1)
    b.prep([0], basis)
    b.run_rounds(rounds)
    b.readout(0, basis, observable=0)
    return b.finish()


def build_tproxy_circuit(d: int, n_tgates: int, n_buf: int = 1,
                         extra_rounds: int = 0) -> Circuit:
    """Teleportation proxy for a chain of T gates.

    After one initial round, patch g carries the logical state into gate
    g+1; each gate entangles the carrier (control) with a fresh patch
    (target) by transversal CNOT, waits ``n_buf`` rounds, then measures
    the carrier transversally in Z (one observable per gate).
    Consecutive CNOTs are ``n_buf + 2`` rounds apart: the buffer rounds
    plus two rounds covering the would-be conditional-Clifford slots.
    ``extra_rounds`` extends the tail before the survivor's final
    readout so delayed decisions still have syndrome to consume.
    """
    if n_tgates < 1:
        raise CircuitError("need at least one gate")
    if n_buf < 1:
        raise CircuitError("need n_buf >= 1")
    if extra_rounds < 0:
        raise CircuitError("extra_rounds must be non-negative")
    b = CircuitBuilder(d, n_tgates + 1)
    b.prep(list(range(n_tgates + 1)), "Z")
    b.run_rounds(1)
    for g in range(n_tgates):
        b.transversal_cnot(g, g + 1)
        b.run_rounds(n_buf)
        b.readout(g, "Z", observable=g)
        if g + 1 < n_tgates:
            b.run_rounds(2)
    b.run_rounds(2 + extra_rounds)
    b.readout(n_tgates, "Z", observable=None)
    return b.finish()


def build_deep_clifford_circuit(d: int, n_r: int, layers: int,
                                n_qubits: int = 4, seed: int = 0) -> Circuit:
    """Random deep transversal-Clifford benchmark circuit.

    Every layer applies one random gate from {H, X, Y, Z} transversally
    to each patch, then two transversal CNOTs over a random disjoint
    pairing, then ``n_r`` syndrome rounds.  The circuit ends with
    noiseless Pauli-product measurements: one per stabilizer, each with
    a detector against its last round, so the last round's faults are
    detected, then the evolved logical stabilizer generators, one
    observable per initial logical X.
    """
    if n_qubits < 2 or n_qubits % 2:
        raise CircuitError("need an even number of logical qubits")
    if layers < 1:
        raise CircuitError("need at least one layer")
    if n_r < 1:
        raise CircuitError("need at least one syndrome round per layer")
    if seed < 0:
        raise CircuitError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    b = CircuitBuilder(d, n_qubits)
    b.prep(list(range(n_qubits)), "X")
    # row k tracks patch k's initial logical X
    b.tracker = PauliStringTracker(n_qubits, len(b.qubits))
    for k, p in enumerate(b.patches):
        b.tracker.x[k, [p.data_map[g] for g in p.logical_grid("X")]] = True
    for _ in range(layers):
        for k in range(n_qubits):
            b.transversal_gate(k, ("H", "X", "Y", "Z")[rng.integers(4)])
        perm = rng.permutation(n_qubits)
        for i in range(0, n_qubits, 2):
            b.transversal_cnot(int(perm[i]), int(perm[i + 1]))
        b.run_rounds(n_r)
    b.measure_stabilizers()
    for i in range(n_qubits):
        paulis, sign = b.tracker.realize(i)
        b.mpp(paulis, sign, observable=i)
    return b.finish()


# -- noise -------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseParams:
    """Uniform circuit-level depolarizing noise of strength ``p``.

    Two-qubit depolarizing with probability ``p`` after each CX,
    single-qubit depolarizing with ``p/10`` after every single-qubit
    gate, reset and measurement and on every idle qubit per tick, and a
    classical flip with probability ``p`` on each MEAS_Z outcome.
    """

    p: float

    def resolve(self) -> tuple[float, float, float]:
        """Single-qubit, two-qubit and measurement-flip probabilities."""
        p1, p2, pf = self.p / 10, self.p, self.p
        for v in (p1, p2, pf):
            if not (0.0 <= v < 0.5):
                raise CircuitError("noise probabilities must lie in [0, 0.5)")
        return p1, p2, pf


def apply_noise_model(circuit: Circuit, noise: NoiseParams) -> Circuit:
    """Insert noise channels into a noiseless circuit.

    Idle noise applies per tick to every qubit that has no operation in
    that tick but is inside its active window (from its first to its
    last non-annotation instruction).  MPPs receive no noise.
    """
    if circuit.has_noise():
        raise CircuitError("circuit already contains noise channels")
    p1, p2, pf = noise.resolve()
    if noise.p == 0:
        return Circuit(circuit.qubits, circuit.instructions)

    spans = circuit.ticks()
    first_tick: dict[int, int] = {}
    last_tick: dict[int, int] = {}
    for t, (a, z) in enumerate(spans):
        for ins in circuit.instructions[a:z]:
            for q in ins.qubits:
                first_tick.setdefault(q, t)
                last_tick[q] = t

    out: list[Instruction] = []
    for t, (a, z) in enumerate(spans):
        if t > 0:
            out.append(Instruction("TICK"))
        active: set[int] = set()
        gate_tick = False
        for ins in circuit.instructions[a:z]:
            out.append(ins)
            touched = ins.qubits
            active.update(touched)
            if touched:
                gate_tick = True
            if ins.op in GATES_1Q or ins.op in RESETS:
                out.append(Instruction("DEPOL1", ins.targets, arg=p1))
            elif ins.op in GATES_2Q:
                out.append(Instruction("DEPOL2", ins.targets, arg=p2))
            elif ins.op == "MEAS_Z":
                out.append(Instruction("MEAS_FLIP", ins.targets, arg=pf))
                out.append(Instruction("DEPOL1", ins.targets, arg=p1))
        if not gate_tick:
            continue
        has_mpp = any(ins.op == "MPP" for ins in circuit.instructions[a:z])
        if has_mpp:
            continue
        idle = [q for q in sorted(last_tick)
                if q not in active and first_tick[q] <= t <= last_tick[q]]
        if idle:
            out.append(Instruction("DEPOL1", tuple(idle), arg=p1))
    return Circuit(circuit.qubits, tuple(out))

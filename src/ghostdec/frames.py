"""Forward Pauli-frame propagation.

Noise in a stabilizer circuit only ever XORs a Pauli "frame" onto the
ideal state, so the effect of any fault realization on detectors and
observables follows from conjugating the frame through the circuit.
This module provides the canonical enumeration of single-fault sites,
a scalar propagator used as an independent oracle for detector-error-
model extraction, and a vectorized many-shot sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, CircuitError

PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_ONE_QUBIT_OUTCOMES = ("X", "Y", "Z")


def _two_qubit_outcome(v: int) -> str:
    """Outcome v in 1..15 as a two-letter Pauli string (bit-coded xa za xb zb)."""
    letters = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    a = letters[((v >> 3) & 1, (v >> 2) & 1)]
    b = letters[((v >> 1) & 1, v & 1)]
    return a + b


@dataclass(frozen=True)
class FaultSite:
    """One elementary fault: a specific Pauli outcome of one noise channel.

    ``pauli`` is a Pauli letter per target qubit, or "FLIP" for a
    classical measurement-record flip.  ``site_id`` is the position in
    the canonical enumeration order of :func:`iter_fault_sites`.
    """

    site_id: int
    instr_index: int
    qubits: tuple[int, ...]
    pauli: str
    probability: float


def iter_fault_sites(circuit: Circuit):
    """Yield every elementary fault of the circuit in canonical order."""
    for idx, ins in enumerate(circuit.instructions):
        if ins.op == "DEPOL1":
            outcomes = [((q,), letter, ins.arg / 3) for q in ins.targets
                        for letter in _ONE_QUBIT_OUTCOMES]
        elif ins.op == "DEPOL2":
            outcomes = [(pair, _two_qubit_outcome(v), ins.arg / 15)
                        for pair in ins.target_pairs() for v in range(1, 16)]
        elif ins.op == "MEAS_FLIP":
            outcomes = [((q,), "FLIP", ins.arg) for q in ins.targets]
        else:
            continue
        base = circuit.fault_site_base[idx]
        for k, (qubits, pauli, p) in enumerate(outcomes):
            yield FaultSite(base + k, idx, qubits, pauli, p)


def count_fault_sites(circuit: Circuit) -> int:
    return circuit.fault_site_base[-1]


class FaultPropagator:
    """Propagates single faults through the noiseless part of a circuit.

    The per-site cost is one pass over the instructions after the fault,
    conjugating the frame and collecting measurement-record flips.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n = len(circuit.qubits)
        self._col = {q.id: i for i, q in enumerate(circuit.qubits)}
        self._rec_to_dets: dict[int, list[int]] = {}
        self._rec_to_obs: dict[int, list[int]] = {}
        for det in circuit.detectors:
            for rec in det.meas:
                self._rec_to_dets.setdefault(rec, []).append(det.index)
        for obs in circuit.observables:
            for rec in obs.meas:
                self._rec_to_obs.setdefault(rec, []).append(obs.index)
        self._x = np.zeros(self.n, dtype=bool)
        self._z = np.zeros(self.n, dtype=bool)

    def propagate(self, site: FaultSite) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return (flipped detector ids, flipped observable ids) for one fault."""
        x, z = self._x, self._z
        x[:] = False
        z[:] = False
        col = self._col
        flipped_recs: list[int] = []
        instructions = self.circuit.instructions
        ins = instructions[site.instr_index]
        if site.pauli == "FLIP":
            if ins.op != "MEAS_FLIP":
                raise CircuitError("FLIP fault must sit on a MEAS_FLIP channel")
            prev = instructions[site.instr_index - 1]
            base = self.circuit.meas_before[site.instr_index - 1]
            flipped_recs.append(base + prev.targets.index(site.qubits[0]))
        else:
            for q, letter in zip(site.qubits, site.pauli):
                xb, zb = PAULI_BITS[letter]
                if xb:
                    x[col[q]] ^= True
                if zb:
                    z[col[q]] ^= True
        m = self.circuit.meas_before[site.instr_index]
        for ins in instructions[site.instr_index + 1:]:
            op = ins.op
            if op == "CX":
                t = ins.targets
                for i in range(0, len(t), 2):
                    c, d = col[t[i]], col[t[i + 1]]
                    x[d] ^= x[c]
                    z[c] ^= z[d]
            elif op == "H":
                for q in ins.targets:
                    i = col[q]
                    x[i], z[i] = z[i], x[i]
            elif op == "S":
                for q in ins.targets:
                    i = col[q]
                    z[i] ^= x[i]
            elif op == "MEAS_Z":
                for j, q in enumerate(ins.targets):
                    if x[col[q]]:
                        flipped_recs.append(m + j)
                m += len(ins.targets)
            elif op in ("RESET_Z", "RESET_X"):
                for q in ins.targets:
                    i = col[q]
                    x[i] = False
                    z[i] = False
            elif op == "MPP":
                flip = False
                for q, letter in ins.paulis:
                    xb, zb = PAULI_BITS[letter]
                    i = col[q]
                    flip ^= (x[i] and zb == 1) ^ (z[i] and xb == 1)
                if flip:
                    flipped_recs.append(m)
                m += 1
            # X/Y/Z gates and noise channels commute with the frame up to
            # phase; TICK/DETECTOR/OBSERVABLE carry no action here
        dets: set[int] = set()
        obs: set[int] = set()
        for rec in flipped_recs:
            for k in self._rec_to_dets.get(rec, ()):
                dets.symmetric_difference_update((k,))
            for k in self._rec_to_obs.get(rec, ()):
                obs.symmetric_difference_update((k,))
        return tuple(sorted(dets)), tuple(sorted(obs))


class CircuitSampler:
    """Vectorized many-shot noisy-circuit sampler.

    Draws every noise channel outcome explicitly, propagates the frames
    of all shots in lockstep, and returns detector/observable flip
    arrays.  With ``collect_sites=True`` it also reports which canonical
    fault sites fired in each shot, enabling bit-exact cross-checks
    against mechanism-level resampling.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n = len(circuit.qubits)
        self._col = {q.id: i for i, q in enumerate(circuit.qubits)}
        self.num_measurements = circuit.num_measurements

    def sample(self, shots: int, rng: np.random.Generator,
               collect_sites: bool = False):
        """Run ``shots`` noisy shots.

        Returns (dets, obs) boolean arrays of shape (shots, num) or, with
        ``collect_sites``, (dets, obs, fired) where fired is a list of
        sorted site-id tuples per shot.
        """
        c = self.circuit
        col = self._col
        x = np.zeros((shots, self.n), dtype=bool)
        z = np.zeros((shots, self.n), dtype=bool)
        rec = np.zeros((shots, self.num_measurements), dtype=bool)
        fired: list[list[int]] | None = [[] for _ in range(shots)] if collect_sites else None
        m = 0
        for idx, ins in enumerate(c.instructions):
            op = ins.op
            if op == "CX":
                t = ins.targets
                for i in range(0, len(t), 2):
                    a, b = col[t[i]], col[t[i + 1]]
                    x[:, b] ^= x[:, a]
                    z[:, a] ^= z[:, b]
            elif op == "H":
                idxs = [col[q] for q in ins.targets]
                tmp = x[:, idxs].copy()
                x[:, idxs] = z[:, idxs]
                z[:, idxs] = tmp
            elif op == "S":
                idxs = [col[q] for q in ins.targets]
                z[:, idxs] ^= x[:, idxs]
            elif op == "MEAS_Z":
                for q in ins.targets:
                    rec[:, m] = x[:, col[q]]
                    m += 1
            elif op in ("RESET_Z", "RESET_X"):
                idxs = [col[q] for q in ins.targets]
                x[:, idxs] = False
                z[:, idxs] = False
            elif op == "MPP":
                flip = np.zeros(shots, dtype=bool)
                for q, letter in ins.paulis:
                    xb, zb = PAULI_BITS[letter]
                    i = col[q]
                    if zb:
                        flip ^= x[:, i]
                    if xb:
                        flip ^= z[:, i]
                rec[:, m] = flip
                m += 1
            elif op == "DEPOL1":
                base = c.fault_site_base[idx]
                for j, q in enumerate(ins.targets):
                    hit = rng.random(shots) < ins.arg
                    kind = rng.integers(0, 3, size=shots)
                    i = col[q]
                    x[:, i] ^= hit & (kind < 2)
                    z[:, i] ^= hit & (kind > 0)
                    if fired is not None:
                        for s in np.flatnonzero(hit):
                            fired[s].append(base + 3 * j + int(kind[s]))
            elif op == "DEPOL2":
                base = c.fault_site_base[idx]
                for j, (qa, qb) in enumerate(ins.target_pairs()):
                    hit = rng.random(shots) < ins.arg
                    v = rng.integers(1, 16, size=shots)
                    a, b = col[qa], col[qb]
                    x[:, a] ^= hit & ((v >> 3) & 1).astype(bool)
                    z[:, a] ^= hit & ((v >> 2) & 1).astype(bool)
                    x[:, b] ^= hit & ((v >> 1) & 1).astype(bool)
                    z[:, b] ^= hit & (v & 1).astype(bool)
                    if fired is not None:
                        for s in np.flatnonzero(hit):
                            fired[s].append(base + 15 * j + int(v[s]) - 1)
            elif op == "MEAS_FLIP":
                base = c.fault_site_base[idx]
                for j, q in enumerate(ins.targets):
                    hit = rng.random(shots) < ins.arg
                    rec[:, m - len(ins.targets) + j] ^= hit
                    if fired is not None:
                        for s in np.flatnonzero(hit):
                            fired[s].append(base + j)
        dets = np.zeros((shots, c.num_detectors), dtype=bool)
        for det in c.detectors:
            for r in det.meas:
                dets[:, det.index] ^= rec[:, r]
        obs = np.zeros((shots, c.num_observables), dtype=bool)
        for o in c.observables:
            for r in o.meas:
                obs[:, o.index] ^= rec[:, r]
        if fired is not None:
            return dets, obs, [tuple(sorted(f)) for f in fired]
        return dets, obs

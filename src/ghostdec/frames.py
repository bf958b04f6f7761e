"""Forward Pauli-frame propagation.

Noise in a stabilizer circuit only ever XORs a Pauli "frame" onto the
ideal state, so the effect of any fault realization on detectors and
observables follows from conjugating the frame through the circuit.
This module provides the canonical enumeration of single-fault sites,
a scalar propagator used as an independent oracle for detector-error-
model extraction, and a vectorized many-shot sampler.

Fault sites, qubit columns, record numbering and record parities are the
shared conventions of :mod:`ghostdec.circuits`; each class here keeps
only its own frame-update rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (DEPOL1_OUTCOMES, DEPOL2_OUTCOMES, PAULI_BITS, RESETS,
                       Circuit, CircuitError)

_LETTER = {bits: letter for letter, bits in PAULI_BITS.items()}
# the outcome tables as boolean rows (x, z) and (xa, za, xb, zb)
_DEPOL1_BITS = np.array(DEPOL1_OUTCOMES, dtype=bool)
_DEPOL2_BITS = np.array(DEPOL2_OUTCOMES, dtype=bool).reshape(-1, 4)


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
            outcomes = [((q,), _LETTER[o], ins.arg / 3) for q in ins.targets
                        for o in DEPOL1_OUTCOMES]
        elif ins.op == "DEPOL2":
            outcomes = [(pair, _LETTER[a] + _LETTER[b], ins.arg / 15)
                        for pair in ins.target_pairs()
                        for a, b in DEPOL2_OUTCOMES]
        elif ins.op == "MEAS_FLIP":
            outcomes = [((q,), "FLIP", ins.arg) for q in ins.targets]
        else:
            continue
        base = circuit.fault_site_base[idx]
        for k, (qubits, pauli, p) in enumerate(outcomes):
            yield FaultSite(base + k, idx, qubits, pauli, p)


class FaultPropagator:
    """Propagates single faults through the noiseless part of a circuit.

    The per-site cost is one pass over the instructions after the fault,
    conjugating the frame and collecting measurement-record flips.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._x = np.zeros(len(circuit.qubits), dtype=bool)
        self._z = np.zeros(len(circuit.qubits), dtype=bool)

    def propagate(self, site: FaultSite) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return (flipped detector ids, flipped observable ids) for one fault."""
        x, z = self._x, self._z
        x[:] = False
        z[:] = False
        circuit = self.circuit
        col = circuit.columns
        flipped_recs: list[int] = []
        instructions = circuit.instructions
        meas_before = circuit.meas_before
        ins = instructions[site.instr_index]
        if site.pauli == "FLIP":
            if ins.op != "MEAS_FLIP":
                raise CircuitError("FLIP fault must sit on a MEAS_FLIP channel")
            prev = instructions[site.instr_index - 1]
            base = meas_before[site.instr_index - 1]
            flipped_recs.append(base + prev.targets.index(site.qubits[0]))
        else:
            for q, letter in zip(site.qubits, site.pauli):
                xb, zb = PAULI_BITS[letter]
                if xb:
                    x[col[q]] ^= True
                if zb:
                    z[col[q]] ^= True
        start = site.instr_index + 1
        for idx, ins in enumerate(instructions[start:], start):
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
            elif op == "MEAS_Z":
                for j, q in enumerate(ins.targets):
                    if x[col[q]]:
                        flipped_recs.append(meas_before[idx] + j)
            elif op in RESETS:
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
                    flipped_recs.append(meas_before[idx])
            # X/Y/Z gates and noise channels commute with the frame up to
            # phase; TICK/DETECTOR/OBSERVABLE carry no action here
        flipped: set[int] = set()
        for rec in flipped_recs:
            for k in circuit.record_parities[rec]:
                flipped ^= {k}
        n_det = circuit.num_detectors
        return (tuple(sorted(k for k in flipped if k < n_det)),
                tuple(sorted(k - n_det for k in flipped if k >= n_det)))


class CircuitSampler:
    """Vectorized many-shot noisy-circuit sampler.

    Draws every noise channel outcome explicitly, propagates the frames
    of all shots in lockstep, and returns detector/observable flip
    arrays with the canonical fault sites that fired in each shot, for
    bit-exact cross-checks against mechanism-level resampling.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    def sample(self, shots: int, rng: np.random.Generator):
        """Run ``shots`` noisy shots.

        Returns (dets, obs, fired): boolean arrays of shape (shots, num)
        and, per shot, the sorted tuple of fired site ids.
        """
        if shots < 0:
            raise CircuitError(f"shots must be non-negative, got {shots}")
        c = self.circuit
        col = c.columns
        x = np.zeros((shots, len(col)), dtype=bool)
        z = np.zeros((shots, len(col)), dtype=bool)
        rec = np.zeros((shots, c.num_measurements), dtype=bool)
        fired: list[list[int]] = [[] for _ in range(shots)]
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
            elif op == "MEAS_Z":
                for j, q in enumerate(ins.targets):
                    rec[:, c.meas_before[idx] + j] = x[:, col[q]]
            elif op in RESETS:
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
                rec[:, c.meas_before[idx]] = flip
            elif op == "DEPOL1":
                base = c.fault_site_base[idx]
                for j, q in enumerate(ins.targets):
                    hit = rng.random(shots) < ins.arg
                    kind = rng.integers(0, 3, size=shots)
                    bits = _DEPOL1_BITS[kind]
                    i = col[q]
                    x[:, i] ^= hit & bits[:, 0]
                    z[:, i] ^= hit & bits[:, 1]
                    for s in np.flatnonzero(hit):
                        fired[s].append(base + 3 * j + int(kind[s]))
            elif op == "DEPOL2":
                base = c.fault_site_base[idx]
                for j, (qa, qb) in enumerate(ins.target_pairs()):
                    hit = rng.random(shots) < ins.arg
                    v = rng.integers(1, 16, size=shots)
                    bits = _DEPOL2_BITS[v - 1]
                    a, b = col[qa], col[qb]
                    x[:, a] ^= hit & bits[:, 0]
                    z[:, a] ^= hit & bits[:, 1]
                    x[:, b] ^= hit & bits[:, 2]
                    z[:, b] ^= hit & bits[:, 3]
                    for s in np.flatnonzero(hit):
                        fired[s].append(base + 15 * j + int(v[s]) - 1)
            elif op == "MEAS_FLIP":
                base = c.fault_site_base[idx]
                for j in range(len(ins.targets)):
                    hit = rng.random(shots) < ins.arg
                    rec[:, c.meas_before[idx - 1] + j] ^= hit
                    for s in np.flatnonzero(hit):
                        fired[s].append(base + j)
        parities = np.zeros((shots, c.num_detectors + c.num_observables),
                            dtype=bool)
        for r, ks in enumerate(c.record_parities):
            for k in ks:
                parities[:, k] ^= rec[:, r]
        dets, obs = np.hsplit(parities, [c.num_detectors])
        return dets, obs, [tuple(sorted(f)) for f in fired]

"""Stabilizer tableau simulation with symbolic measurement outcomes.

The simulator tracks destabilizer/stabilizer rows in the usual binary
(x, z) encoding.  Row signs are affine Boolean forms over "coins", one
coin per random measurement outcome, stored as Python int bitmasks
(bit 0 is the constant term, bit 1+k is coin k).  A detector or
observable parity is deterministic exactly when the coin part of its
outcome form cancels, which this module checks without any sampling.

A measurement costs in proportion to the measured Pauli's support, not
to the tableau's size, wherever the algebra allows:

* a row anticommutes with P by the symplectic product over the columns
  where P acts, so only those columns are read (one, for a single-qubit
  measurement or reset);
* a random outcome multiplies one stabilizer row p into every other
  anticommuting row.  Row p and its destabilizer partner are no
  targets, so every target reads the same, unchanged row p and all of
  them are updated in one batched rowsum;
* a deterministic outcome is the product of the stabilizer rows whose
  destabilizers anticommute with P; its phase comes in closed form from
  the rows' pairwise overlaps instead of row-by-row accumulation.

A row (x, z) stands for i^(x.z) X^x Z^z, so phases follow from counts of
overlapping bits.  Only the 0/1 phase bit of a product comes from numpy;
the coin forms stay Python ints, since they outgrow 64 bits.

Qubit columns, record numbering and the op groups are the shared ones of
:mod:`ghostdec.circuits`; only the tableau update rules live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import ANNOTATION_OPS, NOISE_OPS, PAULI_BITS, Circuit


class StabilizerSimulator:
    """CHP-style simulator over ``num_qubits`` qubits, all starting in |0>.

    Rows 0..n-1 are destabilizers, rows n..2n-1 their stabilizers.
    """

    def __init__(self, num_qubits: int):
        n = self.n = num_qubits
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        for i in range(n):
            self.x[i, i] = True
            self.z[n + i, i] = True
        self.signs = [0] * (2 * n)
        self.num_coins = 0

    # -- gates ---------------------------------------------------------

    def h(self, q: int) -> None:
        flip = self.x[:, q] & self.z[:, q]
        self._flip_signs(flip)
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def x_gate(self, q: int) -> None:
        self._flip_signs(self.z[:, q])

    def z_gate(self, q: int) -> None:
        self._flip_signs(self.x[:, q])

    def y_gate(self, q: int) -> None:
        self._flip_signs(self.x[:, q] ^ self.z[:, q])

    def cx(self, c: int, t: int) -> None:
        flip = self.x[:, c] & self.z[:, t] & ~(self.x[:, t] ^ self.z[:, c])
        self._flip_signs(flip)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def _flip_signs(self, mask: np.ndarray) -> None:
        for i in np.flatnonzero(mask):
            self.signs[i] ^= 1

    # -- measurement ---------------------------------------------------

    def measure_pauli(self, xp: np.ndarray, zp: np.ndarray, sign_bit: int = 0) -> int:
        """Measure the Pauli product (-1)^sign_bit * P and return its
        outcome as an affine form over coins."""
        n = self.n
        anti = self._anticommute_mask(xp, zp)
        stab_anti = np.flatnonzero(anti[n:])
        if stab_anti.size:
            p = n + int(stab_anti[0])
            # row p - n is overwritten below, so it is skipped (it
            # anticommutes with row p and their product is not Hermitian)
            anti[p] = anti[p - n] = False
            self._rowsum(np.flatnonzero(anti), p)
            # the old stabilizer becomes the destabilizer of the new one
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.signs[p - n] = self.signs[p]
            coin = 1 << (1 + self.num_coins)
            self.num_coins += 1
            self.x[p] = xp
            self.z[p] = zp
            self.signs[p] = coin ^ (sign_bit & 1)
            return coin
        # deterministic: P is the product of the stabilizer rows whose
        # destabilizer partner anticommutes with it
        rows = n + np.flatnonzero(anti[:n])
        xr, zr = self.x[rows], self.z[rows]
        xs = np.logical_xor.reduce(xr, axis=0)
        zs = np.logical_xor.reduce(zr, axis=0)
        if not (np.array_equal(xs, xp) and np.array_equal(zs, zp)):
            raise AssertionError("deterministic measurement did not reproduce operator")
        # rows[-1] ... rows[0]: moving every X^x_b left past the Z^z_a
        # with a > b costs (-1)^(z_a . x_b)
        zx = zr.astype(np.int64) @ xr.T.astype(np.int64)
        tot = (np.count_nonzero(xr & zr) + 2 * int(np.tril(zx, -1).sum())
               - np.count_nonzero(xs & zs)) % 4
        form = (sign_bit & 1) ^ _half_phase(tot)
        for r in rows.tolist():
            form ^= self.signs[r]
        return form

    def measure_z(self, q: int) -> int:
        xp = np.zeros(self.n, dtype=bool)
        zp = np.zeros(self.n, dtype=bool)
        zp[q] = True
        return self.measure_pauli(xp, zp)

    def reset_z(self, q: int) -> None:
        f = self.measure_z(q)
        if f:
            # classically controlled X^f folds into the sign forms
            for i in np.flatnonzero(self.z[:, q]):
                self.signs[i] ^= f

    def reset_x(self, q: int) -> None:
        xp = np.zeros(self.n, dtype=bool)
        zp = np.zeros(self.n, dtype=bool)
        xp[q] = True
        f = self.measure_pauli(xp, zp)
        if f:
            for i in np.flatnonzero(self.x[:, q]):
                self.signs[i] ^= f

    def _anticommute_mask(self, xp: np.ndarray, zp: np.ndarray) -> np.ndarray:
        """Rows anticommuting with P, reading only the columns P acts on."""
        cols = np.flatnonzero(xp | zp)
        odd = self.x[:, cols] & zp[cols]
        odd ^= self.z[:, cols] & xp[cols]
        return np.logical_xor.reduce(odd, axis=1)

    def _rowsum(self, hs: np.ndarray, i: int) -> None:
        """Every row h in ``hs`` := (row i) * (row h), with exact phase
        bookkeeping; row i must not be in ``hs``."""
        x1, z1 = self.x[i], self.z[i]
        x2, z2 = self.x[hs], self.z[hs]
        tot = (np.count_nonzero(x1 & z1) + np.count_nonzero(x2 & z2, axis=1)
               + 2 * np.count_nonzero(z1 & x2, axis=1)
               - np.count_nonzero((x1 ^ x2) & (z1 ^ z2), axis=1)) % 4
        si = self.signs[i]
        for h, t in zip(hs.tolist(), tot.tolist()):
            self.signs[h] ^= si ^ _half_phase(t)
        self.x[hs] = x1 ^ x2
        self.z[hs] = z1 ^ z2


def _half_phase(tot: int) -> int:
    """Sign bit of a product whose phase is i^tot; a Hermitian product of
    commuting rows has tot in {0, 2}."""
    if tot & 1:
        raise AssertionError("non-Hermitian phase in rowsum")
    return int(tot) >> 1


@dataclass
class DeterminismReport:
    """Outcome of a noiseless symbolic run over a circuit."""

    measurement_forms: list[int] = field(default_factory=list)
    nondeterministic_detectors: list[int] = field(default_factory=list)
    nonzero_detectors: list[int] = field(default_factory=list)
    nondeterministic_observables: list[int] = field(default_factory=list)
    nonzero_observables: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.nondeterministic_detectors or self.nonzero_detectors
                    or self.nondeterministic_observables or self.nonzero_observables)


def check_detector_determinism(circuit: Circuit) -> DeterminismReport:
    """Run the circuit noiselessly with symbolic coins and verify that
    every detector and observable parity is deterministic and zero.

    Noise channels are skipped; everything else is simulated exactly.
    """
    cols = circuit.columns
    sim = StabilizerSimulator(len(cols))
    one_qubit = {"H": sim.h, "X": sim.x_gate, "Y": sim.y_gate, "Z": sim.z_gate,
                 "RESET_Z": sim.reset_z, "RESET_X": sim.reset_x}
    forms: list[int] = []
    for ins in circuit.instructions:
        op = ins.op
        if op in one_qubit:
            gate = one_qubit[op]
            for q in ins.targets:
                gate(cols[q])
        elif op == "MEAS_Z":
            forms.extend(sim.measure_z(cols[q]) for q in ins.targets)
        elif op == "MPP":
            xp = np.zeros(sim.n, dtype=bool)
            zp = np.zeros(sim.n, dtype=bool)
            for q, p in ins.paulis:
                xp[cols[q]], zp[cols[q]] = PAULI_BITS[p]
            forms.append(sim.measure_pauli(xp, zp, ins.sign))
        elif op == "CX":
            for c, t in ins.target_pairs():
                sim.cx(cols[c], cols[t])
        elif op not in NOISE_OPS + ANNOTATION_OPS:
            raise AssertionError(f"unhandled op {op}")

    return DeterminismReport(forms, *_classify(forms, circuit.detectors),
                             *_classify(forms, circuit.observables))


def _classify(forms: list[int], parities) -> tuple[list[int], list[int]]:
    """Indices of the parities whose outcome form keeps a coin, and of the
    others whose constant is 1."""
    nondeterministic: list[int] = []
    nonzero: list[int] = []
    for par in parities:
        form = 0
        for m in par.meas:
            form ^= forms[m]
        if form >> 1:
            nondeterministic.append(par.index)
        elif form & 1:
            nonzero.append(par.index)
    return nondeterministic, nonzero

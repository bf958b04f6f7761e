"""Detector-error-model extraction and sampling.

Extraction runs one backward pass over the circuit, maintaining for
every qubit two sensitivity registers (big-int bitmasks over detector
and observable indices): bit k of the X register says an X error at
this point flips parity k.  Each noise-channel outcome then reads its
symptom directly off the registers, independently of the forward
fault-propagation oracle in :mod:`ghostdec.frames`.  Record parities,
record numbering, fault-site numbering and Pauli bits are the shared
conventions of :mod:`ghostdec.circuits`; only the backward update rules
live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import xor

import numpy as np

from .circuits import (ANNOTATION_OPS, DEPOL1_OUTCOMES, DEPOL2_OUTCOMES,
                       NOISE_OPS, PAULI_BITS, RESETS, Circuit, CircuitError)
from .tableau import check_detector_determinism


@dataclass(frozen=True)
class ErrorMechanism:
    """An independent error with its defect pattern.

    ``provenance`` lists the canonical fault-site ids that were merged
    into this mechanism; it is diagnostic and excluded from equality.
    """

    probability: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]
    provenance: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not (0.0 < self.probability <= 0.5):
            raise CircuitError(f"mechanism probability {self.probability} out of range")
        if not self.detectors and not self.observables:
            raise CircuitError("mechanism with empty symptom")
        for kind, ids in (("detector", self.detectors),
                          ("observable", self.observables)):
            if ids != tuple(sorted(set(ids))) or ids and ids[0] < 0:
                raise CircuitError(f"mechanism {kind} ids {ids} are not "
                                   "strictly ascending from 0")


@dataclass(frozen=True)
class DetectorErrorModel:
    mechanisms: tuple[ErrorMechanism, ...]
    detector_count: int
    observable_count: int
    detector_patch: tuple[int, ...]
    detector_time: tuple[int, ...]
    detector_class: tuple[str, ...]
    observable_patch: tuple[int | None, ...]
    # readout class: defects of this detector class accompany flips of
    # the observable (None for mixed-basis joint readouts)
    observable_class: tuple[str | None, ...] = ()

    def __post_init__(self):
        for m in self.mechanisms:
            if m.detectors and m.detectors[-1] >= self.detector_count:
                raise CircuitError("mechanism references detector out of range")
            if m.observables and m.observables[-1] >= self.observable_count:
                raise CircuitError("mechanism references observable out of range")
        if not self.observable_class:
            object.__setattr__(self, "observable_class",
                               (None,) * self.observable_count)
        for kind, count, maps in (
                ("detector", self.detector_count, ("patch", "time", "class")),
                ("observable", self.observable_count, ("patch", "class"))):
            for name in maps:
                if len(getattr(self, f"{kind}_{name}")) != count:
                    raise CircuitError(f"{kind} {name} map is not total")


def _merge_odd(p1: float, p2: float) -> float:
    """Probability that an odd number of two independent events occur."""
    return p1 * (1.0 - p2) + p2 * (1.0 - p1)


def extract_dem(circuit: Circuit) -> DetectorErrorModel:
    """Single-fault symbolic extraction of the detector error model."""
    report = check_detector_determinism(circuit)
    if not report.ok:
        bad = {"detectors": report.nondeterministic_detectors
               + report.nonzero_detectors,
               "observables": report.nondeterministic_observables
               + report.nonzero_observables}
        raise CircuitError("nondeterministic " + ", ".join(
            f"{kind} {ids}" for kind, ids in bad.items() if ids))
    n_det = circuit.num_detectors
    n_obs = circuit.num_observables
    # parity bitmask per measurement record
    mask_rec = [reduce(xor, (1 << k for k in ks), 0)
                for ks in circuit.record_parities]
    meas_before = circuit.meas_before
    site_base = circuit.fault_site_base

    sx: dict[int, int] = dict.fromkeys(circuit.columns, 0)
    sz: dict[int, int] = dict.fromkeys(circuit.columns, 0)
    symptoms: dict[int, tuple[float, list[int]]] = {}

    def fold(sym: int, p: float, site: int) -> None:
        if sym == 0 or p == 0.0:
            return
        if sym in symptoms:
            old_p, sites = symptoms[sym]
            symptoms[sym] = (_merge_odd(old_p, p), sites)
            sites.append(site)
        else:
            symptoms[sym] = (p, [site])

    for idx in range(len(circuit.instructions) - 1, -1, -1):
        ins = circuit.instructions[idx]
        op = ins.op
        if op == "MEAS_Z":
            m0 = meas_before[idx]
            for j, q in enumerate(ins.targets):
                sx[q] ^= mask_rec[m0 + j]
        elif op == "MPP":
            mask = mask_rec[meas_before[idx]]
            for q, letter in ins.paulis:
                xb, zb = PAULI_BITS[letter]
                if zb:
                    sx[q] ^= mask
                if xb:
                    sz[q] ^= mask
        elif op in RESETS:
            for q in ins.targets:
                sx[q] = 0
                sz[q] = 0
        elif op == "H":
            for q in ins.targets:
                sx[q], sz[q] = sz[q], sx[q]
        elif op == "CX":
            t = ins.targets
            for i in range(0, len(t), 2):
                c, d = t[i], t[i + 1]
                sx[c] ^= sx[d]
                sz[d] ^= sz[c]
        elif op == "DEPOL1":
            for j, q in enumerate(ins.targets):
                part = ((0, sz[q]), (sx[q], sx[q] ^ sz[q]))  # [x bit][z bit]
                for k, (xb, zb) in enumerate(DEPOL1_OUTCOMES):
                    fold(part[xb][zb], ins.arg / 3, site_base[idx] + 3 * j + k)
        elif op == "DEPOL2":
            for j, (qa, qb) in enumerate(ins.target_pairs()):
                pa = ((0, sz[qa]), (sx[qa], sx[qa] ^ sz[qa]))
                pb = ((0, sz[qb]), (sx[qb], sx[qb] ^ sz[qb]))
                for k, ((xa, za), (xb, zb)) in enumerate(DEPOL2_OUTCOMES):
                    fold(pa[xa][za] ^ pb[xb][zb], ins.arg / 15,
                         site_base[idx] + 15 * j + k)
        elif op == "MEAS_FLIP":
            for j in range(len(ins.targets)):
                fold(mask_rec[meas_before[idx - 1] + j], ins.arg,
                     site_base[idx] + j)

    det_bits = (1 << n_det) - 1
    mechanisms = []
    for sym, (p, sites) in symptoms.items():
        dets = tuple(_bits(sym & det_bits))
        obs = tuple(_bits(sym >> n_det))
        mechanisms.append(ErrorMechanism(p, dets, obs, tuple(sites)))
    mechanisms.sort(key=lambda mech: (mech.detectors, mech.observables))

    patch, time, cls = _detector_metadata(circuit)
    opatch, ocls = _observable_metadata(circuit)
    return DetectorErrorModel(tuple(mechanisms), n_det, n_obs,
                              patch, time, cls, opatch, ocls)


def _bits(v: int):
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _detector_metadata(circuit: Circuit):
    by_coord = {}
    for q in circuit.qubits:
        if q.kind.startswith("ancilla"):
            by_coord[(q.x, q.y)] = (q.patch, q.kind[-1])
    patch, time, cls = [], [], []
    for det in circuit.detectors:
        t, x, y = det.coords
        if (x, y) not in by_coord:
            raise CircuitError(f"detector {det.index} at ({x}, {y}) matches no cell")
        p, c = by_coord[(x, y)]
        patch.append(p)
        time.append(int(t))
        cls.append(c)
    return tuple(patch), tuple(time), tuple(cls)


def _readout_basis(circuit: Circuit, rec) -> str:
    """Basis of a single-qubit readout: X when rotated by a preceding H."""
    for idx in range(rec.instr - 1, -1, -1):
        ins = circuit.instructions[idx]
        if ins.op in ANNOTATION_OPS + NOISE_OPS:
            continue
        if rec.qubit in ins.targets:
            return "X" if ins.op == "H" else "Z"
    return "Z"


def _observable_metadata(circuit: Circuit):
    """Patch and readout class per observable (None when mixed)."""
    qubit_patch = {q.id: q.patch for q in circuit.qubits}
    recs = circuit.measurements
    patches: list[int | None] = []
    classes: list[str | None] = []
    for obs in circuit.observables:
        pat = set()
        bases = set()
        for r in obs.meas:
            rec = recs[r]
            if rec.qubit is not None:
                pat.add(qubit_patch[rec.qubit])
                bases.add(_readout_basis(circuit, rec))
            else:
                ins = circuit.instructions[rec.instr]
                pat.update(qubit_patch[q] for q, _ in ins.paulis)
                bases.update(p for _, p in ins.paulis)
        patches.append(pat.pop() if len(pat) == 1 else None)
        classes.append(bases.pop() if len(bases) == 1 and bases <= {"X", "Z"}
                       else None)
    return tuple(patches), tuple(classes)


# -- sampling --------------------------------------------------------------------

SAMPLE_CHUNK = 1024
# a chunk's uniform draws are made this many rows at a time, in the same
# order as one whole-chunk draw, so only a block is ever held as floats
SAMPLE_BLOCK = 128


def sample_dem(dem: DetectorErrorModel, seed: int, shots: int,
               first_chunk: int = 0):
    """Sample detector/observable flip vectors from the model.

    Shot s (globally indexed from ``first_chunk * SAMPLE_CHUNK``) is
    generated inside chunk s // SAMPLE_CHUNK with a chunk-derived
    substream, so any partitioning of the shot range over workers
    produces identical results.
    """
    if seed < 0 or shots < 0 or first_chunk < 0:
        raise CircuitError("seed, shots and first_chunk must be non-negative")
    n_mech = len(dem.mechanisms)
    probs = np.array([m.probability for m in dem.mechanisms])
    dets = np.zeros((shots, dem.detector_count), dtype=bool)
    obs = np.zeros((shots, dem.observable_count), dtype=bool)
    det_rows = []
    obs_rows = []
    for m in dem.mechanisms:
        det_rows.append(np.array(m.detectors, dtype=int))
        obs_rows.append(np.array(m.observables, dtype=int))
    done = 0
    chunk = first_chunk
    while done < shots:
        size = min(SAMPLE_CHUNK, shots - done)
        rng = np.random.default_rng([seed, chunk])
        fired = np.empty((size, n_mech), dtype=bool)
        for lo in range(0, size, SAMPLE_BLOCK):
            hi = min(lo + SAMPLE_BLOCK, size)
            fired[lo:hi] = rng.random((hi - lo, n_mech)) < probs
        for e in np.flatnonzero(fired.any(axis=0)):
            rows = np.flatnonzero(fired[:, e]) + done
            if det_rows[e].size:
                dets[np.ix_(rows, det_rows[e])] ^= True
            if obs_rows[e].size:
                obs[np.ix_(rows, obs_rows[e])] ^= True
        done += size
        chunk += 1
    return dets, obs


def mechanism_symptom_xor(dem: DetectorErrorModel, site_to_mech: dict[int, int],
                          fired_sites) -> tuple[np.ndarray, np.ndarray]:
    """XOR mechanism symptoms for explicit fault realizations.

    ``fired_sites`` is a sequence per shot of canonical fault-site ids;
    sites whose symptom was empty (absent from ``site_to_mech``) are
    skipped.  Used by the frame-simulation cross-check.
    """
    shots = len(fired_sites)
    dets = np.zeros((shots, dem.detector_count), dtype=bool)
    obs = np.zeros((shots, dem.observable_count), dtype=bool)
    for s, sites in enumerate(fired_sites):
        for site in sites:
            e = site_to_mech.get(site)
            if e is None:
                continue
            m = dem.mechanisms[e]
            for d in m.detectors:
                dets[s, d] ^= True
            for o in m.observables:
                obs[s, o] ^= True
    return dets, obs


def site_to_mechanism(dem: DetectorErrorModel) -> dict[int, int]:
    """Invert provenance: canonical site id -> mechanism index."""
    out: dict[int, int] = {}
    for e, m in enumerate(dem.mechanisms):
        for site in m.provenance:
            out[site] = e
    return out

"""Detector-error-model extraction, serialization, and sampling.

Extraction runs one backward pass over the circuit, maintaining for
every qubit two sensitivity registers (big-int bitmasks over detector
and observable indices): bit k of the X register says an X error at
this point flips parity k.  Each noise-channel outcome then reads its
symptom directly off the registers, independently of the forward
fault-propagation oracle in :mod:`ghostdec.frames`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, CircuitError
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
        for name, seq in (("patch", self.detector_patch),
                          ("time", self.detector_time),
                          ("class", self.detector_class)):
            if len(seq) != self.detector_count:
                raise CircuitError(f"detector {name} map is not total")
        if not self.observable_class:
            object.__setattr__(self, "observable_class",
                               (None,) * self.observable_count)


def _merge_odd(p1: float, p2: float) -> float:
    """Probability that an odd number of two independent events occur."""
    return p1 * (1.0 - p2) + p2 * (1.0 - p1)


def extract_dem(circuit: Circuit, check: bool = True) -> DetectorErrorModel:
    """Single-fault symbolic extraction of the detector error model."""
    if check:
        report = check_detector_determinism(circuit)
        if not report.ok:
            raise CircuitError(
                "nondeterministic detectors "
                f"{report.nondeterministic_detectors + report.nonzero_detectors}")
    n_det = circuit.num_detectors
    n_obs = circuit.num_observables
    # parity mask per measurement record
    mask_rec: dict[int, int] = {}
    for det in circuit.detectors:
        for r in det.meas:
            mask_rec[r] = mask_rec.get(r, 0) ^ (1 << det.index)
    for obs in circuit.observables:
        for r in obs.meas:
            mask_rec[r] = mask_rec.get(r, 0) ^ (1 << (n_det + obs.index))
    meas_before = circuit.meas_before
    site_base = circuit.fault_site_base

    sx: dict[int, int] = {q.id: 0 for q in circuit.qubits}
    sz: dict[int, int] = {q.id: 0 for q in circuit.qubits}
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
                sx[q] ^= mask_rec.get(m0 + j, 0)
        elif op == "MPP":
            mask = mask_rec.get(meas_before[idx], 0)
            for q, letter in ins.paulis:
                if letter in ("Z", "Y"):
                    sx[q] ^= mask
                if letter in ("X", "Y"):
                    sz[q] ^= mask
        elif op in ("RESET_Z", "RESET_X"):
            for q in ins.targets:
                sx[q] = 0
                sz[q] = 0
        elif op == "H":
            for q in ins.targets:
                sx[q], sz[q] = sz[q], sx[q]
        elif op == "S":
            for q in ins.targets:
                sx[q] ^= sz[q]
        elif op == "CX":
            t = ins.targets
            for i in range(0, len(t), 2):
                c, d = t[i], t[i + 1]
                sx[c] ^= sx[d]
                sz[d] ^= sz[c]
        elif op == "DEPOL1":
            for j, q in enumerate(ins.targets):
                parts = (sx[q], sx[q] ^ sz[q], sz[q])  # X, Y, Z outcomes
                for k, sym in enumerate(parts):
                    fold(sym, ins.arg / 3, site_base[idx] + 3 * j + k)
        elif op == "DEPOL2":
            for j, (qa, qb) in enumerate(ins.target_pairs()):
                pa = (0, sx[qa], sx[qa] ^ sz[qa], sz[qa])  # I, X, Y, Z
                pb = (0, sx[qb], sx[qb] ^ sz[qb], sz[qb])
                for v in range(1, 16):
                    sym = pa[_LETTER_INDEX[v >> 2]] ^ pb[_LETTER_INDEX[v & 3]]
                    fold(sym, ins.arg / 15, site_base[idx] + 15 * j + v - 1)
        elif op == "MEAS_FLIP":
            prev = circuit.instructions[idx - 1]
            m0 = meas_before[idx - 1]
            for j, q in enumerate(ins.targets):
                rec = m0 + prev.targets.index(q)
                fold(mask_rec.get(rec, 0), ins.arg, site_base[idx] + j)

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


# maps the 2-bit codes of a 4-valued Pauli index (bit pattern x,z) onto
# the (I, X, Y, Z) part table used above
_LETTER_INDEX = {0b00: 0, 0b10: 1, 0b11: 2, 0b01: 3}


def _bits(v: int):
    i = 0
    while v:
        if v & 1:
            yield i
        v >>= 1
        i += 1


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
        if ins.op in ("TICK", "DETECTOR", "OBSERVABLE") or ins.op.endswith("FLIP") \
                or ins.op.startswith("DEPOL"):
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


# -- text format ---------------------------------------------------------------


def serialize_dem(dem: DetectorErrorModel) -> str:
    lines = [f"detectors {dem.detector_count}",
             f"observables {dem.observable_count}"]
    for i in range(dem.detector_count):
        lines.append(f"patch D{i} {dem.detector_patch[i]}")
        lines.append(f"time D{i} {dem.detector_time[i]}")
        lines.append(f"class D{i} {dem.detector_class[i]}")
    for j, p in enumerate(dem.observable_patch):
        lines.append(f"lpatch L{j} {'-' if p is None else p}")
        c = dem.observable_class[j]
        lines.append(f"lclass L{j} {'-' if c is None else c}")
    for m in dem.mechanisms:
        terms = [f"D{i}" for i in m.detectors] + [f"L{j}" for j in m.observables]
        lines.append(f"error({m.probability!r}) " + " ".join(terms))
    return "\n".join(lines) + "\n"


def parse_dem(text: str) -> DetectorErrorModel:
    n_det = n_obs = None
    patch: dict[int, int] = {}
    time: dict[int, int] = {}
    cls: dict[int, str] = {}
    lpatch: dict[int, int | None] = {}
    lclass: dict[int, str | None] = {}
    mechanisms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("detectors "):
                n_det = int(line.split()[1])
            elif line.startswith("observables "):
                n_obs = int(line.split()[1])
            elif line.startswith("patch "):
                _, d, v = line.split()
                patch[int(d[1:])] = int(v)
            elif line.startswith("time "):
                _, d, v = line.split()
                time[int(d[1:])] = int(v)
            elif line.startswith("class "):
                _, d, v = line.split()
                if v not in ("Z", "X"):
                    raise ValueError(f"bad class {v!r}")
                cls[int(d[1:])] = v
            elif line.startswith("lpatch "):
                _, d, v = line.split()
                lpatch[int(d[1:])] = None if v == "-" else int(v)
            elif line.startswith("lclass "):
                _, d, v = line.split()
                if v not in ("Z", "X", "-"):
                    raise ValueError(f"bad observable class {v!r}")
                lclass[int(d[1:])] = None if v == "-" else v
            elif line.startswith("error("):
                head, rest = line.split(")", 1)
                p = float(head[len("error("):])
                dets, obs = [], []
                for tok in rest.split():
                    if tok.startswith("D"):
                        dets.append(int(tok[1:]))
                    elif tok.startswith("L"):
                        obs.append(int(tok[1:]))
                    else:
                        raise ValueError(f"unknown term {tok!r}")
                mechanisms.append(ErrorMechanism(p, tuple(sorted(dets)),
                                                 tuple(sorted(obs))))
            else:
                raise ValueError(f"unknown line {line.split()[0]!r}")
        except (ValueError, IndexError) as exc:
            raise CircuitError(f"line {lineno}: {exc}") from exc
    if n_det is None or n_obs is None:
        raise CircuitError("missing detectors/observables header")
    return DetectorErrorModel(
        tuple(mechanisms), n_det, n_obs,
        tuple(patch[i] for i in range(n_det)),
        tuple(time[i] for i in range(n_det)),
        tuple(cls[i] for i in range(n_det)),
        tuple(lpatch.get(j) for j in range(n_obs)),
        tuple(lclass.get(j) for j in range(n_obs)))


# -- sampling --------------------------------------------------------------------

SAMPLE_CHUNK = 1024


def sample_dem(dem: DetectorErrorModel, seed: int, shots: int,
               first_chunk: int = 0):
    """Sample detector/observable flip vectors from the model.

    Shot s (globally indexed from ``first_chunk * SAMPLE_CHUNK``) is
    generated inside chunk s // SAMPLE_CHUNK with a chunk-derived
    substream, so any partitioning of the shot range over workers
    produces identical results.
    """
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
        fired = rng.random((SAMPLE_CHUNK, n_mech))[:size] < probs
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

"""The ghostdec benchmark: set-up, a closed sample-and-decode loop, checks.

One process runs one workload with one thread.  An untraced run sets the
workload up several times; after each set-up, a closed loop samples shots
with ``dem.sample_dem`` at the given seed and decodes them one after
another until its share of the run time is spent.  ``--trace 1`` traces
the set-ups, runs one plain and one traced loop, and reports per-layer
metrics and the tracing overhead instead.

The last line of standard output is the result object; the line before it
is a report with the run metadata, the decision digest and the decoder
quality figures.  A failed output check exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import networkx
import numpy as np
import scipy

from ghostdec.builders import (NoiseParams, apply_noise_model,
                               build_memory_circuit, build_tproxy_circuit)
from ghostdec.circuits import CircuitError
from ghostdec.decompose import ghost_decompose
from ghostdec.dem import SAMPLE_CHUNK, extract_dem, sample_dem
from ghostdec.ghost import build_protocol_graphs, run_ghost_protocol
from ghostdec.patience import patient_decode, plan_patience
from ghostdec.stats import likelihood_interval
from ghostdec.windows import (WindowConfig, compute_tw_error,
                              decode_tproxy_global, decode_tproxy_windowed,
                              plan_tproxy_windows)

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = WindowConfig()
# set-up and decode-loop pairs per run
REPEATS = 4
# p95 needs at least ten samples beyond it
MIN_SHOTS = 200
QUICK_SHOTS = 8
# a run fails its quality check when the reference LER lies below the
# likelihood interval of the observed count at this factor
LER_CHECK_FACTOR = 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # memory | realtime | patience
    d: int
    p: float
    build: Callable
    check_shots: int           # leading shots covered by the digest


WORKLOADS = {w.name: w for w in (
    Workload("memory-d7", "memory", 7, 5e-3,
             lambda: build_memory_circuit(7, 7), 200),
    Workload("tproxy-d5-realtime", "realtime", 5, 1e-3,
             lambda: build_tproxy_circuit(5, 2), 400),
    Workload("tproxy-d7-patience", "patience", 7, 2e-3,
             lambda: build_tproxy_circuit(7, 2, extra_rounds=2), 200),
)}


@dataclass
class Problem:
    dem: object
    decomposed: object
    graphs: dict | None
    plan: object


def _no_span(name):
    return nullcontext()


def set_up(w: Workload, span=_no_span) -> Problem:
    """Everything a user runs before the first shot, in pipeline order."""
    with span("builders.build"):
        circuit = w.build()
    with span("builders.noise"):
        noisy = apply_noise_model(circuit, NoiseParams(w.p))
    with span("dem.extract"):
        dem = extract_dem(noisy)
    with span("decompose.decompose"):
        decomposed = ghost_decompose(dem)
    graphs = plan = None
    if w.kind != "patience":
        with span("ghost.graphs"):
            graphs = build_protocol_graphs(decomposed)
    if w.kind == "realtime":
        with span("windows.plan"):
            plan = plan_tproxy_windows(decomposed, CONFIG)
    elif w.kind == "patience":
        with span("patience.plan"):
            plan = plan_patience(decomposed, CONFIG, w.d)
    return Problem(dem, decomposed, graphs, plan)


@dataclass
class Shot:
    seconds: float             # primary decode call only
    decisions: np.ndarray      # primary logical decisions
    bits: np.ndarray           # every decision bit the digest covers
    global_decisions: np.ndarray | None = None
    gates: int = 0
    heralds: int = 0
    retries: int = 0


def make_decoder(w: Workload, prob: Problem, tracer: layers.Tracer | None):
    """Per-shot decode function; with a tracer, the calls are traced."""
    def handle(name, fn):
        return fn if tracer is None else layers.timed(name, tracer, fn)

    dec = prob.decomposed
    if w.kind == "memory":
        protocol = run_ghost_protocol if tracer is None else \
            layers.traced_protocol(tracer, run_ghost_protocol)

        def decode(syndrome):
            t = perf_counter()
            res = protocol(dec, syndrome, graphs=prob.graphs,
                           collect_trace=False)
            flips = res.logical_flips
            return Shot(perf_counter() - t, flips, flips)
    elif w.kind == "realtime":
        windowed = handle("windows.windowed", decode_tproxy_windowed)
        hindsight = handle("windows.global", decode_tproxy_global)

        def decode(syndrome):
            t = perf_counter()
            win = windowed(dec, syndrome, CONFIG, plan=prob.plan).decisions
            seconds = perf_counter() - t
            glob = hindsight(dec, syndrome, graphs=prob.graphs)
            return Shot(seconds, win, np.concatenate([win, glob]), glob)
    else:
        patient = handle("patience.decode", patient_decode)

        def decode(syndrome):
            t = perf_counter()
            shot = patient(dec, syndrome, CONFIG, w.d, plan=prob.plan)
            seconds = perf_counter() - t
            heralded = np.array([h.heralded for h in shot.heralds])
            retried = sum(h.heralded and h.delay_rounds > 0
                          for h in shot.heralds)
            return Shot(seconds, shot.decisions,
                        np.concatenate([shot.decisions, shot.base_decisions,
                                        heralded]),
                        gates=len(shot.heralds), heralds=int(heralded.sum()),
                        retries=retried)
    return decode


@dataclass
class LoopResult:
    shots: int
    failed: int
    errors: int                # shots with any wrong decision, failed ones too
    wall_s: float
    decode_s: list
    digest: str
    tw_disagreements: int | None
    gates: int
    heralds: int
    retries: int

    @property
    def shots_per_s(self) -> float:
        return self.shots / self.wall_s


def run_loop(w: Workload, prob: Problem, decode, seed: int, seconds: float,
             min_shots: int, digest_shots: int, span=_no_span) -> LoopResult:
    """Closed loop: sample a chunk when the last one is used up, decode."""
    dem = prob.dem
    sha = hashlib.sha256()
    times: list[float] = []
    windowed, hindsight = [], []
    shots = failed = errors = gates = heralds = retries = 0
    chunk = 0
    t0 = perf_counter()
    while shots < min_shots or perf_counter() - t0 < seconds:
        row = shots % SAMPLE_CHUNK
        if row == 0:
            with span("dem.sample"):
                dets, obs = sample_dem(dem, seed, SAMPLE_CHUNK,
                                       first_chunk=chunk)
            chunk += 1
        try:
            shot = decode(dets[row])
        except CircuitError as exc:
            # a decode that raises is a failed operation, never a skipped shot
            failed += 1
            errors += 1
            print(f"{w.name} shot {shots}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            if shots < digest_shots:
                sha.update(b"failed")
        else:
            times.append(shot.seconds)
            errors += bool(np.any(shot.decisions != obs[row]))
            if shot.global_decisions is not None:
                windowed.append(shot.decisions)
                hindsight.append(shot.global_decisions)
            gates += shot.gates
            heralds += shot.heralds
            retries += shot.retries
            if shots < digest_shots:
                sha.update(np.packbits(shot.bits).tobytes())
        shots += 1
    wall = perf_counter() - t0
    tw = None
    if w.kind == "realtime":
        tw = compute_tw_error(np.array(windowed), np.array(hindsight)) \
            .disagreements if windowed else 0
    return LoopResult(shots, failed, errors, wall, times,
                      sha.hexdigest()[:16], tw, gates, heralds, retries)


def quality(w: Workload, loop: LoopResult) -> dict:
    """LER and the workload's own rates, with likelihood intervals."""
    out = {"ler": loop.errors / loop.shots,
           "errors": loop.errors,
           "ler_interval": likelihood_interval(loop.errors, loop.shots)}
    if w.kind == "realtime":
        out["tw_rate"] = loop.tw_disagreements / loop.shots
    if w.kind == "patience":
        out["herald_rate"] = loop.heralds / loop.gates if loop.gates else 0.0
    return out


def ler_plausible(w: Workload, loop: LoopResult, reference: dict) -> bool:
    """False when the observed LER is implausibly far above the reference."""
    ref = reference[w.name]["ler"]
    lo, _ = likelihood_interval(loop.errors, loop.shots, LER_CHECK_FACTOR)
    return lo <= ref["errors"] / ref["shots"]


def git_rev() -> str | None:
    """HEAD of the checkout, read from its files (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(args, shots: int, wall: float) -> dict:
    return {"git_rev": git_rev(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "shots": shots, "wall_s": wall}


def untraced_run(w: Workload, seed: int, repeats: int, seconds: float,
                 min_shots: int, digest_shots: int):
    """Set up and decode ``repeats`` times, each loop on a fresh set-up.

    Every loop decodes the same leading shots, so the loops repeat one
    measurement, cache fills included.  Slow spells of a shared host only
    ever add time, so each decode figure is that of the best loop;
    set-up time is the median of the set-ups.
    """
    setup_s, loops = [], []
    for _ in range(repeats):
        gc.collect()
        t = perf_counter()
        prob = set_up(w)
        setup_s.append(perf_counter() - t)
        loops.append(run_loop(w, prob, make_decoder(w, prob, None), seed,
                              seconds / repeats, min_shots, digest_shots))
        del prob
    each = {"setup_s": setup_s,
            "shots_per_s": [lp.shots_per_s for lp in loops],
            "decode_ms_p50": [1e3 * np.percentile(lp.decode_s, 50)
                              for lp in loops],
            "decode_ms_p95": [1e3 * np.percentile(lp.decode_s, 95)
                              for lp in loops]}
    values = {"setup_s": statistics.median(setup_s),
              "shots_per_s": max(each["shots_per_s"]),
              "decode_ms_p50": min(each["decode_ms_p50"]),
              "decode_ms_p95": min(each["decode_ms_p95"])}
    values["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = {"repeat_digests_equal": len({lp.digest for lp in loops}) == 1}
    return values, checks, loops, each


def traced_run(w: Workload, seed: int, repeats: int, seconds: float,
               min_shots: int, digest_shots: int):
    """Traced set-ups; the last two feed a plain and then a traced loop.

    As in the untraced run, only one set-up is alive at a time.
    """
    tracer = layers.Tracer()
    rows = []
    for i in range(repeats):
        gc.collect()
        tracer.reset()
        with layers.rebound(tracer):
            prob = set_up(w, tracer.span)
        row = layers.setup_metrics(tracer)
        row["dem.mechanisms"] = len(prob.dem.mechanisms)
        row["decompose.ghost_pairs"] = len(prob.decomposed.pairs)
        rows.append(row)
        if i == repeats - 2:
            plain = run_loop(w, prob, make_decoder(w, prob, None), seed,
                             seconds / 2, min_shots, digest_shots)
        if i < repeats - 1:
            del prob
    tracer.reset()
    with layers.rebound(tracer):
        loop = run_loop(w, prob, make_decoder(w, prob, tracer), seed,
                        seconds / 2, min_shots, digest_shots, span=tracer.span)
    values = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    values.update(layers.decode_metrics(tracer, loop.shots))
    q = quality(w, loop)
    values.update({"patience.retries": loop.retries / loop.shots,
                   "ler": q["ler"], "tw_rate": q.get("tw_rate", 0.0),
                   "herald_rate": q.get("herald_rate", 0.0),
                   "trace.overhead": plain.shots_per_s / loop.shots_per_s})
    checks = {"traced_digest_equals_untraced": plain.digest == loop.digest}
    each = {"shots_per_s": [plain.shots_per_s, loop.shots_per_s]}
    return values, checks, [plain, loop], each


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SHOTS} shots per loop and as few "
                             "set-ups as the mode allows, for smoke tests")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    if args.quick:
        seconds, min_shots, digest_shots = 0.0, QUICK_SHOTS, QUICK_SHOTS
        repeats = 1
    else:
        seconds, digest_shots = args.seconds, w.check_shots
        min_shots = max(MIN_SHOTS, w.check_shots)
        repeats = REPEATS

    t_run = perf_counter()
    if args.trace:
        values, checks, loops, each = traced_run(
            w, args.seed, max(repeats, 2), seconds, min_shots, digest_shots)
        names = spec["per_layer"]
    else:
        values, checks, loops, each = untraced_run(
            w, args.seed, repeats, seconds, min_shots, digest_shots)
        names = spec["end_to_end"]
    # every loop decodes the same leading shots; the longest covers the rest
    loop = max(loops, key=lambda lp: lp.shots)
    attempted = sum(lp.shots for lp in loops)
    failed = sum(lp.failed for lp in loops)
    checks["ler_plausible"] = ler_plausible(w, loop, reference)
    recorded = reference[w.name]["digests"].get(str(args.seed))
    match = None if args.quick or recorded is None else recorded == loop.digest
    report = {"workload": w.name, "trace": args.trace, "quick": args.quick,
              **metadata(args, attempted, perf_counter() - t_run),
              "digest": loop.digest, "digest_shots": digest_shots,
              "digest_matches_recorded": match, **quality(w, loop),
              "loops": len(loops), "each_loop": each, "checks": checks}
    correct = all(checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                      "unit": m["unit"]} for m in names}}
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1

"""Span tracing at the ghostdec layer boundaries, from outside the package.

A :class:`Tracer` records spans (name, parent, start, end) in flat arrays
and a few counters.  :func:`rebound` swaps module attributes for traced
wrappers for the duration of a ``with`` block, so the package itself is
never edited; every wrapper calls the original object it replaced.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial
from time import perf_counter

import networkx
import numpy as np

import ghostdec.dem
import ghostdec.ghost
import ghostdec.matching
import ghostdec.patience
import ghostdec.windows


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.index = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


class Tracer:
    """Spans and counters of one traced phase; :meth:`reset` starts anew."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: set = set()

    def span(self, name: str) -> _Span:
        nid = self._ids.setdefault(name, len(self._ids))
        return _Span(self, nid)

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        if not self.name:
            return {}
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        out = {}
        for label, nid in self._ids.items():
            sel = name == nid
            if sel.any():
                out[label] = (int(sel.sum()), float(dur[sel].sum()),
                              float((dur[sel] - child[sel]).sum()))
        return out


# -- traced stand-ins for package functions ---------------------------------------


def timed(name: str, tracer: Tracer, fn):
    """``fn`` inside one span called ``name``."""
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def traced_protocol(tracer: Tracer, fn):
    """``run_ghost_protocol`` in a span, counting its commit passes."""
    def run_ghost_protocol(*args, **kwargs):
        with tracer.span("ghost.protocol"):
            res = fn(*args, **kwargs)
        tracer.counts["commit_passes"] += res.passes_with_commits
        return res
    return run_ghost_protocol


def _traced_two_pass(tracer, fn):
    def decode_correlated_two_pass(*args, **kwargs):
        before = tracer.counts["mwpm_calls"]
        with tracer.span("matching.two_pass"):
            res = fn(*args, **kwargs)
        # the second, reweighted pass decodes both class graphs again
        if tracer.counts["mwpm_calls"] - before > 2:
            tracer.counts["second_passes"] += 1
        return res
    return decode_correlated_two_pass


def _traced_mwpm(tracer, fn):
    detector_arrays: dict[int, np.ndarray] = {}

    def decode_mwpm(graph, syndrome, *args, **kwargs):
        dets = detector_arrays.get(id(graph))
        if dets is None:
            dets = detector_arrays[id(graph)] = np.asarray(graph.detectors,
                                                           dtype=np.int64)
        defects = tuple(dets[np.asarray(syndrome)[dets]].tolist())
        counts = tracer.counts
        counts["mwpm_calls"] += 1
        counts["defects"] += len(defects)
        overrides = args[0] if args else kwargs.get("weight_overrides")
        if defects:
            counts["rows_requested"] += len(defects)
            if not overrides:
                # graphs live for the whole run, so their ids stay unique
                key = (id(graph), defects)
                counts["memo_inputs"] += 1
                if key in tracer.seen:
                    counts["memo_repeats"] += 1
                else:
                    tracer.seen.add(key)
        with tracer.span("matching.mwpm"):
            return fn(graph, syndrome, *args, **kwargs)
    return decode_mwpm


def _traced_dijkstra(tracer, fn):
    def dijkstra(*args, **kwargs):
        tracer.counts["dijkstra_rows"] += len(kwargs["indices"])
        with tracer.span("matching.dijkstra"):
            return fn(*args, **kwargs)
    return dijkstra


def _traced_blossom(tracer, fn):
    def min_weight_matching(g, *args, **kwargs):
        tracer.counts["blossom_nodes"] += g.number_of_nodes()
        with tracer.span("matching.blossom"):
            return fn(g, *args, **kwargs)
    return min_weight_matching


# (module, attribute, wrapper factory).  Window and patience planning build
# their graphs through their own module's reference to build_protocol_graphs,
# so those references are rebound too and graph building reads as one layer.
REBINDS = (
    (ghostdec.dem, "check_detector_determinism",
     partial(timed, "tableau.determinism")),
    (ghostdec.windows, "build_protocol_graphs", partial(timed, "ghost.graphs")),
    (ghostdec.patience, "build_protocol_graphs", partial(timed, "ghost.graphs")),
    (ghostdec.patience, "plan_tproxy_windows", partial(timed, "windows.plan")),
    (ghostdec.windows, "run_ghost_protocol", traced_protocol),
    (ghostdec.patience, "run_ghost_protocol", traced_protocol),
    (ghostdec.patience, "herald_complementary",
     partial(timed, "patience.complementary")),
    (ghostdec.ghost, "decode_correlated_two_pass", _traced_two_pass),
    (ghostdec.matching, "decode_mwpm", _traced_mwpm),
    (ghostdec.matching, "dijkstra", _traced_dijkstra),
    (networkx, "min_weight_matching", _traced_blossom),
)


@contextmanager
def rebound(tracer: Tracer):
    """Route every name in :data:`REBINDS` through ``tracer`` until exit."""
    saved = []
    try:
        for module, attr, make in REBINDS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(tracer, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics ------------------------------------------------------------

SETUP_LAYERS = (
    ("builders.build_s", "builders.build", "total"),
    ("builders.noise_s", "builders.noise", "total"),
    ("tableau.determinism_s", "tableau.determinism", "total"),
    ("dem.extract_s", "dem.extract", "self"),
    ("decompose.decompose_s", "decompose.decompose", "total"),
    ("ghost.graphs_s", "ghost.graphs", "total"),
    ("windows.plan_s", "windows.plan", "self"),
    ("patience.plan_s", "patience.plan", "self"),
)


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Seconds per set-up layer of the one set-up traced into ``tracer``."""
    tot = tracer.totals()
    out = {}
    for metric, span, kind in SETUP_LAYERS:
        _, total, own = tot.get(span, (0, 0.0, 0.0))
        out[metric] = own if kind == "self" else total
    return out


def decode_metrics(tracer: Tracer, shots: int) -> dict[str, float]:
    """Per-shot layer times and counts, plus ratios, of a traced decode phase."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(span):
        return tot.get(span, (0, 0.0, 0.0))[0]

    def total(span):
        return tot.get(span, (0, 0.0, 0.0))[1]

    def own(span):
        return tot.get(span, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    mwpm = calls("matching.mwpm")
    two_pass = calls("matching.two_pass")
    protocol = calls("ghost.protocol")
    return {
        "dem.sample_s": total("dem.sample") / shots,
        "matching.blossom_s": total("matching.blossom") / shots,
        "matching.blossom_calls": calls("matching.blossom") / shots,
        "matching.blossom_nodes_per_call": ratio(c["blossom_nodes"],
                                                 calls("matching.blossom")),
        "matching.repeat_defect_share": ratio(c["memo_repeats"],
                                              c["memo_inputs"]),
        "matching.route_hit_ratio": ratio(
            c["rows_requested"] - c["dijkstra_rows"], c["rows_requested"]),
        "matching.dijkstra_calls": calls("matching.dijkstra") / shots,
        "matching.dijkstra_rows": c["dijkstra_rows"] / shots,
        "matching.dijkstra_s": total("matching.dijkstra") / shots,
        "matching.mwpm_calls": mwpm / shots,
        "matching.mwpm_self_s": own("matching.mwpm") / shots,
        "matching.defects_per_call": ratio(c["defects"], mwpm),
        "matching.two_pass_calls": two_pass / shots,
        "matching.second_pass_share": ratio(c["second_passes"], two_pass),
        "ghost.protocol_calls": protocol / shots,
        "ghost.protocol_self_s": own("ghost.protocol") / shots,
        "ghost.commit_passes_per_call": ratio(c["commit_passes"], protocol),
        "windows.windowed_self_s": own("windows.windowed") / shots,
        "windows.global_self_s": own("windows.global") / shots,
        "patience.complementary_calls": calls("patience.complementary") / shots,
        "patience.complementary_s": total("patience.complementary") / shots,
        "patience.self_s": own("patience.decode") / shots,
    }

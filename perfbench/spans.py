"""Traced replay of the ``analyze`` and ``verify`` pipelines.

The program has no tracing of its own, so the traced run calls the layers'
public functions one after another, in the order ``linetopo.cli`` calls
them, with a span around each call.  The replay renders the same JSON
document as the CLI; the caller compares the bytes, so a replay that drifts
from the CLI shows up as a failed call rather than as wrong layer times.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

from linetopo import __version__
from linetopo.arrangement import multiple_points, predict_topology
from linetopo.cli import build_parser
from linetopo.cubical import betti_numbers, rasterize_complement
from linetopo.errors import LinetopoError, ResolutionTooCoarse
from linetopo.io_json import (
    error_to_json,
    handle_trace_to_json,
    input_digest,
    invariant_report_to_json,
    parse_arrangement,
    sweep_plan_to_json,
    verification_to_json,
)
from linetopo.poset import build_poset, hasse_edges, recover_line_count, recover_multiplicities
from linetopo.sweep import (
    build_space_graph,
    check_direction,
    find_generic_direction,
    handle_trace,
    sweep_events,
)
from linetopo.verify import VerificationReport

ROOT = "cli"  # the span around one whole replayed call

# Per-layer time metrics: span name -> metric name.  Probe spans
# (arrangement.intersection_pass, sweep.check) time one extra call made
# outside the replayed call, so they are roots of their own.
TIME_METRICS = {
    "io_json.parse": "io_json.parse_s",
    "io_json.render": "io_json.render_s",
    ROOT: "cli.self_s",
    "arrangement.predict": "arrangement.predict_s",
    "arrangement.intersection_pass": "arrangement.intersection_pass_s",
    "poset.build": "poset.build_s",
    "poset.hasse": "poset.hasse_s",
    "poset.recover": "poset.recover_s",
    "sweep.space_graph": "sweep.space_graph_s",
    "sweep.direction_search": "sweep.direction_search_s",
    "sweep.check": "sweep.check_s",
    "sweep.events": "sweep.events_s",
    "sweep.trace": "sweep.trace_s",
    "cubical.rasterize": "cubical.rasterize_s",
    "cubical.betti": "cubical.betti_s",
}
COUNT_METRICS = (
    "arrangement.pairs",
    "arrangement.multiple_points",
    "poset.relations",
    "sweep.candidates_tried",
    "sweep.vertices",
    "sweep.edges",
    "cubical.cells",
    "cubical.guard_rejections",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int


class Tracer:
    """Spans kept in memory; ``counts`` holds the size counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.searches = 0
        self._stack: list[Span] = []
        self._call = -1

    def new_call(self) -> None:
        self._call += 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._call)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        return out

    def call_seconds(self) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == ROOT]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit) over everything traced."""
        selfs = self.self_times()
        out = {metric: (selfs.get(name, 0.0), "s") for name, metric in TIME_METRICS.items()}
        out.update({name: (count, "count") for name, count in self.counts.items()})
        tried = self.counts["sweep.candidates_tried"]
        out["sweep.direction_accept_ratio"] = (self.searches / tried if tried else 0.0, "ratio")
        betti_s = out["cubical.betti_s"][0]
        cells = self.counts["cubical.cells"]
        out["cubical.cells_per_s"] = (cells / betti_s if betti_s else 0.0, "1/s")
        return out

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _header(text: str) -> dict:
    return {"tool": "linetopo", "version": __version__, "input_digest": input_digest(text)}


def _analyze(tr: Tracer, a, text: str):
    """The analyze document, and the (graph, direction) the sweep.check probe reuses."""
    n = a.dimension
    with tr.span("arrangement.predict"):
        report = predict_topology(a)
    with tr.span("sweep.space_graph"):
        graph = build_space_graph(a)
    with tr.span("sweep.direction_search"):
        v = find_generic_direction(graph)
    with tr.span("sweep.events"):
        plan = sweep_events(graph, v)
    with tr.span("sweep.trace"):
        trace = handle_trace(plan, n)
    with tr.span("io_json.render"):
        sweep = {"plan": sweep_plan_to_json(plan, graph), "trace": handle_trace_to_json(trace, n)}
        doc = _header(text)
        doc["report"] = invariant_report_to_json(report)
    with tr.span("poset.build"):
        p = build_poset(a)
    with tr.span("poset.hasse"):
        edges = hasse_edges(p)
    with tr.span("poset.recover"):
        d = recover_line_count(p)
        t = recover_multiplicities(p)
    doc["poset"] = {
        "elements": list(p.elements),
        "hasse_edges": [list(e) for e in edges],
        "recovered": {"d": d, "t": {str(i): c for i, c in t.items()}},
    }
    doc["sweep"] = sweep
    doc["verification"] = None
    tj = sweep["trace"]
    doc["self_check"] = {
        "formula_g": report.g,
        "trace_g": tj["final_g"],
        "all_trivial": tj["all_trivial"],
        "agree": tj["all_trivial"] and tj["final_g"] == report.g,
    }
    tr.counts["poset.relations"] += len(p.relations)
    tr.counts["sweep.vertices"] += len(graph.vertices)
    tr.counts["sweep.edges"] += len(graph.edges)
    tr.counts["sweep.candidates_tried"] += int(v[1])
    tr.searches += 1
    return doc, (graph, v)


def _verify(tr: Tracer, a, text: str, m: int) -> dict:
    with tr.span("arrangement.predict"):
        predicted = predict_topology(a).betti
    with tr.span("cubical.rasterize"):
        c = rasterize_complement(a, m)
    with tr.span("cubical.betti"):
        measured = betti_numbers(c)
    tr.counts["cubical.cells"] += sum(len(cells) for cells in c.cells)
    rep = VerificationReport(a.dimension, m, predicted, measured, predicted == measured)
    with tr.span("io_json.render"):
        doc = _header(text)
        doc["verification"] = verification_to_json(rep)
    return doc


def replay(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    """Replay one ``run_cli(argv)`` call under spans; returns (exit code, stdout)."""
    tr.new_call()
    probe = None
    a = None
    with tr.span(ROOT):
        args = build_parser().parse_args(argv)
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            with tr.span("io_json.parse"):
                a = parse_arrangement(text)
            if args.command == "analyze":
                doc, probe = _analyze(tr, a, text)
                code = 0
            else:
                doc = _verify(tr, a, text, args.grid)
                code = 0 if doc["verification"]["match"] else 1
        except LinetopoError as exc:
            if isinstance(exc, ResolutionTooCoarse):
                tr.counts["cubical.guard_rejections"] += 1
            doc, code = {"error": error_to_json(exc)}, 2
        with tr.span("io_json.render"):
            out = json.dumps(doc, indent=2) + "\n"
    if a is not None:
        tr.counts["arrangement.pairs"] += a.d * (a.d - 1) // 2
        with tr.span("arrangement.intersection_pass"):
            tr.counts["arrangement.multiple_points"] += len(multiple_points(a))
    if probe is not None:
        with tr.span("sweep.check"):
            check_direction(*probe)
    return code, out

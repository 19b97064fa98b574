"""Per-layer tracing of one techflux CLI run, done from outside the package.

As a script, ``python3 perfbench/tracing.py SPANS_JSON CLI_ARG...`` imports
techflux, replaces each function on WRAPS with a wrapper that records a span
(name, start, end, parent span, run id) plus counts taken from the call's
arguments and return value, runs ``techflux.cli.main(CLI_ARG...)``, and writes
the spans to SPANS_JSON when the CLI returns. Nothing under src/techflux is
edited: the wrapper is installed in every ``techflux.*`` module namespace that
holds a reference to the function, because modules import each other's
functions by name (``louvain`` is reached through ``techflux.breakcheck``,
``extract_terms`` through ``techflux.cograph`` and ``techflux.breakcheck``).

As a module, ``layer_metrics`` turns a spans file into the per-layer metrics.
A span's self time is its duration minus the part of it that child spans
cover. A function on WRAPS that no longer exists is reported as missing, and
so is every metric that needs its span; nothing crashes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

# (module, function, span name). Functions sharing a span name add up.
WRAPS = (
    ("corpus", "load_corpus", "corpus.load"),
    ("corpus", "load_windows", "corpus.load"),
    ("corpus", "window_filter", "corpus.window_filter"),
    ("corpus", "save_corpus", "corpus.save"),
    ("lexicon", "compile_lexicon", "lexicon.compile"),
    ("lexicon", "lexicon_from_records", "lexicon.compile"),
    ("lexicon", "extract_terms", "lexicon.extract"),
    ("cograph", "build_cooccurrence", "cograph.build"),
    ("cograph", "top_n_filter", "cograph.top_n"),
    ("cograph", "export_graphml", "cograph.export"),
    ("cograph", "export_graph_json", "cograph.export"),
    ("community", "louvain", "community.louvain"),
    ("transition", "transition_report", "transition.report"),
    ("breakcheck", "cluster_window", "breakcheck.cluster_window"),
    ("breakcheck", "index_series", "breakcheck.index_series"),
    ("breakcheck", "chow_test", "breakcheck.chow"),
    ("breakcheck", "term_trend", "breakcheck.term_trend"),
    ("synth", "generate_corpus", "synth.generate"),
    ("fileio", "atomic_write_text", "fileio.write"),
    ("fileio", "atomic_write_bytes", "fileio.write"),
)

LAYERS = ("corpus", "lexicon", "cograph", "community", "transition", "breakcheck", "synth", "fileio")

# Counts per function, from (positional argument values, return value). They
# run after the span has closed, so their cost is not charged to the layer.
COUNTERS: dict[str, Callable[[list, object], dict]] = {
    "load_corpus": lambda a, r: {"docs": len(r.documents)},
    "extract_terms": lambda a, r: {"terms": len(r)},
    "build_cooccurrence": lambda a, r: {"weight": r.total_weight(), "nodes": len(r.nodes), "edges": len(r.edges)},
    "top_n_filter": lambda a, r: {"weight_in": a[0].total_weight(), "weight_out": r.total_weight()},
    "louvain": lambda a, r: {
        "nodes": len(a[0].nodes), "edges": len(a[0].edges),
        "modularity": r.modularity, "clusters": r.cluster_count,
    },
    "transition_report": lambda a, r: {"events": len(r.events)},
    "generate_corpus": lambda a, r: {"docs": len(r[0].documents)},
    "atomic_write_text": lambda a, r: {"bytes": len(a[1].encode("utf-8"))},
    "atomic_write_bytes": lambda a, r: {"bytes": len(a[1])},
}


class SpanRecorder:
    """In-memory spans of one single-threaded run; the open spans form a stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent,
                           "run": self.run_id, "error": False, "counts": {}})
        self._open.append(index)
        return index

    def close(self, index: int, error: bool) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self.spans[index]["error"] = error
        self._open.pop()


def _wrap(fn, span_name: str, recorder: SpanRecorder):
    counter = COUNTERS.get(fn.__name__)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(span_name)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            recorder.close(index, failed)
        if counter is not None:
            values = list(signature.bind(*args, **kwargs).arguments.values())
            recorder.spans[index]["counts"] = counter(values, result)
        return result

    return wrapper


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every function on WRAPS wherever techflux refers to it; return the missing ones."""
    import importlib

    import techflux
    import techflux.cli  # noqa: F401  -- loads every module the CLI reaches

    missing = []
    namespaces = [m for name, m in sorted(sys.modules.items()) if name == "techflux" or name.startswith("techflux.")]
    for module_name, func_name, span_name in WRAPS:
        try:
            module = importlib.import_module(f"techflux.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, func_name, None)
        if not callable(original):
            missing.append(f"techflux.{module_name}.{func_name}")
            continue
        wrapper = _wrap(original, span_name, recorder)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
    return missing


def _child_main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder(run_id=f"{os.getpid()}-{time.time_ns()}")
    missing = install(recorder)
    import techflux.cli

    start = time.perf_counter()
    code = 1
    try:
        code = techflux.cli.main(cli_args)
    finally:
        end = time.perf_counter()
        payload = {"run": recorder.run_id, "main_start": start, "main_end": end, "exit_code": code,
                   "missing": missing, "spans": recorder.spans}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


# ---------------------------------------------------------------- metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class SpanTotals:
    self_s: float = 0.0
    calls: int = 0
    errors: int = 0


def span_totals(doc: dict) -> tuple[dict[str, SpanTotals], dict[str, dict[str, float]]]:
    """Self time, calls and errors per span name, and summed counts per span name."""
    spans = doc["spans"]
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, SpanTotals] = {}
    counts: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        t = totals.setdefault(span["name"], SpanTotals())
        t.self_s += (span["end"] - span["start"]) - _union_length(children.get(index, []))
        t.calls += 1
        t.errors += int(span["error"])
        summed = counts.setdefault(span["name"], {})
        for key, value in span["counts"].items():
            summed[key] = summed.get(key, 0) + value
    return totals, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]
    value: Callable[["_View"], float]


class _View:
    """What metric formulas read: per-span totals and counts, plus the untraced figures."""

    def __init__(self, doc: dict, untraced: dict) -> None:
        self.totals, self.counts = span_totals(doc)
        self.doc = doc
        self.untraced = untraced

    def self_s(self, name: str) -> float:
        return self.totals.get(name, SpanTotals()).self_s

    def calls(self, name: str) -> int:
        return self.totals.get(name, SpanTotals()).calls

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0)

    def errors(self, layer: str) -> int:
        return sum(t.errors for name, t in self.totals.items() if name.startswith(layer + "."))

    def glue_s(self) -> float:
        main = (self.doc["main_start"], self.doc["main_end"])
        top = [(max(s["start"], main[0]), min(s["end"], main[1])) for s in self.doc["spans"] if s["parent"] is None]
        return (main[1] - main[0]) - _union_length([iv for iv in top if iv[1] > iv[0]])


def _m(name, unit, better, needs, value) -> LayerMetric:
    return LayerMetric(name, unit, better, tuple(needs), value)


METRICS: tuple[LayerMetric, ...] = (
    _m("corpus.load_s", "s", "lower", ["corpus.load"], lambda v: v.self_s("corpus.load")),
    _m("corpus.window_filter_s", "s", "lower", ["corpus.window_filter"], lambda v: v.self_s("corpus.window_filter")),
    _m("corpus.window_filter_calls", "count", "lower", ["corpus.window_filter"],
       lambda v: v.calls("corpus.window_filter")),
    _m("corpus.save_s", "s", "lower", ["corpus.save"], lambda v: v.self_s("corpus.save")),
    _m("lexicon.compile_s", "s", "lower", ["lexicon.compile"], lambda v: v.self_s("lexicon.compile")),
    _m("lexicon.extract_s", "s", "lower", ["lexicon.extract"], lambda v: v.self_s("lexicon.extract")),
    _m("lexicon.extract_calls", "count", "lower", ["lexicon.extract"], lambda v: v.calls("lexicon.extract")),
    _m("lexicon.extract_ms_per_call", "ms", "lower", ["lexicon.extract"],
       lambda v: 1000.0 * _ratio(v.self_s("lexicon.extract"), v.calls("lexicon.extract"))),
    _m("lexicon.extract_calls_per_doc", "calls/doc", "lower", ["lexicon.extract", "corpus.load"],
       lambda v: _ratio(v.calls("lexicon.extract"), v.count("corpus.load", "docs"))),
    _m("lexicon.terms_found", "count", "higher", ["lexicon.extract"], lambda v: v.count("lexicon.extract", "terms")),
    _m("cograph.build_s", "s", "lower", ["cograph.build"], lambda v: v.self_s("cograph.build")),
    _m("cograph.pair_increments", "count", "lower", ["cograph.build"], lambda v: v.count("cograph.build", "weight")),
    _m("cograph.nodes", "count", "lower", ["cograph.build"], lambda v: v.count("cograph.build", "nodes")),
    _m("cograph.edges", "count", "lower", ["cograph.build"], lambda v: v.count("cograph.build", "edges")),
    _m("cograph.top_n_s", "s", "lower", ["cograph.top_n"], lambda v: v.self_s("cograph.top_n")),
    _m("cograph.weight_kept_frac", "fraction", "higher", ["cograph.top_n"],
       lambda v: _ratio(v.count("cograph.top_n", "weight_out"), v.count("cograph.top_n", "weight_in"))),
    _m("cograph.export_s", "s", "lower", ["cograph.export"], lambda v: v.self_s("cograph.export")),
    _m("community.louvain_s", "s", "lower", ["community.louvain"], lambda v: v.self_s("community.louvain")),
    _m("community.louvain_calls", "count", "lower", ["community.louvain"], lambda v: v.calls("community.louvain")),
    _m("community.nodes", "count", "lower", ["community.louvain"], lambda v: v.count("community.louvain", "nodes")),
    _m("community.edges", "count", "lower", ["community.louvain"], lambda v: v.count("community.louvain", "edges")),
    _m("community.modularity_sum", "Q", "higher", ["community.louvain"],
       lambda v: v.count("community.louvain", "modularity")),
    _m("community.clusters", "count", "higher", ["community.louvain"],
       lambda v: v.count("community.louvain", "clusters")),
    _m("transition.report_s", "s", "lower", ["transition.report"], lambda v: v.self_s("transition.report")),
    _m("transition.events", "count", "higher", ["transition.report"], lambda v: v.count("transition.report", "events")),
    _m("breakcheck.cluster_window_self_s", "s", "lower", ["breakcheck.cluster_window"],
       lambda v: v.self_s("breakcheck.cluster_window")),
    _m("breakcheck.index_series_self_s", "s", "lower", ["breakcheck.index_series"],
       lambda v: v.self_s("breakcheck.index_series")),
    _m("breakcheck.chow_s", "s", "lower", ["breakcheck.chow"], lambda v: v.self_s("breakcheck.chow")),
    _m("breakcheck.term_trend_self_s", "s", "lower", ["breakcheck.term_trend"],
       lambda v: v.self_s("breakcheck.term_trend")),
    _m("synth.generate_s", "s", "lower", ["synth.generate"], lambda v: v.self_s("synth.generate")),
    _m("synth.docs", "count", "higher", ["synth.generate"], lambda v: v.count("synth.generate", "docs")),
    _m("synth.us_per_doc", "us", "lower", ["synth.generate"],
       lambda v: 1e6 * _ratio(v.self_s("synth.generate"), v.count("synth.generate", "docs"))),
    _m("fileio.write_s", "s", "lower", ["fileio.write"], lambda v: v.self_s("fileio.write")),
    _m("fileio.files", "count", "lower", ["fileio.write"], lambda v: v.calls("fileio.write")),
    _m("fileio.bytes", "bytes", "lower", ["fileio.write"], lambda v: v.count("fileio.write", "bytes")),
    _m("cli.wall_raw_s", "s", "lower", [], lambda v: v.untraced["wall_s"]),
    _m("cli.cpu_s", "s", "lower", [], lambda v: v.untraced["cpu_s"]),
    _m("cli.cpu_util", "fraction", "higher", [], lambda v: _ratio(v.untraced["cpu_s"], v.untraced["wall_s"])),
    _m("cli.glue_s", "s", "lower", [], lambda v: v.glue_s()),
    *(_m(f"{layer}.errors", "count", "lower", [], lambda v, layer=layer: v.errors(layer)) for layer in LAYERS),
    _m("trace.wall_s", "s", "lower", [], lambda v: v.untraced["traced_wall_s"]),
    _m("trace.overhead_frac", "fraction", "lower", [],
       lambda v: _ratio(v.untraced["traced_norm_s"] - v.untraced["norm_s"], v.untraced["norm_s"])),
    _m("host.speed", "fraction", "higher", [], lambda v: v.untraced["host_speed"]),
)


def layer_metrics(doc: dict, untraced: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced run, and the names of those that cannot be computed.

    ``untraced`` holds the medians ``wall_s``, ``norm_s`` (wall time scaled
    to the reference host speed), ``cpu_s`` and ``host_speed`` of the
    untraced runs of the same inputs, and the traced run's ``traced_wall_s``
    and ``traced_norm_s``.
    """
    missing_funcs = set(doc["missing"])
    missing_spans = {span for module, func, span in WRAPS if f"techflux.{module}.{func}" in missing_funcs}
    view = _View(doc, untraced)
    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for metric in METRICS:
        if missing_spans.intersection(metric.needs):
            missing.append(metric.name)
        else:
            metrics[metric.name] = (float(metric.value(view)), metric.unit)
    return metrics, missing


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))

"""Output checks that recompute each workload's results without techflux.

Usage: python3 perfbench/checks.py WORKLOAD INPUTS_JSON OUT_DIR

Prints a JSON list of problems as its last line; an empty list means the
outputs are right. Every check reads the files the CLI wrote and recomputes
what it can from them and from the generated inputs with numpy/scipy or plain
Python. The one exception is the synth check, which also reloads the corpus
through ``techflux.load_corpus``, because loading back what synth wrote is the
contract under test. The checks run in their own process so that the
benchmark process stays small: a child's peak RSS includes the memory of the
process that spawned it.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy import stats

from workloads import SERIES_BREAKPOINT, read_terms, trend_file

# break_*.json stores F and p at full precision while series.csv rounds the
# indices to 6 decimals, so the recomputed statistic may differ by what that
# rounding can move it, on top of the 1e-10 the unit tests allow against scipy.
_CSV_HALF_ULP = 5e-7
_STAT_TOL = 1e-10


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _chow(y: np.ndarray, breakpoint: int) -> tuple[float, float]:
    x = np.arange(len(y), dtype=float)

    def ssr(xs: np.ndarray, ys: np.ndarray) -> float:
        design = np.column_stack([np.ones_like(xs), xs])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        resid = ys - design @ coef
        return float(resid @ resid)

    k = 2
    pooled = ssr(x, y)
    segmented = ssr(x[:breakpoint], y[:breakpoint]) + ssr(x[breakpoint:], y[breakpoint:])
    df2 = len(y) - 2 * k
    f_stat = max(((pooled - segmented) / k) / (segmented / df2), 0.0)
    return f_stat, float(stats.f.sf(f_stat, k, df2))


def _rounding_slack(y: np.ndarray, breakpoint: int) -> tuple[float, float]:
    """First-order bound, doubled, on how far CSV rounding can move F and p."""
    h = 1e-7
    grad_f = grad_p = 0.0
    for i in range(len(y)):
        up, down = y.copy(), y.copy()
        up[i] += h
        down[i] -= h
        (f_up, p_up), (f_down, p_down) = _chow(up, breakpoint), _chow(down, breakpoint)
        grad_f += abs(f_up - f_down) / (2 * h)
        grad_p += abs(p_up - p_down) / (2 * h)
    return 2 * grad_f * _CSV_HALF_ULP, 2 * grad_p * _CSV_HALF_ULP


def check_series(out: Path, windows: int, breakpoint: int) -> list[str]:
    problems = []
    rows = _read_csv(out / "series.csv")
    if rows[0] != ["window_start", "window_end", "mean_ci", "mean_ni"]:
        return [f"series.csv: unexpected header {rows[0]}"]
    body = rows[1:]
    if len(body) != windows - 1:
        problems.append(f"series.csv: {len(body)} rows, expected {windows - 1}")
    ci = np.array([float(r[2]) for r in body])
    ni = np.array([float(r[3]) for r in body])
    for name, values in (("ci", ci), ("ni", ni)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            problems.append(f"series.csv: mean_{name} outside [0, 1]")
    if np.any(np.abs(ci + ni - 1.0) > 2 * _CSV_HALF_ULP + 1e-12):
        problems.append("series.csv: mean_ci + mean_ni != 1")
    for name, values in (("ci", ci), ("ni", ni)):
        stored = json.loads((out / f"break_{name}.json").read_text(encoding="utf-8"))
        want = {"breakpoint_index": breakpoint, "k": 2, "n1": breakpoint, "n2": len(values) - breakpoint}
        got = {key: stored.get(key) for key in want}
        if got != want:
            problems.append(f"break_{name}.json: {got} != {want}")
            continue
        f_stat, p_value = _chow(values, breakpoint)
        slack_f, slack_p = _rounding_slack(values, breakpoint)
        stored_f = math.inf if stored["f_statistic"] == "inf" else float(stored["f_statistic"])
        if not abs(stored_f - f_stat) <= _STAT_TOL * max(1.0, abs(f_stat)) + slack_f:
            problems.append(f"break_{name}.json: F {stored_f!r} but recomputed {f_stat!r} (slack {slack_f:.3g})")
        if not abs(float(stored["p_value"]) - p_value) <= _STAT_TOL + slack_p:
            problems.append(f"break_{name}.json: p {stored['p_value']!r} but recomputed {p_value!r}")
    return problems


def _modularity(graph: dict, assignment: dict[str, int]) -> float:
    names = [n["name"] for n in graph["nodes"]]
    index = {name: i for i, name in enumerate(names)}
    cluster = np.array([assignment[name] for name in names])
    u = np.array([index[e["u"]] for e in graph["edges"]])
    v = np.array([index[e["v"]] for e in graph["edges"]])
    w = np.array([float(e["weight"]) for e in graph["edges"]])
    two_m = 2.0 * w.sum()
    degree = np.bincount(u, weights=w, minlength=len(names)) + np.bincount(v, weights=w, minlength=len(names))
    clusters = cluster.max() + 1
    tot = np.bincount(cluster, weights=degree, minlength=clusters)
    intra = cluster[u] == cluster[v]
    w_in = 2.0 * np.bincount(cluster[u][intra], weights=w[intra], minlength=clusters)
    return float(np.sum(w_in / two_m - (tot / two_m) ** 2))


def check_compare(out: Path) -> list[str]:
    problems = []
    for side in ("t", "t1"):
        graph = json.loads((out / f"graph_{side}.json").read_text(encoding="utf-8"))
        part = json.loads((out / f"partition_{side}.json").read_text(encoding="utf-8"))
        names = {n["name"] for n in graph["nodes"]}
        assignment = part["assignment"]
        if set(assignment) != names:
            problems.append(f"partition_{side}.json does not cover the nodes of graph_{side}.json")
            continue
        if set(assignment.values()) != set(range(part["cluster_count"])):
            problems.append(f"partition_{side}.json: cluster ids are not 0..{part['cluster_count'] - 1}")
            continue
        q = _modularity(graph, assignment)
        if not abs(q - part["modularity"]) <= 1e-12:
            problems.append(f"partition_{side}.json: modularity {part['modularity']!r}, recomputed {q!r}")
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        root = ET.parse(out / f"graph_{side}.graphml").getroot()
        g_nodes = root.findall("g:graph/g:node", ns)
        g_edges = root.findall("g:graph/g:edge", ns)
        clusters = {
            node.get("id"): int(data.text)
            for node in g_nodes for data in node.findall("g:data", ns) if data.get("key") == "d_cluster"
        }
        if len(g_nodes) != len(graph["nodes"]) or len(g_edges) != len(graph["edges"]):
            problems.append(f"graph_{side}.graphml and graph_{side}.json differ in size")
        if clusters != assignment:
            problems.append(f"graph_{side}.graphml clusters differ from partition_{side}.json")
    json.loads((out / "report.json").read_text(encoding="utf-8"))  # raises if unreadable
    for name in ("similarity.csv", "alluvial.csv"):
        if len(_read_csv(out / name)) < 2:
            problems.append(f"{name} has no rows")
    return problems


def _period(date: str) -> str:
    day = dt.date.fromisoformat(date)
    return f"{day.year}Q{(day.month - 1) // 3 + 1}"


def _quarter_counts(corpus: Path, term: str) -> dict[str, int]:
    """Documents whose text holds ``term`` as a whole token, or whose tags list it."""
    counts: dict[str, int] = {}
    with corpus.open(encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            tokens = set(re.split(r"[^0-9a-z-]+", (doc.get("text") or "").casefold()))
            tags = {" ".join(t.casefold().split()) for t in doc.get("tags") or ()}
            if term in tokens or term in tags:
                key = _period(doc["date"])
                counts[key] = counts.get(key, 0) + 1
    return counts


def check_trend(out: Path, corpora: dict[str, str], terms: list[str]) -> list[str]:
    problems = []
    sources = sorted(corpora)
    expected_r: dict[tuple[str, str, str], float] = {}
    for term in terms:
        counts = {label: _quarter_counts(Path(path), term) for label, path in corpora.items()}
        periods = sorted({p for per in counts.values() for p in per})
        want = [["period", "source", "count"]]
        want += [[p, s, str(counts[s].get(p, 0))] for p in periods for s in sources]
        got = _read_csv(out / trend_file(term))
        if got != want:
            problems.append(f"{trend_file(term)}: counts differ from the recount of the corpus text")
        for i, a in enumerate(sources):
            for b in sources[i + 1:]:
                xa = np.array([counts[a].get(p, 0) for p in periods], dtype=float)
                xb = np.array([counts[b].get(p, 0) for p in periods], dtype=float)
                if len(periods) >= 2 and xa.std() > 0 and xb.std() > 0:
                    expected_r[(term, a, b)] = float(np.clip(np.corrcoef(xa, xb)[0, 1], -1.0, 1.0))
    rows = _read_csv(out / "correlations.csv")
    got_r = {(r[0], r[1], r[2]): float(r[3]) for r in rows[1:]}
    if set(got_r) != set(expected_r):
        problems.append(f"correlations.csv: rows {sorted(got_r)} but defined for {sorted(expected_r)}")
    for key in set(got_r) & set(expected_r):
        if not abs(got_r[key] - expected_r[key]) <= _CSV_HALF_ULP + 1e-12:
            problems.append(f"correlations.csv: r{key} = {got_r[key]} but recomputed {expected_r[key]:.9f}")
    return problems


def check_synth(out: Path, spec: dict) -> list[str]:
    from techflux import load_corpus

    problems = []
    windows = [(dt.date.fromisoformat(w["start"]), dt.date.fromisoformat(w["end"])) for w in spec["windows"]]
    per_window = [0] * len(windows)
    lines = [ln for ln in (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines() if ln.strip()]
    for line in lines:
        day = dt.date.fromisoformat(json.loads(line)["date"])
        hits = [i for i, (start, end) in enumerate(windows) if start <= day < end]
        if len(hits) != 1:
            problems.append(f"corpus.jsonl: document dated {day} lies in no single window")
            break
        per_window[hits[0]] += 1
    if per_window != [spec["docs_per_window"]] * len(windows):
        problems.append(f"corpus.jsonl: documents per window {per_window}, expected {spec['docs_per_window']} each")
    loaded = len(load_corpus(out / "corpus.jsonl"))
    if loaded != len(windows) * spec["docs_per_window"]:
        problems.append(f"corpus.jsonl reloads with {loaded} documents")
    truth = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
    if len(truth["pairs"]) != len(windows) - 1:
        problems.append("ground_truth.json: wrong number of window pairs")
    lexicon = json.loads((out / "lexicon.json").read_text(encoding="utf-8"))
    if not lexicon or not all("canonical" in e and "patterns" in e for e in lexicon):
        problems.append("lexicon.json: empty or malformed")
    return problems


CHECKS = {
    "series-tags": lambda i, out: check_series(out, len(i["spec"]["windows"]), SERIES_BREAKPOINT),
    "compare-text": lambda i, out: check_compare(out),
    "trend-text": lambda i, out: check_trend(out, i["corpora"], read_terms(Path(i["terms"]))),
    "synth": lambda i, out: check_synth(out, i["spec"]),
}


def main(argv: list[str]) -> int:
    workload, inputs_path, out = argv
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    try:
        problems = CHECKS[workload](inputs, Path(out))
    except Exception as exc:  # an output the check cannot read fails the run
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

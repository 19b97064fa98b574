"""End-to-end oracles: ``compare``, ``cluster``, ``series`` and ``trend`` run
through ``cli.main`` on small generated corpora, and every file they write is
rebuilt from the stage references in ``oracles.py`` (and
``statistics.correlation``) alone.
"""

import contextlib
import csv
import datetime as dt
import io
import json
import math
import re
import statistics
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux.cli import main
from techflux.corpus import Corpus, Document
from techflux.lexicon import lexicon_from_records

from oracles import (
    build_cooccurrence_reference,
    chow_reference,
    classify_events_reference,
    export_graphml_reference,
    inheritance_indices_reference,
    louvain_reference,
    modularity_pairsum,
    named_edges,
    ols_ssr_reference,
    read_graph_json,
    similarity_matrix_reference,
    suggest_labels_reference,
    term_trend_reference,
)

# a tenth of the profile's examples: 10 by default, 100 under HYPOTHESIS_PROFILE=ci
E2E_EXAMPLES = max(10, settings.default.max_examples // 10)

# --resolution values: below, at and above the standard measure's 1
RESOLUTIONS = [0.5, 1.0, 2.0]

LEXICON_RECORDS = [
    {"canonical": "ai", "patterns": ["ai", r"a\.?i"]},
    {"canonical": "cloud computing", "patterns": ["cloud[- ]?computing"]},
    {"canonical": "edge", "patterns": ["edge(?: computing)?"]},
    {"canonical": "quantum dot", "patterns": ["quantum dots?"]},
    {"canonical": "laser", "patterns": ["lasers?"]},
]
WORDS = ("ai", "A.I.", "cloud computing", "Cloud-Computing", "edge", "edges", "quantum dots", "lasers", "paint", "-")
TAGS = tuple(f"t{i:02d}" for i in range(16)) + ("ai", "laser")


def _write_corpus(path: Path, docs) -> str:
    lines = [
        json.dumps({"id": f"d{i}", "date": date.isoformat(), "text": text, "tags": list(tags)})
        for i, (date, text, tags) in enumerate(docs)
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _corpus(docs) -> Corpus:
    return Corpus(tuple(Document(id=f"d{i}", date=date, text=text, tags=tags) for i, (date, text, tags) in enumerate(docs)))


def _refusal(docs, windows, labels=None) -> str:
    """What a run on docs must refuse: the first of the (start, end) windows that holds none of them, else an edgeless graph."""
    for i, (start, end) in enumerate(windows):
        if not any(start <= date < end for date, _, _ in docs):
            name = labels[i] if labels else f"[{start.isoformat()},{end.isoformat()})"
            return f"window {name} holds no documents"
    return "produced an edgeless graph"


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _doc(start: dt.date, days: int):
    return st.tuples(
        st.integers(0, days - 1).map(lambda d: start + dt.timedelta(days=d)),
        st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
        # two tags at least, so that no window is edgeless
        st.lists(st.sampled_from(TAGS), min_size=2, max_size=4, unique=True).map(tuple),
    )


@st.composite
def series_cases(draw):
    starts = [dt.date(2020, month, 1) for month in range(1, 10)]
    count = draw(st.integers(7, 8))
    windows = list(zip(starts[:count], starts[1:count + 1]))
    docs = []
    for start, end in windows:
        docs += draw(st.lists(_doc(start, (end - start).days), min_size=2, max_size=7))
    points = count - 1
    return {
        "windows": windows,
        "docs": docs,
        "breakpoint": draw(st.integers(3, points - 3)),
        "field": draw(st.sampled_from(["both", "tags"])),
        "top_n": draw(st.sampled_from([100, 8])),
        "resolution": draw(st.sampled_from(RESOLUTIONS)),
        "weighted": draw(st.booleans()),
    }


def _series_reference(case) -> tuple[list[float], list[float]]:
    """Mean CI and NI per later window, from the reference build, Louvain and indices."""
    lexicon = lexicon_from_records(LEXICON_RECORDS)
    partitions = []
    for start, end in case["windows"]:
        sub = _corpus([doc for doc in case["docs"] if start <= doc[0] < end])
        graph = build_cooccurrence_reference(sub, lexicon, case["field"], "all", case["top_n"])
        assignment, _ = louvain_reference(graph, case["resolution"])
        partitions.append(SimpleNamespace(assignment=assignment, cluster_count=max(assignment.values()) + 1))
    ci, ni = [], []
    for part_t, part_t1 in zip(partitions, partitions[1:]):
        _, values, _, col_sizes = similarity_matrix_reference(part_t, part_t1, "overlap_target")
        convergence, novelty = inheritance_indices_reference(values)
        weights = col_sizes if case["weighted"] else np.ones(len(col_sizes))
        ci.append(float(np.dot([convergence[j] for j in range(len(weights))], weights) / weights.sum()))
        ni.append(float(np.dot([novelty[j] for j in range(len(weights))], weights) / weights.sum()))
    return ci, ni


def _check_break(payload: dict, y: list[float], breakpoint_index: int) -> None:
    x = [float(i) for i in range(len(y))]
    assert (payload["breakpoint_index"], payload["k"]) == (breakpoint_index, 2)
    assert (payload["n1"], payload["n2"]) == (breakpoint_index, len(y) - breakpoint_index)
    f_stat = math.inf if payload["f_statistic"] == "inf" else payload["f_statistic"]
    segmented = ols_ssr_reference(x[:breakpoint_index], y[:breakpoint_index]) + ols_ssr_reference(
        x[breakpoint_index:], y[breakpoint_index:]
    )
    if segmented <= 1e-20:
        # each segment is a line: F is 0 with p = 1 when the whole series is one, else infinite with p = 0
        exact = ols_ssr_reference(x, y) <= 1e-20
        assert (f_stat, payload["p_value"]) == ((0.0, 1.0) if exact else (math.inf, 0.0))
        return
    want_f, want_p = chow_reference(x, y, breakpoint_index)
    # relative, as for a noisy series, plus the absolute bound on F of a series with no break
    assert abs(f_stat - want_f) <= 1e-6 * abs(want_f) + 1e-9
    assert abs(payload["p_value"] - want_p) <= 1e-9


@settings(max_examples=E2E_EXAMPLES, deadline=None)
@given(series_cases())
def test_series_files_match_the_composed_references(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        windows = tmp / "windows.json"
        windows.write_text(json.dumps([{"start": s.isoformat(), "end": e.isoformat()} for s, e in case["windows"]]))
        lexicon = tmp / "lex.json"
        lexicon.write_text(json.dumps(LEXICON_RECORDS))
        argv = [
            "series", "--corpus", _write_corpus(tmp / "c.jsonl", case["docs"]), "--windows", str(windows),
            "--lexicon", str(lexicon), "--breakpoint", str(case["breakpoint"]), "--field", case["field"],
            "--top-n", str(case["top_n"]), "--resolution", repr(case["resolution"]), "--out", str(tmp / "out"),
        ] + (["--weighted-mean"] if case["weighted"] else [])
        code, _, err = _run(argv)
        assert code == 0, err
        assert err == ""
        ci, ni = _series_reference(case)
        rows = _read_csv(tmp / "out" / "series.csv")
        assert rows[0] == ["window_start", "window_end", "mean_ci", "mean_ni"]
        assert [row[:2] for row in rows[1:]] == [[s.isoformat(), e.isoformat()] for s, e in case["windows"][1:]]
        # six decimals are written
        for row, want_ci, want_ni in zip(rows[1:], ci, ni, strict=True):
            assert abs(float(row[2]) - want_ci) <= 5e-7 + 1e-12
            assert abs(float(row[3]) - want_ni) <= 5e-7 + 1e-12
        for name, values in (("ci", ci), ("ni", ni)):
            _check_break(json.loads((tmp / "out" / f"break_{name}.json").read_text()), values, case["breakpoint"])


def _clustered_reference(docs, window, field, pairs, top_n, resolution):
    """(graph, Louvain assignment, modularity) of the documents in window, or None for the whole corpus.

    The modularity is the standard measure whatever resolution steered Louvain.
    """
    if window is not None:
        docs = [doc for doc in docs if window[0] <= doc[0] < window[1]]
    graph = build_cooccurrence_reference(_corpus(docs), lexicon_from_records(LEXICON_RECORDS), field, pairs, top_n)
    if not graph.edges:
        return graph, None, None
    return (graph, *louvain_reference(graph, resolution))


def _check_clustered_files(out: Path, suffix: str, graph, assignment, quality) -> None:
    """graph<suffix>.graphml, graph<suffix>.json and partition<suffix>.json against the references."""
    assert (out / f"graph{suffix}.graphml").read_bytes() == export_graphml_reference(graph, assignment)
    written = read_graph_json(out / f"graph{suffix}.json")
    assert written.nodes == graph.nodes
    assert named_edges(written) == named_edges(graph)
    partition = json.loads((out / f"partition{suffix}.json").read_text(encoding="utf-8"))
    assert partition["assignment"] == assignment
    assert partition["cluster_count"] == max(assignment.values()) + 1
    assert abs(partition["modularity"] - quality) <= 1e-12
    # the standard measure at every resolution, by the ordered-pair formula
    assert abs(partition["modularity"] - modularity_pairsum(graph, assignment)) <= 1e-12


def _cluster_labels_reference(graph, assignment) -> list[str]:
    """Per cluster, its id, a colon and its suggested label."""
    return [f"{cid}:{top[0]}" for cid, top in enumerate(suggest_labels_reference(graph, assignment))]


def _settings(draw, *names):
    """A drawn value for each named setting, from a few that change the outputs."""
    choices = {
        "field": ["both", "tags"],
        "pairs": ["all", "tech-tag"],
        "top_n": [100, 6],
        "measure": ["overlap_target", "jaccard"],
        "tau": [0.05, 0.1, 0.25, 0.5, 0.75],
        "resolution": RESOLUTIONS,
    }
    return {name: draw(st.sampled_from(choices[name])) for name in names}


@st.composite
def compare_cases(draw):
    windows = [(dt.date(2020, 1, 1), dt.date(2020, 2, 1)), (dt.date(2020, 2, 1), dt.date(2020, 3, 1))]
    docs = []
    for start, end in windows:
        docs += draw(st.lists(_doc(start, (end - start).days), min_size=2, max_size=8))
    return {"windows": windows, "docs": docs, **_settings(draw, "field", "pairs", "top_n", "measure", "tau", "resolution")}


@settings(max_examples=E2E_EXAMPLES, deadline=None)
@given(compare_cases())
def test_compare_files_match_the_composed_references(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "lex.json").write_text(json.dumps(LEXICON_RECORDS))
        window_t, window_t1 = [f"{s.isoformat()}:{e.isoformat()}" for s, e in case["windows"]]
        out = tmp / "out"
        code, _, err = _run([
            "compare", "--corpus", _write_corpus(tmp / "c.jsonl", case["docs"]), "--lexicon", str(tmp / "lex.json"),
            "--window-t", window_t, "--window-t1", window_t1, "--field", case["field"], "--pairs", case["pairs"],
            "--top-n", str(case["top_n"]), "--measure", case["measure"], "--tau", repr(case["tau"]),
            "--resolution", repr(case["resolution"]), "--out", str(out),
        ])
        sides = [
            _clustered_reference(case["docs"], w, case["field"], case["pairs"], case["top_n"], case["resolution"])
            for w in case["windows"]
        ]
        if any(assignment is None for _, assignment, _ in sides):
            assert code == 2 and _refusal(case["docs"], case["windows"], ("t", "t+1")) in err, err
            assert not any(out.iterdir())
            return
        assert code == 0, err
        for suffix, (graph, assignment, quality) in zip(("_t", "_t1"), sides):
            _check_clustered_files(out, suffix, graph, assignment, quality)
        (graph_t, part_t, _), (graph_t1, part_t1, _) = sides
        labels_t = _cluster_labels_reference(graph_t, part_t)
        labels_t1 = _cluster_labels_reference(graph_t1, part_t1)
        inter, values, row_sizes, col_sizes = similarity_matrix_reference(
            *(SimpleNamespace(assignment=a, cluster_count=max(a.values()) + 1) for a in (part_t, part_t1)), case["measure"]
        )
        assert _read_csv(out / "similarity.csv") == [["", *labels_t1]] + [
            [label, *(f"{v:.6f}" for v in row)] for label, row in zip(labels_t, values, strict=True)
        ]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        convergence = novelty = {}
        if case["measure"] == "overlap_target":
            convergence, novelty = inheritance_indices_reference(values)
        for key, want in (("convergence_index", convergence), ("novelty_index", novelty)):
            written = report.pop(key)
            assert written.keys() == {str(j) for j in want}
            assert all(abs(written[str(j)] - value) <= 1e-12 for j, value in want.items())
        events = [
            {"kind": e.kind, "sources": list(e.sources), "targets": list(e.targets), "supports": list(e.supports)}
            for e in classify_events_reference(values, case["tau"])
        ]
        assert report == {
            "measure": case["measure"], "tau": case["tau"],
            "clusters_t": list(range(len(labels_t))), "clusters_t1": list(range(len(labels_t1))),
            "cluster_labels_t": labels_t, "cluster_labels_t1": labels_t1,
            "cluster_sizes_t": row_sizes.tolist(), "cluster_sizes_t1": col_sizes.tolist(),
            "similarity": values.tolist(), "intersections": inter.tolist(), "events": events,
        }
        flows = sorted(
            (-row_sizes[i], -inter[i, j], i, j) for i in range(len(labels_t)) for j in range(len(labels_t1)) if inter[i, j]
        )
        assert _read_csv(out / "alluvial.csv") == [
            ["source_cluster", "target_cluster", "flow_weight", "source_label", "target_label"]
        ] + [[str(i), str(j), str(-flow), labels_t[i], labels_t1[j]] for _, flow, i, j in flows]


@st.composite
def cluster_cases(draw):
    docs = draw(st.lists(_doc(dt.date(2020, 1, 1), 60), min_size=2, max_size=10))
    window = draw(st.sampled_from([None, (dt.date(2020, 1, 1), dt.date(2020, 2, 1))]))
    return {"docs": docs, "window": window, **_settings(draw, "field", "pairs", "top_n", "resolution")}


@settings(max_examples=E2E_EXAMPLES, deadline=None)
@given(cluster_cases())
def test_cluster_files_match_the_composed_references(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "lex.json").write_text(json.dumps(LEXICON_RECORDS))
        window = [] if case["window"] is None else ["--window", ":".join(d.isoformat() for d in case["window"])]
        out = tmp / "out"
        code, stdout, err = _run([
            "cluster", "--corpus", _write_corpus(tmp / "c.jsonl", case["docs"]), "--lexicon", str(tmp / "lex.json"),
            *window, "--field", case["field"], "--pairs", case["pairs"], "--top-n", str(case["top_n"]),
            "--resolution", repr(case["resolution"]), "--out", str(out),
        ])
        graph, assignment, quality = _clustered_reference(
            case["docs"], case["window"], case["field"], case["pairs"], case["top_n"], case["resolution"]
        )
        if assignment is None:
            assert code == 2 and _refusal(case["docs"], [case["window"]] if case["window"] else []) in err, err
            assert not any(out.iterdir())
            return
        assert code == 0, err
        _check_clustered_files(out, "", graph, assignment, quality)
        # one line per cluster between the summary and the closing line, with every suggested tag
        sizes = [list(assignment.values()).count(cid) for cid in range(max(assignment.values()) + 1)]
        assert stdout.splitlines()[1:-1] == [
            f"  cluster {cid} ({size} nodes): {', '.join(top)}"
            for cid, (size, top) in enumerate(zip(sizes, suggest_labels_reference(graph, assignment), strict=True))
        ]


def _slug(term: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", term) or "term"


@st.composite
def trend_cases(draw):
    labels = draw(st.lists(st.sampled_from(["news", "blogs", "patents"]), min_size=2, max_size=3, unique=True))
    corpora = {label: draw(st.lists(_doc(dt.date(2018, 1, 1), 4 * 365), max_size=6)) for label in labels}
    canonicals = [record["canonical"] for record in LEXICON_RECORDS]
    terms = draw(st.lists(st.sampled_from(canonicals), min_size=1, max_size=4, unique=True))
    return corpora, terms, draw(st.sampled_from(["year", "quarter"]))


@settings(max_examples=E2E_EXAMPLES, deadline=None)
@given(trend_cases())
def test_trend_files_match_the_per_term_reference(case):
    corpora, terms, period = case
    lexicon = lexicon_from_records(LEXICON_RECORDS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "lex.json").write_text(json.dumps(LEXICON_RECORDS))
        (tmp / "terms.txt").write_text("".join(term + "\n" for term in terms))
        sources = [a for label, docs in corpora.items() for a in ("--corpus", f"{label}={_write_corpus(tmp / f'{label}.jsonl', docs)}")]
        code, out, err = _run([
            "trend", *sources, "--terms", str(tmp / "terms.txt"), "--lexicon", str(tmp / "lex.json"),
            "--period", period, "--out", str(tmp / "out"),
        ])
        assert code == 0, err
        assert out == f"wrote {len(terms)} trend files and correlations.csv to {tmp / 'out'}\n"
        parsed = [(label, _corpus(docs)) for label, docs in corpora.items()]
        want_rows, want_skipped = [], []
        for term in terms:
            counts = term_trend_reference(parsed, lexicon, term, period)
            periods = sorted({p for per_period in counts.values() for p in per_period})
            expected = [["period", "source", "count"]]
            expected += [[p, label, str(counts[label].get(p, 0))] for p in periods for label in sorted(counts)]
            assert _read_csv(tmp / "out" / f"trend_{_slug(term)}.csv") == expected
            for i, a in enumerate(sorted(counts)):
                for b in sorted(counts)[i + 1:]:
                    series_a = [counts[a].get(p, 0) for p in periods]
                    series_b = [counts[b].get(p, 0) for p in periods]
                    try:
                        want_rows.append((term, a, b, statistics.correlation(series_a, series_b)))
                    except statistics.StatisticsError:
                        want_skipped.append(f"trend: {term!r} between {a} and {b}: ")
        rows = _read_csv(tmp / "out" / "correlations.csv")
        assert rows[0] == ["term", "source_a", "source_b", "pearson_r"]
        assert [tuple(row[:3]) for row in rows[1:]] == [want[:3] for want in want_rows]
        for row, want in zip(rows[1:], want_rows):
            # six decimals are written
            assert abs(float(row[3]) - want[3]) <= 5e-7 + 1e-12
        lines = err.splitlines()
        assert len(lines) == len(want_skipped)
        assert all(line.startswith(prefix) for line, prefix in zip(lines, want_skipped))

import codecs
import collections
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import techflux.cograph
from techflux.breakcheck import term_trend
from techflux.cli import main
from techflux.cograph import build_cooccurrence, top_n_filter
from techflux.community import louvain
from techflux.config import PipelineConfig, build_config
from techflux.corpus import load_corpus, load_windows, save_corpus, window_filter
from techflux.errors import CommunityError, ConfigError, GraphError, StatsError, TransitionError
from techflux.lexicon import compile_lexicon
from techflux.transition import classify_events, similarity_matrix, transition_report

from conftest import package_env
from forkchecks import FORK_WARNING, force_fork

COMPARE_FILES = (
    "graph_t.graphml", "graph_t1.graphml", "graph_t.json", "graph_t1.json",
    "partition_t.json", "partition_t1.json", "similarity.csv", "report.json",
    "alluvial.csv",
)


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def two_window_spec(tmp_path):
    return write_json(tmp_path / "plant.json", {
        "seed": 5,
        "docs_per_window": 80,
        "noise_rate": 0.0,
        "windows": [
            {"start": "2021-01-01", "end": "2021-02-01"},
            {"start": "2021-02-01", "end": "2021-03-01"},
        ],
        "communities": [
            {"name": "red", "size": 5, "rate": 1.0},
            {"name": "blue", "size": 5, "rate": 1.0},
            {"name": "green", "size": 4, "rate": 1.0},
        ],
        "events": [
            {"kind": "merge", "pair": 0, "sources": ["red", "blue"],
             "targets": ["purple"], "mixing": 1.0, "rate": 1.0},
            {"kind": "birth", "pair": 0, "targets": ["mint"], "size": 4, "rate": 1.0},
        ],
    })


MONTHS = [f"2020-{m:02d}-01" for m in range(1, 10)]


def eight_window_spec(tmp_path):
    windows = [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(8)]
    return write_json(tmp_path / "plant8.json", {
        "seed": 3,
        "docs_per_window": 40,
        "noise_rate": 0.0,
        "windows": windows,
        "communities": [
            {"name": "c1", "size": 4, "rate": 1.0},
            {"name": "c2", "size": 4, "rate": 1.0},
            {"name": "c3", "size": 3, "rate": 1.0},
        ],
        "events": [],
    })


def synth_into(tmp_path, spec_path, out_name):
    out = tmp_path / out_name
    assert main(["synth", "--plant-spec", spec_path, "--out", str(out)]) == 0
    assert (out / "corpus.jsonl").exists()
    assert (out / "ground_truth.json").exists()
    assert (out / "lexicon.json").exists()
    return out


def test_synth_and_compare_end_to_end(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    out = tmp_path / "run1"
    code = main([
        "compare",
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--window-t", "2021-01-01:2021-02-01",
        "--window-t1", "2021-02-01:2021-03-01",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    for name in COMPARE_FILES:
        assert (out / name).exists(), name
    assert "merge" in captured.out
    assert "birth" in captured.out
    assert "mean convergence" in captured.out
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    kinds = sorted(e["kind"] for e in report["events"])
    assert kinds == ["birth", "merge", "persist"]
    # compare prints the plain mean index that the series uses
    mean_ci, mean_ni = (
        math.fsum(report[key].values()) / len(report[key]) for key in ("convergence_index", "novelty_index")
    )
    assert f"mean convergence {mean_ci:.4f}, mean novelty {mean_ni:.4f}\n" in captured.out
    truth = json.loads((data / "ground_truth.json").read_text(encoding="utf-8"))
    measured = sorted(report["convergence_index"].values())
    planted = sorted(truth["pairs"][0]["convergence"].values())
    assert measured == pytest.approx(planted, abs=1e-12)


def test_compare_rerun_is_byte_identical(tmp_path):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    argv_tail = [
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--window-t", "2021-01-01:2021-02-01",
        "--window-t1", "2021-02-01:2021-03-01",
    ]
    for run in ("run1", "run2"):
        assert main(["compare"] + argv_tail + ["--out", str(tmp_path / run)]) == 0
    for name in COMPARE_FILES:
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, name


def test_series_with_break_report(tmp_path, capsys):
    data = synth_into(tmp_path, eight_window_spec(tmp_path), "data8")
    windows_path = write_json(
        tmp_path / "windows.json",
        [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(8)],
    )
    out = tmp_path / "series_out"
    code = main([
        "series",
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--windows", windows_path,
        "--breakpoint", "3",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "CI series: F = " in captured.out
    assert "NI series: F = " in captured.out
    lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "window_start,window_end,mean_ci,mean_ni"
    assert len(lines) == 8  # 8 windows -> 7 pair points
    # a fully stable corpus has convergence pinned at 1: no break anywhere
    assert all(line.endswith(",1.000000,0.000000") for line in lines[1:])
    for name in ("break_ci.json", "break_ni.json"):
        payload = json.loads((out / name).read_text(encoding="utf-8"))
        assert payload["breakpoint_index"] == 3
        assert payload["f_statistic"] == 0.0
        assert payload["p_value"] == 1.0


def _no_build(*args, **kwargs):
    raise AssertionError("a window was clustered before the breakpoint was checked")


def test_series_invalid_breakpoint_exits_2(tmp_path, capsys, monkeypatch):
    data = synth_into(tmp_path, eight_window_spec(tmp_path), "data8")
    windows_path = write_json(
        tmp_path / "windows.json",
        [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(8)],
    )
    for module in [m for name, m in sorted(sys.modules.items()) if name.startswith("techflux")]:
        if hasattr(module, "build_cooccurrence"):
            monkeypatch.setattr(module, "build_cooccurrence", _no_build)
    code = main([
        "series",
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--windows", windows_path,
        "--breakpoint", "1",
        "--out", str(tmp_path / "series_out"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "techflux breakcheck:" in captured.err
    assert "each segment needs more than 2 points; breakpoint 1 gives segments of 1 and 6" in captured.err
    assert not (tmp_path / "series_out" / "series.csv").exists()


def _no_corpus(*args, **kwargs):
    raise AssertionError("the corpus was read")


@pytest.mark.parametrize("count", [0, 1, 2])
def test_series_with_fewer_than_3_windows_exits_2_before_reading_the_corpus(tmp_path, capsys, monkeypatch, count):
    lexicon = write_json(tmp_path / "lexicon.json", [{"canonical": "ai", "patterns": ["ai"]}])
    windows = write_json(tmp_path / "windows.json", [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(count)])
    monkeypatch.setattr("techflux.cli.load_corpus", _no_corpus)
    code = main(["series", "--corpus", str(tmp_path / "corpus.jsonl"), "--lexicon", lexicon, "--windows", windows,
                 "--breakpoint", "3", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"techflux breakcheck: need at least 3 windows, got {count}\n"
    assert not (tmp_path / "out").exists()


def _no_full_build(*args, **kwargs):
    raise AssertionError("a full graph was built and then cut to the top n")


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("command", ["compare", "series"])
def test_windows_build_only_the_kept_nodes_and_extract_once_per_doc(tmp_path, monkeypatch, command):
    if command == "compare":
        spec, months = two_window_spec(tmp_path), ["2021-01-01", "2021-02-01", "2021-03-01"]
    else:
        spec, months = eight_window_spec(tmp_path), MONTHS
    data = tmp_path / "data"
    assert main(["synth", "--plant-spec", spec, "--with-text", "--out", str(data)]) == 0
    windows_path = write_json(
        tmp_path / "windows.json",
        [{"start": start, "end": end} for start, end in zip(months, months[1:])],
    )
    if command == "compare":
        window_args = ["--window-t", f"{months[0]}:{months[1]}", "--window-t1", f"{months[1]}:{months[2]}"]
    else:
        window_args = ["--windows", windows_path, "--breakpoint", "3"]
    for module in [m for name, m in sorted(sys.modules.items()) if name.startswith("techflux")]:
        if hasattr(module, "top_n_filter"):
            monkeypatch.setattr(module, "top_n_filter", _no_full_build)
    original = techflux.cograph.extract_terms
    # series clusters half its windows in a forked child, which exits without
    # flushing, so both processes append each extraction to one file unbuffered
    log = os.open(tmp_path / "extracted.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counting_extract(doc, lexicon):
        os.write(log, f"{doc.id}\n".encode())
        return original(doc, lexicon)

    monkeypatch.setattr(techflux.cograph, "extract_terms", counting_extract)
    force_fork(monkeypatch)
    try:
        code = main([
            command, "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
            "--field", "text", "--top-n", "6", *window_args, "--out", str(tmp_path / "out"),
        ])
    finally:
        os.close(log)
    assert code == 0
    extracted = collections.Counter((tmp_path / "extracted.log").read_text(encoding="utf-8").split())
    corpus = load_corpus(data / "corpus.jsonl")
    expected = collections.Counter(
        doc.id for window in load_windows(windows_path) for doc in window_filter(corpus, window).documents
    )
    assert extracted == expected
    assert set(expected.values()) == {1}


def test_missing_lexicon_exits_2(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    code = main([
        "compare",
        "--corpus", str(data / "corpus.jsonl"),
        "--window-t", "2021-01-01:2021-02-01",
        "--window-t1", "2021-02-01:2021-03-01",
        "--out", str(tmp_path / "x"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "techflux config: a lexicon is required" in captured.err


def test_empty_window_exits_2(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    code = main([
        "compare",
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--window-t", "1999-01-01:1999-02-01",
        "--window-t1", "2021-02-01:2021-03-01",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "techflux breakcheck: window t holds no documents\n"


def test_compare_prints_each_window_s_dates_and_names_an_empty_one_by_its_label(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    argv = ["compare", "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
            "--window-t1", "2021-02-01:2021-03-01", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv + ["--window-t", "2021-01-01:2021-02-01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line, (label, dates, suffix) in zip(lines, [("t   ", "[2021-01-01,2021-02-01)", "t"),
                                                      ("t+1 ", "[2021-02-01,2021-03-01)", "t1")]):
        part = json.loads((tmp_path / "out" / f"partition_{suffix}.json").read_text(encoding="utf-8"))
        assert line == f"window {label} {dates}: {part['cluster_count']} clusters, modularity {part['modularity']:.4f}"
    assert main(argv + ["--window-t", "1999-01-01:1999-02-01"]) == 2
    assert capsys.readouterr().err == "techflux breakcheck: window t holds no documents\n"


def test_a_refused_run_removes_only_the_out_directories_it_made(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    argv = ["compare", "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
            "--window-t", "1999-01-01:1999-02-01", "--window-t1", "2021-02-01:2021-03-01"]
    assert main(argv + ["--out", str(tmp_path / "a" / "b")]) == 2
    assert not (tmp_path / "a").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(argv + ["--out", str(existing)]) == 2
    assert existing.is_dir() and not any(existing.iterdir())
    assert capsys.readouterr().err == "techflux breakcheck: window t holds no documents\n" * 2


def test_cluster_empty_window_exits_2(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    code = main([
        "cluster",
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--window", "1999-01-01:1999-02-01",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "techflux breakcheck: window [1999-01-01,1999-02-01) holds no documents\n"


@pytest.mark.parametrize("command, scope", [("compare", "window t"), ("cluster", "the corpus")])
def test_tech_tag_pairs_on_tags_that_are_all_lexicon_terms_exit_2(tmp_path, capsys, command, scope):
    # a noise-free synth corpus with its own lexicon: every tag is a lexicon term
    argv = _cli_argv(tmp_path, command)
    if command == "cluster":
        argv.remove("--window")
        argv.remove("2021-01-01:2021-02-01")
    code = main(argv + ["--pairs", "tech-tag"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == (
        f"techflux breakcheck: {scope} produced an edgeless graph: with pairs tech-tag, "
        "no document has both a lexicon term and a tag that is not one\n"
    )
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("pattern", ["(?:" * 1000 + "ai" + ")" * 1000, "ai{4294967296}"], ids=["nested", "repeat"])
def test_a_pattern_that_re_fails_on_exits_2(tmp_path, capsys, pattern):
    # re raises RecursionError and OverflowError here, not re.error
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(_GOOD_INPUTS["c.jsonl"], encoding="utf-8")
    lexicon = write_json(tmp_path / "lex.json", [{"canonical": "ai", "patterns": ["ai", pattern]}])
    code = main(["cluster", "--corpus", str(corpus), "--lexicon", lexicon, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"techflux lexicon: lex.json: entry 'ai': pattern {pattern!r} does not compile: "), err
    assert not list((tmp_path / "out").glob("*"))


def test_a_pattern_that_closes_its_wrapper_exits_2(tmp_path, capsys):
    # wrapped as \b(?:ai)|(?:chip)\b, this pattern would find ai in "microchip"
    for name in ("news", "patents"):
        (tmp_path / f"{name}.jsonl").write_text('{"id": "d1", "date": "2020-01-05", "text": "a microchip story"}\n', encoding="utf-8")
    lexicon = write_json(tmp_path / "lex.json", [{"canonical": "ai", "patterns": ["ai)|(?:chip"]}])
    (tmp_path / "terms.txt").write_text("ai\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["trend", "--corpus", f"news={tmp_path / 'news.jsonl'}", "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
                 "--terms", str(tmp_path / "terms.txt"), "--lexicon", lexicon, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == "techflux lexicon: lex.json: entry 'ai': pattern 'ai)|(?:chip' does not compile: unbalanced parenthesis at position 2\n"
    assert not list(out.glob("*"))


def _forbidden(*args, **kwargs):
    raise AssertionError("input loaded or work done before the output directory was checked")


@pytest.mark.parametrize("argv", [
    ["compare", "--corpus", "c.jsonl", "--lexicon", "l.json",
     "--window-t", "2021-01-01:2021-02-01", "--window-t1", "2021-02-01:2021-03-01"],
    ["series", "--corpus", "c.jsonl", "--lexicon", "l.json", "--windows", "w.json", "--breakpoint", "3"],
    ["trend", "--corpus", "a=a.jsonl", "--corpus", "b=b.jsonl", "--lexicon", "l.json", "--terms", "t.txt"],
    ["synth", "--plant-spec", "plant.json"],
    ["cluster", "--corpus", "c.jsonl", "--lexicon", "l.json"],
], ids=lambda argv: argv[0])
def test_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    for target in (
        "techflux.cli.compile_lexicon",
        "techflux.cli.load_corpus",
        "techflux.breakcheck.build_cooccurrence",
        "techflux.synth.load_plant_spec",
        "techflux.synth.generate_corpus",
    ):
        monkeypatch.setattr(target, _forbidden)
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    code = main(argv + ["--out", str(blocker / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("techflux io: ")
    assert str(blocker / "x") in captured.err


def test_malformed_csv_exits_2(tmp_path, capsys, monkeypatch):
    # no CSV text breaks the raised field limit, so a small one stands in
    monkeypatch.setattr("techflux.corpus._CSV_FIELD_LIMIT", 100)
    corpus = tmp_path / "wide.csv"
    corpus.write_text("id,date,text,tags\nd1,2021-01-05,short,ai\nd2,2021-01-06," + "x" * 101 + ",ai\n", encoding="utf-8")
    lexicon = write_json(tmp_path / "lex.json", [{"canonical": "ai", "patterns": ["ai"]}])
    code = main(["cluster", "--corpus", str(corpus), "--lexicon", lexicon, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("techflux corpus: wide.csv line 3: malformed CSV")
    assert "internal error" not in err


_GOOD_INPUTS = {
    "c.jsonl": '{"id": "d1", "date": "2021-01-05", "tags": ["ai", "iot"]}\n',
    "lex.json": '[{"canonical": "ai", "patterns": ["ai"]}]',
    "terms.txt": "ai\n",
}

# input -> (module that owns its errors, file name, argv that reads it, a valid
# file of the input around one JSON string, or None if the input is not JSON)
_INPUTS = {
    "jsonl_corpus": ("corpus", "bad.jsonl", lambda d, p: ["cluster", "--corpus", p, "--lexicon", d["lex.json"]],
                     '{"id": "d1", "date": "2021-01-05", "tags": [%s]}\n'),
    "csv_corpus": ("corpus", "bad.csv", lambda d, p: ["cluster", "--corpus", p, "--lexicon", d["lex.json"]], None),
    "lexicon": ("lexicon", "bad.json", lambda d, p: ["cluster", "--corpus", d["c.jsonl"], "--lexicon", p],
                '[{"canonical": %s, "patterns": ["ai"]}]'),
    "windows": ("corpus", "bad.json", lambda d, p: [
        "series", "--corpus", d["c.jsonl"], "--lexicon", d["lex.json"], "--windows", p, "--breakpoint", "1",
    ], '[{"start": "2021-01-01", "end": "2021-02-01", "label": %s}]'),
    "plant_spec": ("synth", "bad.json", lambda d, p: ["synth", "--plant-spec", p], (
        '{"seed": 1, "docs_per_window": 5, "windows": [{"start": "2021-01-01", "end": "2021-02-01"}],'
        ' "communities": [{"name": "c", "members": [%s, "ai"], "rate": 1.0}]}'
    )),
    "config": ("config", "bad.json", lambda d, p: [
        "cluster", "--config", p, "--corpus", d["c.jsonl"], "--lexicon", d["lex.json"],
    ], '{"lexicon": %s}'),
    "terms": ("config", "bad.txt", lambda d, p: [
        "trend", "--corpus", f"a={d['c.jsonl']}", "--corpus", f"b={d['c.jsonl']}",
        "--lexicon", d["lex.json"], "--terms", p,
    ], None),
}


_READ_FAILURES = [
    (kind, failure)
    for kind, spec in _INPUTS.items()
    for failure in ("missing", "directory", "not_utf8") + (("invalid_json", "lone_surrogate", "deep_nesting") if spec[3] else ())
]


@pytest.mark.parametrize("kind,failure", _READ_FAILURES, ids=[f"{k}-{f}" for k, f in _READ_FAILURES])
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, kind, failure):
    module, name, make_argv, json_template = _INPUTS[kind]
    given = {}
    for good_name, content in _GOOD_INPUTS.items():
        (tmp_path / good_name).write_text(content, encoding="utf-8")
        given[good_name] = str(tmp_path / good_name)
    bad = tmp_path / name
    if failure == "directory":
        bad.mkdir()
    elif failure == "not_utf8":
        bad.write_bytes("ai\ncaf\u00e9\n".encode("latin-1"))
    elif failure == "invalid_json":
        bad.write_text("{nope\n", encoding="utf-8")
    elif failure == "lone_surrogate":
        bad.write_text(json_template % r'"bad\ud800tag"', encoding="utf-8")
    elif failure == "deep_nesting":  # past the recursion limit of the json parser
        bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(make_argv(given, str(bad)) + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"techflux {module}: "), err
    assert name in err
    if failure == "deep_nesting":
        where = f"{name} line 1" if name.endswith(".jsonl") else name
        assert err.endswith(f"{where}: invalid JSON (nested too deeply)\n"), err
    assert not list(out.glob("*"))


# input -> (a command that reads it, the flag that names it)
_BOM_INPUTS = {
    "jsonl_corpus": ("cluster", "--corpus"),
    "csv_corpus": ("cluster", "--corpus"),
    "lexicon": ("cluster", "--lexicon"),
    "windows": ("series", "--windows"),
    "plant_spec": ("synth", "--plant-spec"),
    "config": ("cluster", "--config"),
    "terms": ("trend", "--terms"),
}


@pytest.mark.parametrize("kind", list(_BOM_INPUTS))
def test_a_byte_order_mark_changes_no_input(tmp_path, capsys, kind):
    command, flag = _BOM_INPUTS[kind]
    argv = _cli_argv(tmp_path, command)[:-2]  # without --out
    if kind == "csv_corpus":
        at = argv.index(flag) + 1
        save_corpus(load_corpus(argv[at]), tmp_path / "corpus.csv")
        argv[at] = str(tmp_path / "corpus.csv")
    elif kind == "config":
        argv += [flag, write_json(tmp_path / "config.json", {"top_n": 5})]
    plain = Path(argv[argv.index(flag) + 1])
    marked = plain.with_name(f"bom-{plain.name}")
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    capsys.readouterr()  # what making the fixtures printed
    results = []
    for path in (plain, marked):
        out = tmp_path / f"out-{path.name}"
        code = main([str(path) if arg == str(plain) else arg for arg in argv] + ["--out", str(out)])
        captured = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        results.append((code, captured.out.replace(str(out), "OUT"), captured.err, files))
    assert results[0][0] == 0, results[0][2]
    assert results[1] == results[0]


# Modules no start-up path may load: the runtime has no numpy, writes its XML
# from strings, and its records are named tuples, so neither dataclasses nor
# the inspect module it imports is loaded.
_HEAVY_MODULES = ("numpy", "xml.etree.ElementTree", "pyexpat", "dataclasses", "inspect")

# runs one start-up path, then prints which of _HEAVY_MODULES got loaded: "import"
# imports the CLI, "setup" loads the inputs as perfbench/setup_probe.py does,
# and any other path runs the CLI with the arguments that follow
_START_UP_PROBE = (
    "import sys, techflux\n"
    "path, argv = sys.argv[1], sys.argv[2:]\n"
    "code = 0\n"
    "if path == 'setup':\n"
    "    techflux.compile_lexicon(argv[0])\n"
    "    techflux.load_corpus(argv[1])\n"
    "else:\n"
    "    from techflux.cli import main\n"
    "    code = main(argv) if argv else 0\n"
    f"print('loaded:', *sorted(set({_HEAVY_MODULES!r}) & set(sys.modules)))\n"
    "sys.exit(code)\n"
)

START_UP_PATHS = ["import", "setup", "trend", "cluster", "compare", "series", "synth"]


def _cli_argv(tmp_path, command):
    """Arguments for one successful run of ``command`` on small fixtures."""
    out = ["--out", str(tmp_path / "out")]
    if command == "synth":
        return ["synth", "--plant-spec", two_window_spec(tmp_path), *out]
    if command == "trend":
        lexicon, terms = trend_fixture(tmp_path)
        return [
            "trend",
            "--corpus", f"news={tmp_path / 'news.jsonl'}",
            "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
            "--terms", terms, "--lexicon", lexicon, *out,
        ]
    if command == "series":
        data = synth_into(tmp_path, eight_window_spec(tmp_path), "data8")
        windows = write_json(tmp_path / "windows.json", [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(8)])
        return [
            "series",
            "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
            "--windows", windows, "--breakpoint", "3", *out,
        ]
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    inputs = ["--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json")]
    if command == "cluster":
        return ["cluster", *inputs, "--window", "2021-01-01:2021-02-01", *out]
    assert command == "compare"
    return ["compare", *inputs, "--window-t", "2021-01-01:2021-02-01", "--window-t1", "2021-02-01:2021-03-01", *out]


@pytest.fixture(scope="module")
def start_up_loads(tmp_path_factory):
    """A start-up path -> the set of _HEAVY_MODULES it loads; each path runs once, in a fresh interpreter."""
    loaded = {}

    def probe(path):
        if path not in loaded:
            tmp_path = tmp_path_factory.mktemp(path)
            if path == "setup":
                data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
                argv = [str(data / "lexicon.json"), str(data / "corpus.jsonl")]
            else:
                argv = [] if path == "import" else _cli_argv(tmp_path, path)
            result = subprocess.run(
                [sys.executable, "-c", _START_UP_PROBE, path, *argv],
                env=package_env(), capture_output=True, encoding="utf-8", timeout=120,
            )
            assert result.returncode == 0, result.stderr
            last = result.stdout.splitlines()[-1].split()
            assert last[0] == "loaded:", result.stdout
            loaded[path] = set(last[1:])
        return loaded[path]

    return probe


@pytest.mark.parametrize("command", START_UP_PATHS)
def test_numpy_stays_off_the_start_up_path(start_up_loads, command):
    assert "numpy" not in start_up_loads(command)


@pytest.mark.parametrize("command", START_UP_PATHS)
def test_xml_stays_off_the_start_up_path(start_up_loads, command):
    assert not start_up_loads(command) & {"xml.etree.ElementTree", "pyexpat"}


@pytest.mark.parametrize("command", START_UP_PATHS)
def test_dataclasses_stay_off_the_start_up_path(start_up_loads, command):
    assert not start_up_loads(command) & {"dataclasses", "inspect"}


_SCAN_PROBE = (
    "import sys\n"
    "from techflux import lexicon\n"
    "from techflux.cli import main\n"
    "built, trie_regex = [], lexicon._trie_regex\n"
    "lexicon._trie_regex = lambda strings, depth=0: built.append(depth) or trie_regex(strings, depth)\n"
    "code = main(sys.argv[1:])\n"
    "print('scan built:', bool(built))\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("command, field, built", [("series", "tags", False), ("synth", None, False), ("series", "text", True)])
def test_only_an_extraction_builds_the_lexicon_scan(tmp_path, command, field, built):
    argv = _cli_argv(tmp_path, command)
    if field:
        argv += ["--field", field]
    if field == "text":
        # the same corpus with its terms in the text instead of the tags
        assert main(["synth", "--plant-spec", eight_window_spec(tmp_path), "--with-text", "--out", str(tmp_path / "data8")]) == 0
    result = subprocess.run(
        [sys.executable, "-c", _SCAN_PROBE, *argv],
        env=package_env(), capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"scan built: {built}"


# counts the calls of each pattern-reading function per pattern over one CLI run
_PATTERN_PROBE = (
    "import collections, json, sys\n"
    "from techflux import lexicon\n"
    "from techflux.cli import main\n"
    "calls = {'_literal_prefix': collections.Counter(), 'compile_pattern': collections.Counter()}\n"
    "def counted(name, f):\n"
    "    return lambda pattern: calls[name].update([pattern]) or f(pattern)\n"
    "for name in calls:\n"
    "    setattr(lexicon, name, counted(name, getattr(lexicon, name)))\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(calls))\n"
    "sys.exit(code)\n"
)


def test_a_text_run_reads_each_lexicon_pattern_once(tmp_path):
    argv = _cli_argv(tmp_path, "compare")
    # the same corpus with its terms in the text instead of the tags
    assert main(["synth", "--plant-spec", two_window_spec(tmp_path), "--with-text", "--out", str(tmp_path / "data")]) == 0
    # beside each literal pattern, a regex with the same literal prefix or with none
    entries = json.loads((tmp_path / "data" / "lexicon.json").read_text(encoding="utf-8"))
    for i, entry in enumerate(entries):
        literal = entry["patterns"][0]
        entry["patterns"].append(f"{literal}s?" if i % 2 else f"(?:{literal}|x{i})")
    lexicon = write_json(tmp_path / "lex.json", entries)
    argv[argv.index("--lexicon") + 1] = lexicon
    result = subprocess.run(
        [sys.executable, "-c", _PATTERN_PROBE, *argv, "--field", "text"],
        env=package_env(), capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    calls = json.loads(result.stdout.splitlines()[-1])
    assert calls["_literal_prefix"] == {p: 1 for entry in entries for p in entry["patterns"]}
    assert calls["compile_pattern"] == {entry["patterns"][1]: 1 for entry in entries}


@pytest.mark.parametrize("command", ["synth", "trend", "cluster", "compare", "series"])
def test_every_file_is_opened_with_an_encoding(tmp_path, command):
    # its own process, so that warnings from test code and plugins do not count
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "techflux", *_cli_argv(tmp_path, command)],
        env=package_env(), capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "EncodingWarning" not in result.stderr


def test_argparse_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def trend_fixture(tmp_path):
    docs = [
        {"id": "d1", "date": "2019-03-01", "text": "", "tags": ["ai"]},
        {"id": "d2", "date": "2020-02-01", "text": "", "tags": ["ai"]},
        {"id": "d3", "date": "2020-05-05", "text": "", "tags": ["ai"]},
    ]
    for name in ("news", "patents"):
        lines = [json.dumps(dict(doc, id=f"{name}-{doc['id']}")) for doc in docs]
        (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexicon = write_json(tmp_path / "lex.json", [
        {"canonical": "ai", "patterns": ["ai"]},
        {"canonical": "ghost", "patterns": ["ghost"]},
    ])
    terms = tmp_path / "terms.txt"
    terms.write_text("# tracked terms\nai\nghost\n", encoding="utf-8")
    return lexicon, str(terms)


def test_trend_counts_and_correlations(tmp_path, capsys):
    lexicon, terms = trend_fixture(tmp_path)
    out = tmp_path / "trend_out"
    code = main([
        "trend",
        "--corpus", f"news={tmp_path / 'news.jsonl'}",
        "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
        "--terms", terms,
        "--period", "year",
        "--lexicon", lexicon,
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    rows = (out / "trend_ai.csv").read_text(encoding="utf-8").splitlines()
    assert rows == [
        "period,source,count",
        "2019,news,1",
        "2019,patents,1",
        "2020,news,2",
        "2020,patents,2",
    ]
    # the unmatched term still gets its file, but no correlation row
    assert (out / "trend_ghost.csv").read_text(encoding="utf-8").splitlines() == ["period,source,count"]
    assert "'ghost'" in captured.err and "at least 2 points" in captured.err
    assert (out / "correlations.csv").read_text(encoding="utf-8").splitlines() == [
        "term,source_a,source_b,pearson_r",
        "ai,news,patents,1.000000",
    ]


def test_correlations_csv_quotes_a_label_with_a_comma(tmp_path, capsys):
    lexicon, terms = trend_fixture(tmp_path)
    out = tmp_path / "trend_out"
    code = main([
        "trend",
        "--corpus", f"news, us={tmp_path / 'news.jsonl'}",
        "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
        "--terms", terms, "--lexicon", lexicon, "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    with open(out / "correlations.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["term", "source_a", "source_b", "pearson_r"], ["ai", "news, us", "patents", "1.000000"]]
    assert (out / "correlations.csv").read_bytes().endswith(b'ai,"news, us",patents,1.000000\n')


def test_trend_source_errors(tmp_path, capsys):
    lexicon, terms = trend_fixture(tmp_path)
    base = ["trend", "--terms", terms, "--lexicon", lexicon, "--out", str(tmp_path / "o")]
    news = f"news={tmp_path / 'news.jsonl'}"
    assert main(base + ["--corpus", news]) == 2
    assert "at least 2 corpus sources" in capsys.readouterr().err
    assert main(base + ["--corpus", news, "--corpus", news]) == 2
    assert capsys.readouterr().err == "techflux breakcheck: duplicate corpus label 'news'\n"
    assert main(base + ["--corpus", news, "--corpus", "nolabel"]) == 2
    assert "LABEL=PATH" in capsys.readouterr().err


def test_trend_rejects_terms_that_share_a_file_before_reading_a_corpus(tmp_path, capsys):
    lexicon = write_json(tmp_path / "lex.json", [
        {"canonical": "machine learning", "patterns": ["machine learning"]},
        {"canonical": "machine-learning", "patterns": ["machine-learning"]},
    ])
    terms = tmp_path / "terms.txt"
    # a term listed twice is not a clash; a second term with the same file is
    terms.write_text("machine learning\nmachine learning\nmachine-learning\n", encoding="utf-8")
    out = tmp_path / "o"
    # neither corpus exists, so only a check made before reading them can pass
    code = main([
        "trend", "--corpus", f"a={tmp_path / 'missing_a.jsonl'}", "--corpus", f"b={tmp_path / 'missing_b.jsonl'}",
        "--terms", str(terms), "--lexicon", lexicon, "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("techflux config: ")
    assert f"terms file {terms}" in err
    assert "'machine learning' and 'machine-learning' would both write trend_machine_learning.csv" in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("case", ["duplicate_label", "unknown_term"])
def test_trend_rejects_bad_input_before_writing(tmp_path, capsys, case):
    lexicon, terms = trend_fixture(tmp_path)
    news = f"news={tmp_path / 'news.jsonl'}"
    if case == "duplicate_label":
        sources = ["--corpus", news, "--corpus", f"news={tmp_path / 'missing.jsonl'}"]
        message = "duplicate corpus label 'news'"
    else:
        sources = ["--corpus", news, "--corpus", f"patents={tmp_path / 'patents.jsonl'}"]
        terms = tmp_path / "terms_unknown.txt"
        terms.write_text("ai\nlaser\n", encoding="utf-8")
        message = "unknown term 'laser'"
    out = tmp_path / "o"
    code = main(["trend", *sources, "--terms", str(terms), "--lexicon", lexicon, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("trend_*.csv"))
    assert not (out / "correlations.csv").exists()


def test_trend_reports_a_bad_terms_file_before_a_repeated_label(tmp_path, capsys):
    lexicon, _ = trend_fixture(tmp_path)
    terms = tmp_path / "empty_terms.txt"
    terms.write_text("# none yet\n", encoding="utf-8")
    news = f"news={tmp_path / 'news.jsonl'}"
    out = tmp_path / "o"
    code = main(["trend", "--corpus", news, "--corpus", news, "--terms", str(terms), "--lexicon", lexicon, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"techflux config: terms file {terms} lists no terms\n"
    assert not out.exists()


def test_trend_checks_its_terms_before_reading_a_corpus(tmp_path, capsys, monkeypatch):
    lexicon, _ = trend_fixture(tmp_path)
    terms = tmp_path / "terms_unknown.txt"
    terms.write_text("no such term\n", encoding="utf-8")
    out = tmp_path / "o"
    # the second corpus cannot be read, so only a check made before reading either can name the term
    code = main(["trend", "--corpus", f"news={tmp_path / 'news.jsonl'}", "--corpus", f"gone={tmp_path / 'missing.jsonl'}",
                 "--terms", str(terms), "--lexicon", lexicon, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("techflux breakcheck: unknown term 'no such term': not in the lexicon")
    # with both corpora present, none is read either
    monkeypatch.setattr("techflux.cli.load_corpus", _no_corpus)
    code = main(["trend", "--corpus", f"news={tmp_path / 'news.jsonl'}", "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
                 "--terms", str(terms), "--lexicon", lexicon, "--out", str(out)])
    assert code == 2
    assert "unknown term 'no such term'" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_trend_runs_a_repeated_term_once(tmp_path, capsys):
    lexicon, _ = trend_fixture(tmp_path)
    terms = tmp_path / "terms_twice.txt"
    terms.write_text("ai\nai\n", encoding="utf-8")
    out = tmp_path / "trend_out"
    code = main([
        "trend",
        "--corpus", f"news={tmp_path / 'news.jsonl'}",
        "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
        "--terms", str(terms), "--lexicon", lexicon, "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == f"wrote 1 trend files and correlations.csv to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == ["correlations.csv", "trend_ai.csv"]
    assert (out / "correlations.csv").read_text(encoding="utf-8").splitlines() == [
        "term,source_a,source_b,pearson_r",
        "ai,news,patents,1.000000",
    ]


def test_trend_takes_a_term_spelled_as_the_lexicon_file_spells_it(tmp_path, capsys):
    trend_fixture(tmp_path)  # for its two corpora
    # the lexicon normalizes each canonical like a tag, and the terms file is read the same way,
    # so the third line is the first one again
    lexicon = write_json(tmp_path / "lex_spelled.json", [
        {"canonical": "Machine  Learning", "patterns": ["machine learning"]},
        {"canonical": "C00-000", "patterns": ["c00-000"]},
    ])
    terms = tmp_path / "terms_spelled.txt"
    terms.write_text("Machine  Learning\n  C00-000\nmachine learning\n", encoding="utf-8")
    out = tmp_path / "trend_out"
    code = main(["trend", "--corpus", f"news={tmp_path / 'news.jsonl'}", "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
                 "--terms", str(terms), "--lexicon", lexicon, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == f"wrote 2 trend files and correlations.csv to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == ["correlations.csv", "trend_c00_000.csv", "trend_machine_learning.csv"]
    assert "'machine learning' between news and patents" in captured.err


def test_trend_counts_under_field(tmp_path, capsys):
    lexicon, terms = trend_fixture(tmp_path)
    out = tmp_path / "trend_text"
    code = main([
        "trend",
        "--corpus", f"news={tmp_path / 'news.jsonl'}",
        "--corpus", f"patents={tmp_path / 'patents.jsonl'}",
        "--terms", terms,
        "--lexicon", lexicon,
        "--field", "text",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    # the fixture's documents carry "ai" only as a tag
    assert (out / "trend_ai.csv").read_text(encoding="utf-8").splitlines() == ["period,source,count"]
    assert (out / "correlations.csv").read_text(encoding="utf-8").splitlines() == ["term,source_a,source_b,pearson_r"]


def test_cluster_subcommand(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    out = tmp_path / "cluster_out"
    code = main([
        "cluster",
        "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"),
        "--window", "2021-01-01:2021-02-01",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    for name in ("graph.graphml", "graph.json", "partition.json"):
        assert (out / name).exists()
    assert "3 clusters" in captured.out
    partition = json.loads((out / "partition.json").read_text(encoding="utf-8"))
    assert partition["cluster_count"] == 3


@pytest.mark.parametrize("window_t, window_t1", [
    ("2021-01-01T00:00:00:2021-02-01", "2021-02-01T00:00:00:2021-03-01T12:30"),
    ("2021-01-01/2021-02-01", "2021-02-01T00:00/2021-03-01"),
])
def test_window_flags_take_times_of_day_and_the_slash_form(tmp_path, capsys, window_t, window_t1):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    inputs = ["--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json")]
    runs = {"plain": ("2021-01-01:2021-02-01", "2021-02-01:2021-03-01"), "given": (window_t, window_t1)}
    for run, (start, end) in runs.items():
        assert main(["cluster", *inputs, "--window", start, "--out", str(tmp_path / run / "cluster")]) == 0
        assert main(["compare", *inputs, "--window-t", start, "--window-t1", end,
                     "--out", str(tmp_path / run / "compare")]) == 0
    capsys.readouterr()
    for name in ("cluster/partition.json", "cluster/graph.json", *(f"compare/{name}" for name in COMPARE_FILES)):
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


@pytest.mark.parametrize("spec", ["2021-01-01", "2021-01-01:2021-02-01:2021-03-01", "2021-01-01/2021-02-01/2021-03-01"])
def test_window_flag_without_one_valid_cut_exits_2(tmp_path, capsys, spec):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    code = main(["cluster", "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
                 "--window", spec, "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"techflux corpus: window spec must be START:END or START/END with one valid cut, got {spec!r}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["cluster", "--window", "2021-01-01:2021-13-01"],
    ["compare", "--window-t", "2021-01-01:2021-13-01", "--window-t1", "2021-02-01:2021-03-01"],
    ["compare", "--window-t", "2021-01-01:2021-02-01", "--window-t1", "2021-02-01:2021-13-01"],
], ids=["cluster", "compare-t", "compare-t1"])
def test_window_flags_are_checked_before_the_corpus_is_read(tmp_path, capsys, flags):
    lexicon = write_json(tmp_path / "lexicon.json", [{"canonical": "ai", "patterns": ["ai"]}])
    command, *window_flags = flags
    code = main([command, "--corpus", str(tmp_path / "missing.jsonl"), "--lexicon", lexicon,
                 *window_flags, "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "techflux corpus: invalid ISO-8601 date: '2021-13-01'\n"


@pytest.mark.parametrize("command", [
    ["cluster"],
    ["compare", "--window-t", "2021-01-01:2021-02-01", "--window-t1", "2021-02-01:2021-03-01"],
], ids=["cluster", "compare"])
def test_graphml_refusal_exits_2_before_any_file_is_written(tmp_path, capsys, command):
    corpus = tmp_path / "c.jsonl"
    # the bad tag is in February only, so compare refuses its second graph
    records = [
        {"id": f"d{i}", "date": f"2021-0{1 + i % 2}-01", "tags": ["ai", f"t{i % 3}"] + (["bad\u0001tag"] if i % 2 else [])}
        for i in range(8)
    ]
    corpus.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    lexicon = write_json(tmp_path / "lexicon.json", [{"canonical": "ai", "patterns": ["ai"]}])
    out = tmp_path / "out"
    code = main([*command, "--corpus", str(corpus), "--lexicon", lexicon, "--field", "tags", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "techflux cograph: node 'bad\\x01tag': U+0001 is no XML 1.0 character, so GraphML cannot hold it\n"
    )
    assert not out.exists()


def test_synth_refusal_of_its_generated_lexicon_writes_nothing(tmp_path, capsys):
    spec = json.loads(Path(two_window_spec(tmp_path)).read_text(encoding="utf-8"))
    spec["communities"][0] = {"name": "red", "members": ["c++", "java"], "rate": 1.0}
    path = write_json(tmp_path / "cpp_plant.json", spec)
    out = tmp_path / "out"
    assert main(["synth", "--plant-spec", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"techflux synth: {path} community 'red': term 'c++' must start and end with a word character"
        " for its lexicon pattern to match it\n"
    )
    assert not out.exists()


def test_bad_date_in_plant_spec_reports_under_synth_with_its_window(tmp_path, capsys):
    spec = json.loads(Path(two_window_spec(tmp_path)).read_text(encoding="utf-8"))
    spec["windows"][1]["start"] = "2021-13-01"
    path = write_json(tmp_path / "bad_plant.json", spec)
    assert main(["synth", "--plant-spec", path, "--out", str(tmp_path / "x")]) == 2
    assert f"techflux synth: {path}: window 1: invalid ISO-8601 date: '2021-13-01'" in capsys.readouterr().err


@pytest.mark.parametrize("event,key,value,message", [
    (0, "sources", 5, "sources must be an array of nonempty strings, got 5"),
    (1, "targets", 7, "targets must be an array of nonempty strings, got 7"),
    (0, "sources", {"red": 1, "blue": 2}, "sources must be an array of nonempty strings, got {'red': 1, 'blue': 2}"),
    (0, "sources", "red", "sources must be an array of nonempty strings, got 'red'"),
    (0, "targets", ["purple", 3], "targets must be an array of nonempty strings, got ['purple', 3]"),
    (0, "sources", ["red", "red"], "sources must be distinct, got ['red', 'red']"),
], ids=["number", "number-targets", "object", "string", "non-string-name", "repeated-source"])
def test_malformed_plant_spec_event_lists_exit_2_naming_the_event(tmp_path, capsys, event, key, value, message):
    spec = json.loads(Path(two_window_spec(tmp_path)).read_text(encoding="utf-8"))
    spec["events"][event][key] = value
    path = write_json(tmp_path / "bad_plant.json", spec)
    out = tmp_path / "x"
    assert main(["synth", "--plant-spec", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"techflux synth: {path} event {event}: {message}\n"
    assert not out.exists()


def test_bad_date_in_windows_file_names_the_file_and_window(tmp_path, capsys):
    data = synth_into(tmp_path, eight_window_spec(tmp_path), "data8")
    records = [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(8)]
    records[2]["end"] = "2020-04-31"
    windows = write_json(tmp_path / "windows.json", records)
    code = main(["series", "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
                 "--windows", windows, "--breakpoint", "3", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "techflux corpus: windows.json: window 2: invalid ISO-8601 date: '2020-04-31'" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    cfg_out = tmp_path / "cfg_out"
    config = write_json(tmp_path / "config.json", {
        "lexicon": str(data / "lexicon.json"),
        "tau": 0.5,
        "out": str(cfg_out),
    })
    code = main([
        "compare",
        "--config", config,
        "--corpus", str(data / "corpus.jsonl"),
        "--window-t", "2021-01-01:2021-02-01",
        "--window-t1", "2021-02-01:2021-03-01",
        "--tau", "0.2",
    ])
    assert code == 0
    report = json.loads((cfg_out / "report.json").read_text(encoding="utf-8"))
    assert report["tau"] == 0.2


def test_config_file_weighted_mean_without_flag(tmp_path):
    # from the second window on: {a,b} plus the new triangle {x,y,z}, so the
    # first point's mean CI is 0.5 plain and 0.4 size-weighted
    later = [["a", "b"], ["x", "y"], ["y", "z"], ["x", "z"]]
    docs = [json.dumps({"id": "m1", "date": MONTHS[0], "tags": ["a", "b"]})] + [
        json.dumps({"id": f"m{month}-{i}", "date": MONTHS[month], "tags": tags})
        for month in range(1, 7)
        for i, tags in enumerate(later)
    ]
    (tmp_path / "corpus.jsonl").write_text("\n".join(docs) + "\n", encoding="utf-8")
    windows = write_json(tmp_path / "windows.json", [{"start": MONTHS[i], "end": MONTHS[i + 1]} for i in range(7)])
    lexicon = write_json(tmp_path / "lex.json", [])
    base = ["series", "--corpus", str(tmp_path / "corpus.jsonl"), "--windows", windows,
            "--breakpoint", "3", "--lexicon", lexicon]

    def first_mean_ci(extra, name):
        assert main(base + extra + ["--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "series.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[2]

    config = write_json(tmp_path / "config.json", {"weighted_mean": True})
    assert first_mean_ci([], "plain") == "0.500000"
    assert first_mean_ci(["--weighted-mean"], "flag") == "0.400000"
    assert first_mean_ci(["--config", config], "config") == "0.400000"


@pytest.mark.parametrize("command,flag", [
    ("series", ["--measure", "jaccard"]),
    ("series", ["--tau", "0.5"]),
    ("cluster", ["--measure", "jaccard"]),
    ("cluster", ["--tau", "0.5"]),
    ("trend", ["--pairs", "tech-tag"]),
    ("trend", ["--top-n", "7"]),
    ("trend", ["--measure", "jaccard"]),
    ("trend", ["--tau", "0.5"]),
    ("trend", ["--resolution", "3"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unread_setting_flag_is_a_usage_error(capsys, command, flag):
    valid = {
        "series": ["--corpus", "c.jsonl", "--lexicon", "l.json", "--windows", "w.json", "--breakpoint", "3"],
        "cluster": ["--corpus", "c.jsonl", "--lexicon", "l.json"],
        "trend": ["--corpus", "a=a.jsonl", "--corpus", "b=b.jsonl", "--lexicon", "l.json", "--terms", "t.txt"],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *valid, *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    config = write_json(tmp_path / "config.json", {"bogus": 1})
    code = main([
        "compare",
        "--config", config,
        "--corpus", str(data / "corpus.jsonl"),
        "--window-t", "2021-01-01:2021-02-01",
        "--window-t1", "2021-02-01:2021-03-01",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "techflux config:" in captured.err
    assert "bogus" in captured.err


def test_synth_lexicon_keeps_non_ascii_terms_and_loads_back(tmp_path):
    spec = write_json(tmp_path / "plant.json", {
        "seed": 2,
        "docs_per_window": 20,
        "windows": [{"start": "2021-01-01", "end": "2021-02-01"}, {"start": "2021-02-01", "end": "2021-03-01"}],
        "communities": [{"name": "eu", "members": ["café", "naïve", "über"], "rate": 1.0}],
    })
    out = synth_into(tmp_path, spec, "data")
    written = (out / "lexicon.json").read_bytes()
    assert "café".encode("utf-8") in written and b"\\u" not in written
    truth = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
    lexicon = compile_lexicon(out / "lexicon.json")
    assert [(e.canonical, e.patterns) for e in lexicon.entries] == [
        (term, (re.escape(term),)) for term in sorted(truth["assignments"][0])
    ]
    assert lexicon.canonical_terms == {"café", "naïve", "über"}


def test_synth_seed_override_and_text_mode(tmp_path):
    spec = two_window_spec(tmp_path)
    base = synth_into(tmp_path, spec, "base")
    reseeded = tmp_path / "reseeded"
    assert main(["synth", "--plant-spec", spec, "--seed", "99", "--out", str(reseeded)]) == 0
    assert (reseeded / "corpus.jsonl").read_text(encoding="utf-8") != (base / "corpus.jsonl").read_text(encoding="utf-8")

    texted = tmp_path / "texted"
    assert main(["synth", "--plant-spec", spec, "--with-text", "--out", str(texted)]) == 0
    first = json.loads((texted / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert first["tags"] == []
    assert first["text"].startswith("This note covers ")


# Each config error, by the full message it prints; CONFIG stands for the
# config file's path. A file value is checked as it is read, by its setting's
# rule, so its message is a flag's with the file in front. A null lexicon is
# that setting's default, no lexicon, so that row ends like a run without
# --lexicon, after --out is created; the refused run removes it again.
_CONFIG_FILE_ERRORS = [
    ({"field": "title"}, "CONFIG: field must be one of ('text', 'tags', 'both'), got 'title'"),
    ({"pairs": "tag-tag"}, "CONFIG: pairs must be one of ('all', 'tech-tag'), got 'tag-tag'"),
    ({"measure": "cosine"}, "CONFIG: measure must be one of ('overlap_target', 'jaccard'), got 'cosine'"),
    ({"top_n": 0}, "CONFIG: top_n must be an integer >= 1, got 0"),
    ({"tau": 1}, "CONFIG: tau must lie in (0, 1), got 1"),
    ({"tau": 0.0}, "CONFIG: tau must lie in (0, 1), got 0.0"),
    ({"resolution": 0}, "CONFIG: resolution must be positive and finite, got 0"),
    ({"resolution": -1.5}, "CONFIG: resolution must be positive and finite, got -1.5"),
    ({"resolution": math.inf}, "CONFIG: resolution must be positive and finite, got inf"),
    (["tau", 0.5], "CONFIG: config must be a flat JSON object"),
    ({"tau": "0.5"}, "CONFIG: tau must lie in (0, 1), got '0.5'"),
    ({"resolution": True}, "CONFIG: resolution must be positive and finite, got True"),
    ({"top_n": 2.5}, "CONFIG: top_n must be an integer >= 1, got 2.5"),
    ({"top_n": False}, "CONFIG: top_n must be an integer >= 1, got False"),
    ({"field": 1}, "CONFIG: field must be one of ('text', 'tags', 'both'), got 1"),
    ({"lexicon": None}, "a lexicon is required: pass --lexicon or set 'lexicon' in the config file"),
    ({"out": ["o"]}, "CONFIG: out must be a string, got ['o']"),
    ({"weighted_mean": 1}, "CONFIG: weighted_mean must be a boolean, got 1"),
    ({"bogus": 1}, "CONFIG: unknown config key 'bogus'"),
]

_COMPARE_ARGS = ["compare", "--corpus", "c.jsonl", "--window-t", "2021-01-01:2021-02-01",
                 "--window-t1", "2021-02-01:2021-03-01"]


@pytest.mark.parametrize("payload,message", _CONFIG_FILE_ERRORS, ids=[
    ",".join(f"{k}={v!r}" for k, v in p.items()) if isinstance(p, dict) else "array" for p, _ in _CONFIG_FILE_ERRORS
])
def test_config_file_errors_exit_2_with_their_message(tmp_path, capsys, payload, message):
    config = write_json(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    assert main([*_COMPARE_ARGS, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"techflux config: {message.replace('CONFIG', config)}\n"
    assert not out.exists()


def _synth_compare_argv(tmp_path):
    """compare over a two-window synth corpus with its lexicon, without --out."""
    data = synth_into(tmp_path, two_window_spec(tmp_path), "data")
    return ["compare", "--corpus", str(data / "corpus.jsonl"), "--lexicon", str(data / "lexicon.json"),
            "--window-t", "2021-01-01:2021-02-01", "--window-t1", "2021-02-01:2021-03-01"]


def test_a_null_lexicon_in_a_config_file_leaves_it_to_the_flag(tmp_path):
    config = write_json(tmp_path / "config.json", {"lexicon": None})
    out = tmp_path / "out"
    assert main(_synth_compare_argv(tmp_path) + ["--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["events"]


@pytest.mark.parametrize("number,flag", [(1, "1.0"), (2, "2.0")])
def test_an_integer_resolution_in_a_config_file_writes_what_its_flag_writes(tmp_path, number, flag):
    config = write_json(tmp_path / "config.json", {"resolution": number})
    argv = _synth_compare_argv(tmp_path)
    assert main(argv + ["--config", config, "--out", str(tmp_path / "file")]) == 0
    assert main(argv + ["--resolution", flag, "--out", str(tmp_path / "flag")]) == 0
    written = [{p.name: p.read_bytes() for p in (tmp_path / run).iterdir()} for run in ("file", "flag")]
    assert len(written[0]) == 9 and written[0] == written[1]


_HUGE = "9" * 5000  # more digits than Python reads into an int by default (4,300)
_OVER_FLOAT = "1" + "0" * 400  # an integer no float holds
_PLANT = json.dumps({"seed": 1, "docs_per_window": 2, "noise_rate": 0.0,
                     "windows": [{"start": "2021-01-01", "end": "2021-02-01"}, {"start": "2021-02-01", "end": "2021-03-01"}],
                     "communities": [{"name": "c", "size": 3, "rate": 0.5}],
                     "events": [{"kind": "persist", "pair": 0, "sources": ["c"], "mixing": 0.5}]})

# (the file written, its text, the message naming the file as FILE)
_HUGE_NUMBERS = {
    "config": ("config.json", f'{{"top_n": {_HUGE}}}', "config: config file FILE: invalid JSON (integer too long)"),
    "config-float": ("config.json", f'{{"resolution": {_OVER_FLOAT}}}',
                     f"config: FILE: resolution must be positive and finite, got {_OVER_FLOAT}"),
    "lexicon": ("lexicon.json", f'[{{"canonical": "a", "patterns": ["a"], "n": {_HUGE}}}]',
                "lexicon: lexicon file FILE: invalid JSON (integer too long)"),
    "windows": ("windows.json", f'[{{"start": "2021-01-01", "end": "2021-02-01", "n": {_HUGE}}}]',
                "corpus: windows file FILE: invalid JSON (integer too long)"),
    "corpus": ("corpus.jsonl", f'{{"id": "a", "date": "2021-01-05", "tags": ["a", "b"]}}\n{{"id": "b", "n": {_HUGE}}}\n',
               "corpus: corpus.jsonl line 2: invalid JSON (integer too long)"),
    "plant-spec": ("plant.json", _PLANT.replace('"seed": 1', f'"seed": {_HUGE}'),
                   "synth: plant spec FILE: invalid JSON (integer too long)"),
    "rate": ("plant.json", _PLANT.replace('"rate": 0.5', f'"rate": {_OVER_FLOAT}'),
             "synth: FILE: community 'c' needs a rate in (0, 1]"),
    "mixing": ("plant.json", _PLANT.replace('"mixing": 0.5', f'"mixing": {_OVER_FLOAT}'),
               f"synth: FILE event 0: mixing must lie in [0, 1], got {_OVER_FLOAT}"),
    "noise_rate": ("plant.json", _PLANT.replace('"noise_rate": 0.0', f'"noise_rate": {_OVER_FLOAT}'),
                   "synth: FILE: noise_rate must lie in [0, 1)"),
}


@pytest.mark.parametrize("case", _HUGE_NUMBERS)
def test_a_number_too_large_to_read_exits_2_naming_its_file(tmp_path, capsys, case):
    name, text, message = _HUGE_NUMBERS[case]
    files = {"config.json": "{}", "lexicon.json": '[{"canonical": "a", "patterns": ["a"]}]',
             "windows.json": json.dumps([{"start": f"2021-0{m}-01", "end": f"2021-0{m + 1}-01"} for m in range(1, 8)]),
             "corpus.jsonl": '{"id": "a", "date": "2021-01-05", "tags": ["a", "b"]}\n', "plant.json": _PLANT, name: text}
    for file, content in files.items():
        (tmp_path / file).write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    if name == "plant.json":
        argv = ["synth", "--plant-spec", str(tmp_path / name), "--out", str(out)]
    else:
        argv = ["series", "--corpus", str(tmp_path / "corpus.jsonl"), "--windows", str(tmp_path / "windows.json"),
                "--lexicon", str(tmp_path / "lexicon.json"), "--config", str(tmp_path / "config.json"),
                "--breakpoint", "3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"techflux {message.replace('FILE', str(tmp_path / name))}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,message", [
    (["--top-n", "0"], "top_n must be an integer >= 1, got 0"),
    (["--tau", "1"], "tau must lie in (0, 1), got 1.0"),
    (["--resolution", "0"], "resolution must be positive and finite, got 0.0"),
    (["--resolution", "1e999"], "resolution must be positive and finite, got inf"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_setting_flag_errors_exit_2_with_their_message(tmp_path, capsys, flag, message):
    out = tmp_path / "out"
    assert main([*_COMPARE_ARGS, *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"techflux config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("function,settings", [
    (build_cooccurrence, ("field", "pairs")),
    (term_trend, ("field",)),
    (transition_report, ("tau", "measure")),
    (similarity_matrix, ("measure",)),
    (louvain, ("resolution",)),
], ids=lambda v: v.__name__ if callable(v) else ",".join(v))
def test_library_defaults_are_the_config_defaults(function, settings):
    parameters = inspect.signature(function).parameters
    assert {name: parameters[name].default for name in settings} == {
        name: getattr(PipelineConfig(), name) for name in settings
    }


def test_config_checks_a_library_caller_meets():
    # the config file's type checks stop these before PipelineConfig sees them
    with pytest.raises(ConfigError, match=re.escape("top_n must be an integer >= 1, got 2.0")):
        PipelineConfig(top_n=2.0)
    with pytest.raises(ConfigError, match=re.escape("top_n must be an integer >= 1, got True")):
        PipelineConfig(top_n=True)
    with pytest.raises(ConfigError, match=re.escape("weighted_mean must be a boolean, got 1")):
        PipelineConfig(weighted_mean=1)
    with pytest.raises(ConfigError, match=re.escape("unknown config field 'bogus'")):
        build_config({"bogus": 1})


@pytest.mark.parametrize("values,message", [
    ({"tau": "0.5"}, "tau must lie in (0, 1), got '0.5'"),
    ({"resolution": None}, "resolution must be positive and finite, got None"),
    ({"resolution": True}, "resolution must be positive and finite, got True"),
    ({"lexicon": 5}, "lexicon must be a string, got 5"),
    ({"out": 5}, "out must be a string, got 5"),
    ({"field": 5}, "field must be one of ('text', 'tags', 'both'), got 5"),
    ({"weighted_mean": None}, "weighted_mean must be a boolean, got None"),
])
def test_config_checks_every_setting_type(values, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        PipelineConfig(**values)


class _Unreadable:
    """An input whose reading fails the test: the settings are checked first."""

    def __getattr__(self, name):
        raise AssertionError(f"input read (.{name}) before the settings were checked")


_UNREAD = _Unreadable()

# (entry point, its error class, the setting it checks, a call with that setting)
_LIBRARY_SETTINGS = [
    ("build_cooccurrence", GraphError, "field", lambda v: build_cooccurrence(_UNREAD, _UNREAD, field=v)),
    ("build_cooccurrence", GraphError, "pairs", lambda v: build_cooccurrence(_UNREAD, _UNREAD, pairs=v)),
    ("build_cooccurrence", GraphError, "top_n", lambda v: build_cooccurrence(_UNREAD, _UNREAD, top_n=v)),
    ("top_n_filter", GraphError, "top_n", lambda v: top_n_filter(_UNREAD, v)),
    ("louvain", CommunityError, "resolution", lambda v: louvain(_UNREAD, resolution=v)),
    ("similarity_matrix", TransitionError, "measure", lambda v: similarity_matrix(_UNREAD, _UNREAD, measure=v)),
    ("classify_events", TransitionError, "tau", lambda v: classify_events(_UNREAD, v)),
    ("term_trend", StatsError, "field", lambda v: term_trend(_UNREAD, _UNREAD, [], "year", field=v)),
]

_BAD_SETTING_VALUES = {
    "field": ["title", 5, None],
    "pairs": ["tag-tag", None],
    "top_n": [0, -3, 2.0, True, "5"],
    "measure": ["cosine", 5, None],
    "tau": [0.0, 1, "0.5", None, math.nan],
    "resolution": [0, -1.5, True, None, "1", math.inf],
}


@pytest.mark.parametrize("entry,error,name,call,value", [
    pytest.param(entry, error, name, call, value, id=f"{entry}-{name}={value!r}")
    for entry, error, name, call in _LIBRARY_SETTINGS
    for value in _BAD_SETTING_VALUES[name]
])
def test_library_entry_points_check_settings_in_the_config_words(entry, error, name, call, value):
    with pytest.raises(ConfigError) as expected:
        PipelineConfig(**{name: value})
    with pytest.raises(error) as raised:
        call(value)
    assert type(raised.value) is error
    assert str(raised.value) == str(expected.value)


def test_config_takes_an_int_for_a_float_and_no_lexicon():
    config = PipelineConfig(lexicon=None, resolution=2, tau=0.5)
    assert (config.lexicon, config.resolution) == (None, 2)


# What --help prints for each setting flag; the help layout differs between
# Python versions, so the test compares with whitespace collapsed.
_SETTING_HELP = {
    "lexicon": "--lexicon LEXICON term lexicon JSON file",
    "field": "--field {text,tags,both} where terms come from (default both)",
    "pairs": "--pairs {all,tech-tag} which co-occurring pairs become edges (default all)",
    "top_n": "--top-n TOP_N keep the N most frequent nodes (default 100)",
    "measure": "--measure {overlap_target,jaccard} cluster similarity measure (default overlap_target)",
    "tau": "--tau TAU event threshold in (0,1) (default 0.1)",
    "resolution": "--resolution RESOLUTION clustering resolution (default 1.0)",
    "weighted_mean": "--weighted-mean weight cluster indices by cluster size",
    "out": "--out OUT output directory (default .)",
}


_SETTINGS_READ = {
    "compare": ["lexicon", "field", "pairs", "top_n", "measure", "tau", "resolution", "out"],
    "series": ["lexicon", "field", "pairs", "top_n", "resolution", "weighted_mean", "out"],
    "trend": ["lexicon", "field", "out"],
    "synth": ["out"],
    "cluster": ["lexicon", "field", "pairs", "top_n", "resolution", "out"],
}


@pytest.mark.parametrize("command", _SETTINGS_READ)
def test_help_lists_each_setting_with_its_choices_and_default(capsys, command):
    settings = _SETTINGS_READ[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in settings:
        assert _SETTING_HELP[name] in text
    for name in _SETTING_HELP.keys() - set(settings):
        assert "--" + name.replace("_", "-") + " " not in text
    assert ("--config CONFIG flat JSON config file; flags override it" in text) == (command != "synth")

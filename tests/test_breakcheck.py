import csv
import datetime as dt
import json
import math
import random
import os
import subprocess
import sys
import time

import mpmath
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux import breakcheck
from techflux.breakcheck import (
    TREND_PERIODS,
    BreakTestResult,
    IndexSeries,
    SeriesPoint,
    chow_test,
    export_break_json,
    export_series_csv,
    export_trend_csv,
    f_survival,
    format_p_value,
    index_series,
    ols_fit,
    pearson,
    regularized_incomplete_beta,
    term_trend,
    trend_correlations,
)
from techflux.cli import main
from techflux.config import PipelineConfig
from techflux.corpus import Corpus, Document, TimeWindow, save_corpus, window_filter
from techflux.errors import StatsError
from techflux.cograph import build_cooccurrence
from techflux.lexicon import lexicon_from_records
from techflux.synth import generate_corpus, lexicon_records, plant_spec_from_records

from conftest import package_env
from forkchecks import FORK_WARNING, ForkFallbacks, force_fork, refuse_fork
from oracles import chow_reference, ols_ssr_reference, term_trend_reference

EMPTY_LEX = lexicon_from_records([])

mpmath.mp.dps = 30


def tag_doc(doc_id, date, *tags):
    return Document(id=doc_id, date=date, tags=tuple(tags))


# ---------------------------------------------------------------- incomplete beta


def test_incbeta_matches_mpmath_grid():
    params = [0.5, 1.0, 2.5, 5.0, 17.5, 40.0]
    xs = [0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99]
    for a in params:
        for b in params:
            for x in xs:
                want = float(mpmath.betainc(a, b, 0, x, regularized=True))
                got = regularized_incomplete_beta(a, b, x)
                assert abs(got - want) < 1e-10, (a, b, x)


def test_incbeta_symmetry_and_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    assert abs(regularized_incomplete_beta(1.0, 1.0, 0.5) - 0.5) < 1e-14
    for x in (0.05, 0.3, 0.62, 0.9):
        assert abs(regularized_incomplete_beta(1.0, 1.0, x) - x) < 1e-14
        direct = regularized_incomplete_beta(3.5, 1.25, x)
        mirrored = 1.0 - regularized_incomplete_beta(1.25, 3.5, 1.0 - x)
        assert abs(direct - mirrored) < 1e-12


def test_incbeta_domain_errors():
    with pytest.raises(StatsError, match="positive"):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(StatsError, match="positive"):
        regularized_incomplete_beta(1.0, -2.0, 0.5)
    with pytest.raises(StatsError, match=r"\[0, 1\]"):
        regularized_incomplete_beta(1.0, 1.0, -0.1)
    with pytest.raises(StatsError, match=r"\[0, 1\]"):
        regularized_incomplete_beta(1.0, 1.0, 1.1)


def test_f_survival_matches_scipy():
    for d1, d2 in ((1.0, 5.0), (2.0, 6.0), (2.0, 40.0), (5.0, 2.0), (10.0, 10.0)):
        for f in (0.1, 0.5, 1.0, 2.5, 7.0, 30.0):
            want = float(scipy.stats.f.sf(f, d1, d2))
            got = f_survival(f, d1, d2)
            assert abs(got - want) < 1e-10, (f, d1, d2)


def test_f_survival_edges_and_monotonicity():
    assert f_survival(0.0, 2.0, 6.0) == 1.0
    assert f_survival(math.inf, 2.0, 6.0) == 0.0
    values = [f_survival(f, 2.0, 6.0) for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert values == sorted(values, reverse=True)
    with pytest.raises(StatsError, match="degrees of freedom"):
        f_survival(1.0, 0.0, 5.0)
    with pytest.raises(StatsError, match="nonnegative"):
        f_survival(-1.0, 2.0, 5.0)


# ---------------------------------------------------------------- least squares


def test_ols_exact_line():
    fit = ols_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert abs(fit.slope - 2.0) < 1e-14
    assert abs(fit.intercept - 1.0) < 1e-14
    assert fit.ssr < 1e-24


def test_ols_three_point_values():
    fit = ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    assert abs(fit.slope - 1.5) < 1e-12
    assert abs(fit.intercept - (-1.0 / 6.0)) < 1e-12
    assert abs(fit.ssr - 1.0 / 6.0) < 1e-12


def test_ols_constant_series():
    fit = ols_fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert fit.slope == 0.0
    assert fit.intercept == 4.0
    assert fit.ssr == 0.0


def test_ols_errors():
    with pytest.raises(StatsError, match="lengths differ"):
        ols_fit([0.0, 1.0, 2.0], [0.0, 1.0])
    with pytest.raises(StatsError, match="at least 3"):
        ols_fit([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(StatsError, match="all equal"):
        ols_fit([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])


def test_ols_matches_lstsq():
    rng = random.Random(123)
    for _ in range(20):
        n = rng.randint(5, 40)
        x = [float(i) + rng.random() for i in range(n)]
        y = [0.7 - 0.3 * v + rng.gauss(0.0, 1.0) for v in x]
        fit = ols_fit(x, y)
        want = ols_ssr_reference(x, y)
        assert abs(fit.ssr - want) < 1e-9 * (1.0 + want)


# ---------------------------------------------------------------- break test


def test_chow_pure_line_no_break():
    x = [float(i) for i in range(10)]
    y = [0.25 + 0.05 * v for v in x]
    result = chow_test(x, y, 5)
    assert result.f_statistic == 0.0
    assert result.p_value == 1.0


def test_chow_step_series_exact_segments():
    x = [float(i) for i in range(10)]
    y = [0.0] * 5 + [5.0] * 5
    result = chow_test(x, y, 5)
    assert math.isinf(result.f_statistic)
    assert result.p_value == 0.0
    assert (result.n1, result.n2, result.k) == (5, 5, 2)


def test_chow_matches_reference_on_noisy_series():
    for seed in range(10):
        rng = random.Random(seed)
        x = [float(i) for i in range(14)]
        y = [0.3 + 0.02 * v + rng.gauss(0.0, 0.05) for v in x]
        for i in range(7, 14):
            y[i] += 0.5
        result = chow_test(x, y, 7)
        want_f, want_p = chow_reference(x, y, 7)
        assert abs(result.f_statistic - want_f) <= 1e-6 * abs(want_f)
        assert abs(result.p_value - want_p) <= 1e-6 * max(want_p, 1e-300)


def test_chow_invariant_under_affine_x():
    rng = random.Random(7)
    x = [float(i) for i in range(12)]
    y = [0.1 * v + rng.gauss(0.0, 0.2) for v in x]
    base = chow_test(x, y, 6)
    shifted = chow_test([3.5 * v - 11.0 for v in x], y, 6)
    assert abs(base.f_statistic - shifted.f_statistic) <= 1e-9 * base.f_statistic


def test_chow_segment_size_errors():
    x = [float(i) for i in range(10)]
    y = [float(i % 3) for i in range(10)]
    with pytest.raises(StatsError, match="breakpoint 2 gives segments of 2 and 8"):
        chow_test(x, y, 2)
    with pytest.raises(StatsError, match="breakpoint 8 gives segments of 8 and 2"):
        chow_test(x, y, 8)
    with pytest.raises(StatsError, match="lengths differ"):
        chow_test(x, y[:-1], 5)


def test_format_p_value():
    assert format_p_value(0.5) == "0.5"
    assert format_p_value(0.012345) == "0.01235"
    assert format_p_value(1.234567e-05) == "1.235e-05"
    assert format_p_value(1e-12) == "1e-12"
    assert format_p_value(9.9e-13) == "<1e-12"
    assert format_p_value(0.0) == "<1e-12"


def test_break_json_representation(tmp_path):
    path = tmp_path / "break.json"
    step = chow_test([float(i) for i in range(10)], [0.0] * 5 + [5.0] * 5, 5)
    export_break_json(step, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["f_statistic"] == "inf"
    assert payload["p_value"] == 0.0
    finite = BreakTestResult(3.5, 0.0625, 4, 2, 4, 6)
    export_break_json(finite, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == {
        "f_statistic": 3.5,
        "p_value": 0.0625,
        "breakpoint_index": 4,
        "k": 2,
        "n1": 4,
        "n2": 6,
    }


# ---------------------------------------------------------------- index series

W1 = TimeWindow(dt.date(2020, 1, 1), dt.date(2020, 2, 1))
W2 = TimeWindow(dt.date(2020, 2, 1), dt.date(2020, 3, 1))
W3 = TimeWindow(dt.date(2020, 3, 1), dt.date(2020, 4, 1))


def month_docs(prefix, window, tag_groups):
    return [
        tag_doc(f"{prefix}-{i}", window.start, *tags)
        for i, tags in enumerate(tag_groups)
    ]


def test_series_point_validation():
    good = SeriesPoint(W1, 0.5, 0.5)
    with pytest.raises(StatsError, match="strictly increasing"):
        IndexSeries(points=(good, SeriesPoint(W1, 0.2, 0.8)))
    with pytest.raises(StatsError, match=r"out of \[0, 1\]"):
        IndexSeries(points=(SeriesPoint(W1, 1.5, 0.0),))
    series = IndexSeries(points=(good, SeriesPoint(W2, 0.25, 0.75)))
    assert series.ci_values() == [0.5, 0.25]
    assert series.ni_values() == [0.5, 0.75]


def test_index_series_stable_corpus_full_convergence():
    docs = []
    for window, prefix in ((W1, "a"), (W2, "b"), (W3, "c")):
        docs += month_docs(prefix, window, [("alpha", "beta"), ("beta", "gamma")])
    series = index_series(Corpus(tuple(docs)), EMPTY_LEX, [W1, W2, W3], PipelineConfig())
    assert len(series.points) == 2
    assert series.points[0].window == W2
    assert series.points[1].window == W3
    assert series.ci_values() == [1.0, 1.0]
    assert series.ni_values() == [0.0, 0.0]


def test_index_series_disjoint_vocab_full_novelty():
    docs = (
        month_docs("a", W1, [("p", "q")])
        + month_docs("b", W2, [("r", "s")])
        + month_docs("c", W3, [("t", "u")])
    )
    series = index_series(Corpus(tuple(docs)), EMPTY_LEX, [W1, W2, W3], PipelineConfig())
    assert series.ci_values() == [0.0, 0.0]
    assert series.ni_values() == [1.0, 1.0]


def test_index_series_weighted_mean():
    later = [("a", "b"), ("x", "y"), ("y", "z"), ("x", "z")]
    docs = (
        month_docs("a", W1, [("a", "b")])
        + month_docs("b", W2, later)
        + month_docs("c", W3, later)
    )
    corpus = Corpus(tuple(docs))
    plain = index_series(corpus, EMPTY_LEX, [W1, W2, W3], PipelineConfig())
    weighted = index_series(
        corpus, EMPTY_LEX, [W1, W2, W3], PipelineConfig(weighted_mean=True)
    )
    # clusters at the second window: {a,b} fully inherited, {x,y,z} all new
    assert abs(plain.points[0].mean_ci - 0.5) < 1e-12
    assert abs(weighted.points[0].mean_ci - 0.4) < 1e-12


def test_index_series_window_errors():
    docs = month_docs("a", W1, [("a", "b")]) + month_docs("b", W2, [("a", "b")])
    corpus = Corpus(tuple(docs))
    with pytest.raises(StatsError, match="at least 3 windows"):
        index_series(corpus, EMPTY_LEX, [W1, W2], PipelineConfig())
    with pytest.raises(StatsError, match="strictly increasing"):
        index_series(corpus, EMPTY_LEX, [W1, W1, W2], PipelineConfig())
    # third window holds only a single-tag document: no co-occurrence pairs
    lonely = docs + [tag_doc("c-0", W3.start, "solo")]
    with pytest.raises(StatsError, match=r"\[2020-03-01,2020-04-01\) produced an edgeless graph"):
        index_series(Corpus(tuple(lonely)), EMPTY_LEX, [W1, W2, W3], PipelineConfig())


def test_export_series_csv(tmp_path):
    series = IndexSeries(points=(SeriesPoint(W1, 0.5, 0.5), SeriesPoint(W2, 0.125, 0.875)))
    path = tmp_path / "series.csv"
    export_series_csv(series, path)
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["window_start", "window_end", "mean_ci", "mean_ni"]
    assert rows[1] == ["2020-01-01", "2020-02-01", "0.500000", "0.500000"]
    assert rows[2] == ["2020-02-01", "2020-03-01", "0.125000", "0.875000"]


# ---------------------------------------------------------------- the window fork


def _fork_input(with_text=False):
    """A planted corpus over 8 monthly windows, each tag graph of 72 nodes, its windows and its lexicon records."""
    spec = plant_spec_from_records({
        "seed": 11, "docs_per_window": 40, "noise_rate": 0.02,
        "windows": [{"start": f"2021-{m:02d}-01", "end": f"2021-{m + 1:02d}-01"} for m in range(1, 9)],
        "communities": [{"name": f"c{i}", "size": 9, "rate": 0.5} for i in range(8)],
        "events": [{"kind": "merge", "pair": 3, "sources": ["c0", "c1"], "targets": ["m"], "mixing": 1.0, "rate": 0.5}],
    })
    corpus, truth = generate_corpus(spec, with_text=with_text)
    return corpus, list(spec.windows), lexicon_records(truth)


FORK_CORPUS, FORK_WINDOWS, _ = _fork_input()
TAGS = PipelineConfig(field="tags")


def _window_arg(window):
    return f"{window.start.isoformat()}:{window.end.isoformat()}"


def _inputs_argv(tmp_path, corpus, windows=(), lexicon=()):
    """--corpus and --lexicon of corpus and lexicon written to tmp_path, with windows written to windows.json."""
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    (tmp_path / "windows.json").write_text(json.dumps([{"start": w.start.isoformat(), "end": w.end.isoformat()} for w in windows]), encoding="utf-8")
    (tmp_path / "lexicon.json").write_text(json.dumps(list(lexicon)), encoding="utf-8")
    return ["--corpus", str(tmp_path / "corpus.jsonl"), "--lexicon", str(tmp_path / "lexicon.json")]


def _series_argv(tmp_path, corpus, windows, out):
    """`techflux series` over tags on corpus and windows written to tmp_path, with an empty lexicon."""
    return ["series", *_inputs_argv(tmp_path, corpus, windows), "--windows", str(tmp_path / "windows.json"),
            "--field", "tags", "--breakpoint", "3", "--out", str(out)]


def _compare_argv(tmp_path, corpus, window_t, window_t1, out, field="tags", lexicon=()):
    """`techflux compare` of two windows of corpus written to tmp_path."""
    return ["compare", *_inputs_argv(tmp_path, corpus, lexicon=lexicon), "--window-t", _window_arg(window_t),
            "--window-t1", _window_arg(window_t1), "--field", field, "--out", str(out)]


def _counting_beside(monkeypatch):
    """Run beside's two calls in this process; return the list of its calls."""
    calls = []

    def counting_beside(here, there):
        calls.append(there)
        return here(), there()

    monkeypatch.setattr(breakcheck, "beside", counting_beside)
    return calls


@pytest.mark.parametrize("reverse", [True, False])
def test_the_window_fork_counts_from_the_earliest_start_in_any_window_order(monkeypatch, reverse):
    calls = _counting_beside(monkeypatch)
    # compare's windows may come in any order and overlap; the documents on
    # the earliest start, W1's, are held whether W1 comes first or last
    windows = [TimeWindow(W2.start, W3.end), W1][::-1 if reverse else 1]
    docs = [tag_doc(f"d-{i}", (W1.start, W3.start)[i % 2], "a", "b") for i in range(4)]
    corpus = Corpus(tuple(docs))
    clustered = breakcheck.cluster_windows(corpus, EMPTY_LEX, windows, PipelineConfig())
    assert len(calls) == 1
    assert repr(clustered) == repr([breakcheck.cluster_window(corpus, EMPTY_LEX, w, PipelineConfig()) for w in windows])


class TestForkFallbacks(ForkFallbacks):
    """index_series: the windows in two forked halves."""

    def run(self):
        return repr(index_series(FORK_CORPUS, EMPTY_LEX, FORK_WINDOWS, TAGS))

    def in_process(self):
        with pytest.MonkeyPatch.context() as patch:
            refuse_fork(patch)
            return self.run()

    def hang_child_and_interrupt_parent(self, monkeypatch):
        def interrupted_cluster_window(corpus, lexicon, window, config, graphml):
            if window in FORK_WINDOWS[len(FORK_WINDOWS) // 2:]:
                time.sleep(60)  # the child: only a kill ends it in time
            raise KeyboardInterrupt

        monkeypatch.setattr(breakcheck, "cluster_window", interrupted_cluster_window)


class TestCompareForkFallbacks(ForkFallbacks):
    """cluster_windows over compare's two windows: window t here, window t+1 in the child."""

    windows = FORK_WINDOWS[:2]

    def run(self):
        return repr(breakcheck.cluster_windows(FORK_CORPUS, EMPTY_LEX, self.windows, TAGS))

    def in_process(self):
        with pytest.MonkeyPatch.context() as patch:
            refuse_fork(patch)
            return self.run()

    def hang_child_and_interrupt_parent(self, monkeypatch):
        def interrupted_cluster_window(corpus, lexicon, window, config, graphml):
            if window == self.windows[1]:
                time.sleep(60)  # the child: only a kill ends it in time
            raise KeyboardInterrupt

        monkeypatch.setattr(breakcheck, "cluster_window", interrupted_cluster_window)


# Runs the techflux CLI (argv from the second argument on) in a fresh
# interpreter, where numpy is not loaded, and prints the number of forks made,
# the repr of every index series and of every partition pair compared, and
# this process's pid; each lexicon scan built writes the pid that built it to
# stderr, and each CPU affinity a child sets goes there too. The first
# argument sets the fork: "forked" as forked.beside decides, "refused" never,
# or "threaded" with a second thread alive.
_CLI_PROBE = """
import json, os, sys, threading
from techflux import breakcheck, cli, forked, lexicon

forks = 0
real_fork = os.fork

def counting_fork():
    global forks
    forks += 1
    return real_fork()

os.fork = counting_fork
series, partitions = [], []
real_series, real_report, real_trie = breakcheck.index_series, breakcheck.transition_report, lexicon._trie_regex

def recording_series(*args):
    result = real_series(*args)
    series.append(repr(result))
    return result

def recording_report(part_t, part_t1, **options):
    partitions.append([repr(part_t), repr(part_t1)])
    return real_report(part_t, part_t1, **options)

def reporting_trie(strings, depth=0):
    if depth == 0:
        # a forked child exits without flushing, so write unbuffered
        os.write(2, b"scan %d\\n" % os.getpid())
    return real_trie(strings, depth)

real_setaffinity = os.sched_setaffinity

def reporting_setaffinity(pid, cpus):
    os.write(2, ("affinity %s\\n" % json.dumps(sorted(cpus))).encode())
    real_setaffinity(pid, cpus)

os.sched_setaffinity = reporting_setaffinity

breakcheck.index_series, lexicon._trie_regex = recording_series, reporting_trie
breakcheck.transition_report = cli.transition_report = recording_report
mode = sys.argv[1]
if mode == "refused":
    forked._single_threaded = lambda: False
release = threading.Event()
if mode == "threaded":
    threading.Thread(target=release.wait).start()
code = cli.main(sys.argv[2:])
release.set()
print(json.dumps({"code": code, "forks": forks, "numpy": "numpy" in sys.modules, "pid": os.getpid(),
                  "series": series, "partitions": partitions}))
"""


def _probe(tmp_path, modes, argv):
    """Per mode: the probe's report, with the pids that built a lexicon scan and the CPU sets children
    moved to, and the files argv(out) wrote."""
    reports, outputs = {}, {}
    for mode in modes:
        result = subprocess.run([sys.executable, "-c", _CLI_PROBE, mode, *argv(tmp_path / mode)],
                                env=package_env(), capture_output=True, encoding="utf-8", timeout=300)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["code"] == 0, result.stderr
        assert not report["numpy"]
        report["scans"] = [int(line.split()[1]) for line in result.stderr.splitlines() if line.startswith("scan ")]
        report["affinities"] = [set(json.loads(line[len("affinity "):])) for line in result.stderr.splitlines()
                                if line.startswith("affinity ")]
        reports[mode] = report
        outputs[mode] = {path.name: path.read_bytes() for path in (tmp_path / mode).iterdir()}
    return reports, outputs


def _graphs(windows):
    return [build_cooccurrence(window_filter(FORK_CORPUS, w), EMPTY_LEX, field="tags") for w in windows]


def test_forked_windows_match_the_refused_path_in_a_fresh_process(tmp_path):
    assert all(len(graph.nodes) >= 64 for graph in _graphs(FORK_WINDOWS))
    reports, outputs = _probe(tmp_path, ("forked", "refused"),
                              lambda out: _series_argv(tmp_path, FORK_CORPUS, FORK_WINDOWS, out))
    forked, refused = reports["forked"], reports["refused"]
    # one fork for the windows, and none inside Louvain, whatever the size of its graph
    assert forked["forks"] == 1
    assert refused["forks"] == 0
    # the child leaves its parent's CPU when it may run elsewhere
    allowed = os.sched_getaffinity(0)
    assert len(forked["affinities"]) == (1 if len(allowed) > 1 else 0)
    assert all(cpus < allowed and len(cpus) == len(allowed) - 1 for cpus in forked["affinities"])
    assert len(forked["series"]) == 1 and len(forked["partitions"]) == len(FORK_WINDOWS) - 1
    assert forked["series"] == refused["series"]
    assert forked["partitions"] == refused["partitions"]
    assert forked["series"][0] == repr(index_series(FORK_CORPUS, EMPTY_LEX, FORK_WINDOWS, TAGS))
    assert sorted(outputs["forked"]) == ["break_ci.json", "break_ni.json", "series.csv"]
    assert outputs["forked"] == outputs["refused"]


def test_forked_compare_matches_the_refused_path_in_a_fresh_process(tmp_path):
    windows = FORK_WINDOWS[:2]
    reports, outputs = _probe(tmp_path, ("forked", "refused"),
                              lambda out: _compare_argv(tmp_path, FORK_CORPUS, *windows, out))
    forked, refused = reports["forked"], reports["refused"]
    assert forked["forks"] == 1
    assert refused["forks"] == 0
    assert forked["partitions"] == refused["partitions"]
    with pytest.MonkeyPatch.context() as patch:
        refuse_fork(patch)
        here = breakcheck.cluster_windows(FORK_CORPUS, EMPTY_LEX, windows, TAGS)
    assert forked["partitions"] == [[repr(part) for _, part in here]]
    assert len(outputs["forked"]) == 9
    assert outputs["forked"] == outputs["refused"]


def test_cluster_forks_none_in_a_fresh_process(tmp_path):
    window = FORK_WINDOWS[0]
    assert len(_graphs([window])[0].nodes) >= 64
    argv = ["cluster", *_inputs_argv(tmp_path, FORK_CORPUS), "--window", _window_arg(window), "--field", "tags"]
    reports, outputs = _probe(tmp_path, ("forked",), lambda out: [*argv, "--out", str(out)])
    assert reports["forked"]["forks"] == 0
    assert sorted(outputs["forked"]) == ["graph.graphml", "graph.json", "partition.json"]


# one document per window, and a plant spec of one document
ONE_PER_WINDOW = Corpus(tuple(tag_doc(f"w{i}", w.start, "a", "b", f"c{i % 3}") for i, w in enumerate(FORK_WINDOWS)))
ONE_DOCUMENT_SPEC = {"seed": 5, "docs_per_window": 1, "noise_rate": 0.0,
                     "windows": [{"start": "2021-01-01", "end": "2021-02-01"}],
                     "communities": [{"name": "c", "size": 3, "rate": 0.5}], "events": []}


def _smallest_argv(tmp_path, command):
    """argv(out) of command on the smallest input it takes."""
    if command == "series":
        return lambda out: _series_argv(tmp_path, ONE_PER_WINDOW, FORK_WINDOWS, out)
    if command == "compare":
        return lambda out: _compare_argv(tmp_path, ONE_PER_WINDOW, *FORK_WINDOWS[:2], out)
    if command == "synth":
        (tmp_path / "plant.json").write_text(json.dumps(ONE_DOCUMENT_SPEC), encoding="utf-8")
        return lambda out: ["synth", "--plant-spec", str(tmp_path / "plant.json"), "--out", str(out)]
    one = Corpus(ONE_PER_WINDOW.documents[:1])
    if command == "cluster":
        return lambda out: ["cluster", *_inputs_argv(tmp_path, one), "--window", _window_arg(FORK_WINDOWS[0]),
                            "--field", "tags", "--out", str(out)]
    (tmp_path / "terms.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "lexicon.json").write_text(json.dumps([{"canonical": "a", "patterns": ["a"]}]), encoding="utf-8")
    save_corpus(one, tmp_path / "corpus.jsonl")
    return lambda out: ["trend", "--corpus", f"x={tmp_path / 'corpus.jsonl'}", "--corpus", f"y={tmp_path / 'corpus.jsonl'}",
                        "--terms", str(tmp_path / "terms.txt"), "--lexicon", str(tmp_path / "lexicon.json"), "--out", str(out)]


@pytest.mark.parametrize("command", ["series", "compare", "synth"])
def test_the_smallest_input_forks_once_and_writes_the_refused_bytes(tmp_path, command):
    reports, outputs = _probe(tmp_path, ("forked", "refused"), _smallest_argv(tmp_path, command))
    assert reports["forked"]["forks"] == 1
    assert reports["refused"]["forks"] == 0
    assert reports["forked"]["series"] == reports["refused"]["series"]
    assert reports["forked"]["partitions"] == reports["refused"]["partitions"]
    assert outputs["forked"] and outputs["forked"] == outputs["refused"]


@pytest.mark.parametrize("command", ["cluster", "trend"])
def test_the_smallest_input_forks_none(tmp_path, command):
    reports, outputs = _probe(tmp_path, ("forked",), _smallest_argv(tmp_path, command))
    assert reports["forked"]["forks"] == 0
    assert outputs["forked"]


def test_a_second_thread_keeps_every_window_in_process(tmp_path):
    reports, outputs = _probe(tmp_path, ("threaded", "refused"),
                              lambda out: _series_argv(tmp_path, FORK_CORPUS, FORK_WINDOWS, out))
    assert reports["threaded"]["forks"] == 0
    assert reports["threaded"]["series"] == reports["refused"]["series"]
    assert outputs["threaded"] == outputs["refused"]


def test_compare_text_builds_the_lexicon_scan_once_before_the_window_fork(tmp_path):
    corpus, windows, lexicon = _fork_input(with_text=True)
    reports, outputs = _probe(tmp_path, ("forked", "refused"),
                              lambda out: _compare_argv(tmp_path, corpus, *windows[:2], out, field="text", lexicon=lexicon))
    forked = reports["forked"]
    assert forked["forks"] == 1
    # built by this process before the fork; the child inherits it
    assert forked["scans"] == [forked["pid"]]
    assert outputs["forked"] == outputs["refused"]


def _with_edgeless_windows(lonely, per_window=10):
    """per_window documents per window of FORK_WINDOWS; in the windows numbered in lonely each holds one tag."""
    docs = [tag_doc(f"w{i}-{j}", w.start, *(("solo",) if i in lonely else ("a", "b", f"c{j}")))
            for i, w in enumerate(FORK_WINDOWS) for j in range(per_window)]
    return Corpus(tuple(docs))


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("lonely", [(6,), (1,), (1, 6)], ids=["child-half", "parent-half", "both-halves"])
def test_an_edgeless_window_in_either_half_exits_2_naming_the_first(tmp_path, capsys, monkeypatch, lonely):
    argv = _series_argv(tmp_path, _with_edgeless_windows(lonely), FORK_WINDOWS, tmp_path / "out")
    forks = force_fork(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"techflux breakcheck: window {FORK_WINDOWS[lonely[0]].describe()} produced an edgeless graph\n"
    assert forks == [os.getpid()]
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("lonely", [(1,), (0,), (0, 1)], ids=["t1", "t", "both"])
def test_compare_names_an_edgeless_window_t_before_window_t1(tmp_path, capsys, monkeypatch, lonely):
    corpus = _with_edgeless_windows(lonely, per_window=30)
    argv = _compare_argv(tmp_path, corpus, *FORK_WINDOWS[:2], tmp_path / "out")
    forks = force_fork(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"techflux breakcheck: window {('t', 't+1')[lonely[0]]} produced an edgeless graph\n"
    assert forks == [os.getpid()]
    assert not list((tmp_path / "out").glob("*"))


def _counting(monkeypatch, name):
    """Count the calls of breakcheck's name, which still runs; return the list of their arguments."""
    calls, real = [], getattr(breakcheck, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(breakcheck, name, counting)
    return calls


EMPTY_2030 = TimeWindow(dt.date(2030, 1, 1), dt.date(2030, 2, 1))


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("corpus", [FORK_CORPUS, _with_edgeless_windows((1,))], ids=["planted", "edgeless-window-1"])
def test_an_empty_last_window_exits_2_before_any_graph_is_built(tmp_path, capsys, monkeypatch, corpus):
    # an empty window is refused before an earlier window that holds documents but gives an edgeless graph
    argv = _series_argv(tmp_path, corpus, FORK_WINDOWS[:-1] + [EMPTY_2030], tmp_path / "out")
    builds, louvains = _counting(monkeypatch, "build_cooccurrence"), _counting(monkeypatch, "louvain")
    forks = force_fork(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == "techflux breakcheck: window [2030-01-01,2030-02-01) holds no documents\n"
    assert (builds, louvains, forks) == ([], [], [])
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("empty", [(1,), (0,), (0, 1)], ids=["t1", "t", "both"])
def test_compare_names_an_empty_window_t_before_window_t1(tmp_path, capsys, monkeypatch, empty):
    windows = [TimeWindow(dt.date(1999, 1 + i, 1), dt.date(1999, 2 + i, 1)) if i in empty else w
               for i, w in enumerate(FORK_WINDOWS[:2])]
    argv = _compare_argv(tmp_path, FORK_CORPUS, *windows, tmp_path / "out")
    builds, forks = _counting(monkeypatch, "build_cooccurrence"), force_fork(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"techflux breakcheck: window {('t', 't+1')[empty[0]]} holds no documents\n"
    assert (builds, forks) == ([], [])
    assert not list((tmp_path / "out").glob("*"))


def _with_graphml_unsafe_names(names):
    """FORK_CORPUS plus, in each window numbered in names, 3 documents tagged with its name and one more tag."""
    docs = [tag_doc(f"bad{i}-{j}", FORK_WINDOWS[i].start, name, "ok") for i, name in names.items() for j in range(3)]
    return Corpus(FORK_CORPUS.documents + tuple(docs))


def _graphml_refusal(name):
    return f"techflux cograph: node {name!r}: U+{ord(name[3]):04X} is no XML 1.0 character, so GraphML cannot hold it\n"


@pytest.mark.parametrize("names,louvains", [({0: "bad\x01t"}, 0), ({1: "bad\x01t"}, 1), ({0: "bad\x01t", 1: "bad\x02t"}, 0)],
                         ids=["t", "t1", "both"])
def test_compare_refuses_a_graphml_unsafe_name_before_the_louvain_of_its_window(
        tmp_path, capsys, monkeypatch, names, louvains):
    argv = _compare_argv(tmp_path, _with_graphml_unsafe_names(names), *FORK_WINDOWS[:2], tmp_path / "out")
    calls = _counting(monkeypatch, "louvain")
    refuse_fork(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == _graphml_refusal(names[min(names)])
    assert len(calls) == louvains
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("names", [{1: "bad\x01t"}, {0: "bad\x01t", 1: "bad\x02t"}], ids=["t1", "both"])
def test_compare_names_the_graphml_unsafe_name_of_window_t_first_across_the_fork(tmp_path, capsys, monkeypatch, names):
    argv = _compare_argv(tmp_path, _with_graphml_unsafe_names(names), *FORK_WINDOWS[:2], tmp_path / "out")
    forks = force_fork(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == _graphml_refusal(names[min(names)])
    assert forks == [os.getpid()]
    assert not (tmp_path / "out").exists()


def test_cluster_refuses_a_graphml_unsafe_name_before_any_louvain(tmp_path, capsys, monkeypatch):
    argv = ["cluster", *_inputs_argv(tmp_path, _with_graphml_unsafe_names({3: "bad\x08t"})),
            "--window", _window_arg(FORK_WINDOWS[3]), "--field", "tags", "--out", str(tmp_path / "out")]
    calls = _counting(monkeypatch, "louvain")
    refuse_fork(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == _graphml_refusal("bad\x08t")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_series_accepts_a_name_that_graphml_cannot_hold(tmp_path, capsys):
    argv = _series_argv(tmp_path, _with_graphml_unsafe_names({0: "bad\x01t", 5: "bad\x02t"}), FORK_WINDOWS,
                        tmp_path / "out")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "series.csv").exists()


# ---------------------------------------------------------------- trends


TREND_LEX = lexicon_from_records(
    [{"canonical": "quantum computing", "patterns": [r"quantum comput(ing|ers?)"]}]
)


def test_term_trend_counts_by_period():
    docs_a = (
        Document(id="a1", date=dt.date(2019, 2, 10), tags=("quantum computing",)),
        Document(id="a2", date=dt.date(2019, 7, 4), text="Quantum computers arrive."),
        Document(id="a3", date=dt.date(2019, 8, 1), tags=("other",)),
        Document(id="a4", date=dt.date(2020, 1, 15), tags=("quantum computing",)),
    )
    docs_b = (
        Document(id="b1", date=dt.date(2019, 3, 1), text="nothing relevant"),
        Document(id="b2", date=dt.date(2020, 2, 2), text="quantum computing at scale"),
    )
    corpora = [("news", Corpus(docs_a)), ("patents", Corpus(docs_b))]
    term = "quantum computing"
    by_year = term_trend(corpora, TREND_LEX, [term], "year")
    assert by_year == {term: {"news": {"2019": 2, "2020": 1}, "patents": {"2020": 1}}}
    by_quarter = term_trend(corpora, TREND_LEX, [term, term], "quarter")
    assert by_quarter[term]["news"] == {"2019Q1": 1, "2019Q3": 1, "2020Q1": 1}
    assert by_quarter[term]["patents"] == {"2020Q1": 1}
    assert term_trend(corpora, TREND_LEX, [term], "year", field="tags") == {
        term: {"news": {"2019": 1, "2020": 1}, "patents": {}}
    }
    assert term_trend(corpora, TREND_LEX, [term], "year", field="text") == {
        term: {"news": {"2019": 1}, "patents": {"2020": 1}}
    }


class _UnreadableCorpus:
    @property
    def documents(self):
        raise AssertionError("a document was read before the arguments were checked")


def test_term_trend_errors():
    corpora = [("x", _UnreadableCorpus())]
    with pytest.raises(StatsError, match="unknown term 'laser'"):
        term_trend(corpora, TREND_LEX, ["quantum computing", "laser"], "year")
    with pytest.raises(StatsError, match="period must be one of"):
        term_trend(corpora, TREND_LEX, ["quantum computing"], "decade")
    with pytest.raises(StatsError, match="field must be one of"):
        term_trend(corpora, TREND_LEX, ["quantum computing"], "year", field="title")
    with pytest.raises(StatsError, match="^duplicate corpus label 'x'$"):
        term_trend(corpora + [("y", _UnreadableCorpus())] + corpora, TREND_LEX, ["quantum computing"], "year")


# literals nested across entries (quantum in quantum dots, edge in edge
# computing), a pattern with no literal, and words where ı, ſ and the Kelvin
# sign stand for i, s and k
TREND_ENTRIES = {
    "ai": ["ai", "a\\.?i"],
    "cloud computing": ["cloud[- ]?computing"],
    "edge": ["edge(?: computing)?"],
    "edge computing": ["edge comput(?:ing|ers?)"],
    "quantum": ["quantum"],
    "quantum dot": ["quantum dots?"],
    "laser": ["lasers?"],
    "vr": ["(?:vr|virtual reality)"],
    "disk": ["disks?"],
    "kiosk": ["kiosks?"],
}
TREND_WORDS = (
    "ai", "AI", "A.I.", "a.i", "cloud computing", "Cloud-Computing", "cloudcomputing",
    "edge", "edges", "EDGE computing", "edge computıng", "edge-computers", "quantum", "quantumdot",
    "quantum dots", "quantum dotty", "lasers", "laserz", "vr", "virtual reality", "avr", "diſk", "DISKS",
    "\u212aiosk", "kioſks", "ı", "paint", "-", ".",
)
TREND_TAGS = ("ai", "edge", "laser", "quantum dot", "cloud computing", "misc", "quantum", "vr")


_TREND_DOC = st.tuples(
    st.lists(st.sampled_from(TREND_WORDS), max_size=6).map(" ".join),
    st.lists(st.sampled_from(TREND_TAGS), max_size=3, unique=True).map(tuple),
    st.dates(dt.date(2018, 1, 1), dt.date(2021, 12, 31)),
)


@st.composite
def trend_cases(draw):
    canonicals = draw(st.lists(st.sampled_from(sorted(TREND_ENTRIES)), min_size=1, unique=True))
    lexicon = lexicon_from_records([{"canonical": c, "patterns": TREND_ENTRIES[c]} for c in canonicals])
    labels = draw(st.lists(st.sampled_from(["news", "blogs", "patents"]), min_size=1, unique=True))
    corpora = []
    for label in labels:
        docs = draw(st.lists(_TREND_DOC, max_size=5))
        corpora.append((label, Corpus(tuple(
            Document(id=f"{label}{i}", date=date, text=text, tags=tags) for i, (text, tags, date) in enumerate(docs)
        ))))
    terms = draw(st.lists(st.sampled_from(canonicals), min_size=1, max_size=5))
    return corpora, lexicon, terms, draw(st.sampled_from(TREND_PERIODS))


@settings(deadline=None)
@given(trend_cases())
def test_term_trend_matches_per_term_oracle(case):
    corpora, lexicon, terms, period = case
    trends = term_trend(corpora, lexicon, terms, period, field="both")
    assert set(trends) == set(terms)
    for term in terms:
        assert trends[term] == term_trend_reference(corpora, lexicon, term, period)


def test_term_trend_leaves_the_scan_of_the_whole_lexicon_unbuilt():
    lexicon = lexicon_from_records([{"canonical": c, "patterns": p} for c, p in TREND_ENTRIES.items()])
    corpus = Corpus((Document(id="d1", date=dt.date(2020, 1, 1), text="edge computing and quantum dots"),))
    trends = term_trend([("news", corpus)], lexicon, ["edge"], "year", field="text")
    assert trends == {"edge": {"news": {"2020": 1}}}
    assert "_tables" not in lexicon.__dict__


_ORDER_PROBE = (
    "import datetime as dt, json, sys\n"
    "from techflux.breakcheck import term_trend\n"
    "from techflux.corpus import Corpus, Document\n"
    "from techflux.lexicon import lexicon_from_records\n"
    "terms = sys.argv[1:]\n"
    "lexicon = lexicon_from_records([{'canonical': t, 'patterns': [t]} for t in terms])\n"
    "corpus = Corpus((Document(id='d1', date=dt.date(2020, 1, 1), text='ai and lasers', tags=('edge',)),))\n"
    "print(json.dumps(list(term_trend([('news', corpus)], lexicon, terms + terms[:1], 'year'))))\n"
)


@pytest.mark.parametrize("hash_seed", ["0", "2"])
def test_term_trend_keeps_the_order_of_its_terms_under_any_hash_seed(hash_seed):
    # the order of a set of strings changes with the hash seed; the trend files
    # and correlation rows follow these keys
    terms = ["quantum dot", "laser", "edge", "ai"]
    result = subprocess.run(
        [sys.executable, "-c", _ORDER_PROBE, *terms],
        env=dict(package_env(), PYTHONHASHSEED=hash_seed), capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == terms


def test_trend_correlations_over_the_union_of_periods():
    trends = {
        "ai": {"news": {"2019": 1, "2020": 3}, "patents": {"2020": 2, "2021": 5}, "blogs": {"2019": 2, "2020": 6}},
        "edge": {"news": {"2020": 1}, "patents": {"2020": 4}},
    }
    rows, skipped = trend_correlations(trends)
    # news (1, 3, 0), patents (0, 2, 5), blogs (2, 6, 0); sources sorted within a term
    assert [row[:3] for row in rows] == [("ai", "blogs", "news"), ("ai", "blogs", "patents"), ("ai", "news", "patents")]
    assert rows[0][3] == pytest.approx(1.0)
    assert rows[2][3] == pytest.approx(pearson([1, 3, 0], [0, 2, 5]), abs=1e-15)
    assert skipped == ["'edge' between news and patents: need at least 2 points, got 1"]


def test_export_trend_csv_fills_missing_periods(tmp_path):
    counts = {"news": {"2019": 2, "2020": 1}, "patents": {"2020": 4}}
    path = tmp_path / "trend.csv"
    export_trend_csv(counts, path)
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    assert rows == [
        ["period", "source", "count"],
        ["2019", "news", "2"],
        ["2019", "patents", "0"],
        ["2020", "news", "1"],
        ["2020", "patents", "4"],
    ]


def test_pearson_values():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [5.0, 3.0, 1.0]) == -1.0
    r = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert abs(r - 0.9820) < 1e-4
    # sxy = 3, sxx = 2, syy = 14/3
    assert abs(r - 3.0 / math.sqrt(2.0 * 14.0 / 3.0)) < 1e-12


def test_pearson_errors():
    with pytest.raises(StatsError, match="constant series"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(StatsError, match="constant series"):
        pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])
    with pytest.raises(StatsError, match="lengths differ"):
        pearson([1.0, 2.0], [1.0])
    with pytest.raises(StatsError, match="at least 2"):
        pearson([1.0], [1.0])

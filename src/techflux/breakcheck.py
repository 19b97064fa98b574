"""Index time series, structural-break test, and trend correlation.

The series runner composes the full pipeline over a list of time windows:
each window is built into a network and clustered, consecutive windows are
compared, and the mean convergence/novelty indices become one series point
per later window. One function here owns each number the CLI reports:
``mean_indices``, ``break_tests``, ``_trend_table``, ``trend_correlations``.

The break test is the classic known-breakpoint F-test: fit one regression
line over the whole series, fit the two segments separately, and compare
the pooled residual sum of squares against the segmented one,

    F = [(SSR_pooled - (SSR1 + SSR2)) / k] / [(SSR1 + SSR2) / (n1 + n2 - 2k)]

with k = 2 regressors (intercept and time index). The p-value comes from
the F distribution's survival function, evaluated through a hand-rolled
regularized incomplete beta so results do not depend on an external stats
stack. The incomplete beta uses the modified Lentz continued fraction,
switching to the symmetric expansion when x is past the central cut so the
fraction always converges fast; absolute accuracy is well under 1e-10
across the degrees of freedom this module produces.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import namedtuple
from pathlib import Path

from .cograph import CoGraph, GraphNode, build_cooccurrence, check_graphml_names, document_items
from .community import Partition, louvain
from .config import MEASURE_OVERLAP_TARGET, SETTINGS, PipelineConfig, check_setting
from .corpus import Corpus, TimeWindow, window_filter
from .errors import StatsError
from .fileio import write_csv, write_json
from .forked import beside
from .lexicon import TermLexicon
from .records import Checked
from .transition import TransitionReport, transition_report

_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_TINY = 1e-300

TREND_PERIODS = ("year", "quarter")


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete-beta continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and then the odd term of step m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise StatsError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise StatsError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise StatsError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_survival(f: float, d1: float, d2: float) -> float:
    """P(F > f) for an F distribution with (d1, d2) degrees of freedom."""
    if not (d1 > 0.0 and d2 > 0.0):
        raise StatsError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if f < 0.0:
        raise StatsError(f"F statistic must be nonnegative, got {f}")
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    # upper tail directly, avoiding the 1 - CDF cancellation
    x = d2 / (d2 + d1 * f)
    return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x)


# a least-squares line: intercept, slope and ssr, its residual sum of squares
OlsFit = namedtuple("OlsFit", "intercept slope ssr")


def ols_fit(x: list[float], y: list[float]) -> OlsFit:
    """Least-squares line through (x, y); ssr is the residual sum of squares."""
    if len(x) != len(y):
        raise StatsError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise StatsError(f"need at least 3 points, got {n}")
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((v - x_mean) ** 2 for v in xs)
    if sxx == 0.0:
        raise StatsError("x values are all equal; slope undefined")
    sxy = math.fsum((xs[i] - x_mean) * (ys[i] - y_mean) for i in range(n))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ssr = math.fsum((ys[i] - intercept - slope * xs[i]) ** 2 for i in range(n))
    return OlsFit(intercept=intercept, slope=slope, ssr=ssr)


# the F statistic and its p-value, the breakpoint, the k fitted parameters
# per segment and the segment sizes n1 and n2
BreakTestResult = namedtuple("BreakTestResult", "f_statistic p_value breakpoint_index k n1 n2")

# k in the F statistic: the regressors of each line, intercept and time index
_REGRESSORS = 2


def segment_sizes(n: int, breakpoint_index: int) -> tuple[int, int]:
    """Sizes of [0, breakpoint) and [breakpoint, n); each must hold more points than a line has regressors."""
    n1, n2 = breakpoint_index, n - breakpoint_index
    if n1 <= _REGRESSORS or n2 <= _REGRESSORS:
        raise StatsError(
            f"each segment needs more than {_REGRESSORS} points; "
            f"breakpoint {breakpoint_index} gives segments of {n1} and {n2}"
        )
    return n1, n2


def chow_test(x: list[float], y: list[float], breakpoint_index: int) -> BreakTestResult:
    """Known-breakpoint structural-break F-test on a line-plus-noise model.

    The series splits into [0, breakpoint) and [breakpoint, n). When the
    segmented fit is exact (pooled residuals remain) the statistic is
    +infinity with p = 0; when the pooled fit is already exact there is no
    break and the statistic is 0 with p = 1. A scale-relative floor keeps
    float dust in the residuals from flipping those exact cases.
    """
    if len(x) != len(y):
        raise StatsError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    n1, n2 = segment_sizes(len(x), breakpoint_index)
    pooled = ols_fit(x, y)
    left = ols_fit(x[:breakpoint_index], y[:breakpoint_index])
    right = ols_fit(x[breakpoint_index:], y[breakpoint_index:])
    segmented = left.ssr + right.ssr
    zero_floor = 1e-24 * (math.fsum(float(v) * float(v) for v in y) + 1.0)
    if segmented <= zero_floor:
        if pooled.ssr <= zero_floor:
            f_stat, p = 0.0, 1.0
        else:
            f_stat, p = math.inf, 0.0
    else:
        df2 = n1 + n2 - 2 * _REGRESSORS
        f_stat = ((pooled.ssr - segmented) / _REGRESSORS) / (segmented / df2)
        if f_stat < 0.0:
            f_stat = 0.0
        p = f_survival(f_stat, float(_REGRESSORS), float(df2))
    return BreakTestResult(
        f_statistic=f_stat,
        p_value=p,
        breakpoint_index=breakpoint_index,
        k=_REGRESSORS,
        n1=n1,
        n2=n2,
    )


def format_p_value(p: float) -> str:
    """4 significant digits; tiny values shown as a bound instead of 0."""
    if p < 1e-12:
        return "<1e-12"
    return f"{p:.4g}"


def export_break_json(result: BreakTestResult, path: str | Path) -> None:
    write_json(path, {
        "f_statistic": result.f_statistic if math.isfinite(result.f_statistic) else "inf",
        "p_value": result.p_value,
        "breakpoint_index": result.breakpoint_index,
        "k": result.k,
        "n1": result.n1,
        "n2": result.n2,
    })


# a later window (TimeWindow) and its mean convergence and novelty indices
SeriesPoint = namedtuple("SeriesPoint", "window mean_ci mean_ni")


class IndexSeries(Checked, namedtuple("IndexSeries", "points")):
    __slots__ = ()

    def __new__(cls, points: tuple[SeriesPoint, ...]) -> IndexSeries:
        for prev, cur in zip(points, points[1:]):
            if not cur.window.start > prev.window.start:
                raise StatsError("series points must be strictly increasing by window start")
        for point in points:
            if not (0.0 <= point.mean_ci <= 1.0 and 0.0 <= point.mean_ni <= 1.0):
                raise StatsError(f"mean indices out of [0, 1] at {point.window.describe()}")
        return tuple.__new__(cls, (points,))

    def ci_values(self) -> list[float]:
        return [p.mean_ci for p in self.points]

    def ni_values(self) -> list[float]:
        return [p.mean_ni for p in self.points]


def mean_indices(report: TransitionReport, weighted: bool) -> tuple[float, float]:
    """(mean convergence, mean novelty) over the later window's clusters, plain or weighted by cluster size."""
    weights = report.similarity.col_sizes if weighted else (1,) * len(report.similarity.col_sizes)
    return tuple(
        math.fsum(index[cid] * w for cid, w in enumerate(weights)) / sum(weights)
        for index in (report.convergence, report.novelty)
    )


def _empty_window(window: TimeWindow) -> StatsError:
    return StatsError(f"window {window.describe()} holds no documents")


def cluster_window(corpus: Corpus, lexicon: TermLexicon, window: TimeWindow | None, config: PipelineConfig,
                   graphml: bool = False):
    """Build, filter, and cluster one window, or the whole corpus when window is None.

    Raises if the window holds no documents, or else if the graph has no
    edges, or else, with graphml set, if a node name is one that GraphML
    cannot hold (check_graphml_names); all before any Louvain.
    """
    sub = corpus if window is None else window_filter(corpus, window)
    if window is not None and not sub.documents:
        raise _empty_window(window)
    graph = build_cooccurrence(sub, lexicon, field=config.field, pairs=config.pairs, top_n=config.top_n)
    if not graph.edges:
        scope = "the corpus" if window is None else f"window {window.describe()}"
        cause = ": with pairs tech-tag, no document has both a lexicon term and a tag that is not one" if config.pairs == "tech-tag" else ""
        raise StatsError(f"{scope} produced an edgeless graph{cause}")
    if graphml:
        check_graphml_names(graph)
    return graph, louvain(graph, config.resolution)


def check_windows(windows: list[TimeWindow]) -> None:
    """Raise StatsError unless there are at least 3 windows, strictly increasing by start date."""
    if len(windows) < 3:
        raise StatsError(f"need at least 3 windows, got {len(windows)}")
    for prev, cur in zip(windows, windows[1:]):
        if not cur.start > prev.start:
            raise StatsError(
                f"windows must be strictly increasing by start date: "
                f"{prev.describe()} then {cur.describe()}"
            )


def _window_replies(
    corpus: Corpus, lexicon: TermLexicon, windows: list[TimeWindow], config: PipelineConfig, graphml: bool
) -> list[tuple]:
    """(node tuples, edge triples, partition fields) of each window, as marshal carries them."""
    replies = []
    for window in windows:
        graph, partition = cluster_window(corpus, lexicon, window, config, graphml)
        replies.append((tuple(map(tuple, graph.nodes)), graph.edges, tuple(partition)))
    return replies


def cluster_windows(
    corpus: Corpus, lexicon: TermLexicon, windows: list[TimeWindow], config: PipelineConfig, graphml: bool = False
) -> list[tuple[CoGraph, Partition]]:
    """(graph, partition) of each window in order, as cluster_window gives them with graphml.

    The windows are clustered in two halves by window count: this process
    clusters the first W // 2 windows while a forked child (forked.beside)
    clusters the rest and sends back each graph and partition, which this
    process rebuilds through their checks. An error in the first half raises
    first, as in window order; an error in the second half raises when this
    process reruns that half after the child has failed. Before anything is
    built, the first window in order that holds no documents raises.
    """
    days = sorted({doc.date for doc in corpus.documents})
    for window in windows:
        first = bisect_left(days, window.start)  # the first day on or after the window's start
        if first == len(days) or days[first] >= window.end:
            raise _empty_window(window)
    if config.field != "tags":
        lexicon._tables  # built here once, so that the child inherits the scan and does not build it again
    half = len(windows) // 2
    mine, replies = beside(
        lambda: [cluster_window(corpus, lexicon, w, config, graphml) for w in windows[:half]],
        lambda: _window_replies(corpus, lexicon, windows[half:], config, graphml),
    )
    rebuilt = [(CoGraph(tuple(GraphNode(*node) for node in nodes), edges), Partition(*fields))
               for nodes, edges, fields in replies]
    return mine + rebuilt


def index_series(corpus: Corpus, lexicon: TermLexicon, windows: list[TimeWindow], config: PipelineConfig) -> IndexSeries:
    """Mean convergence/novelty per consecutive window pair.

    Each point is labeled with the later window of its pair, so a list of W
    windows yields W - 1 points. Indices always use the overlap measure
    regardless of the configured exploratory measure. The windows are
    clustered by cluster_windows, in two forked halves.
    """
    check_windows(windows)
    partitions = [partition for _, partition in cluster_windows(corpus, lexicon, windows, config)]
    points = []
    for part_t, part_t1, w_t1 in zip(partitions, partitions[1:], windows[1:]):
        report = transition_report(part_t, part_t1, tau=config.tau, measure=MEASURE_OVERLAP_TARGET)
        mean_ci, mean_ni = mean_indices(report, config.weighted_mean)
        points.append(SeriesPoint(window=w_t1, mean_ci=mean_ci, mean_ni=mean_ni))
    return IndexSeries(points=tuple(points))


def export_series_csv(series: IndexSeries, path: str | Path) -> None:
    rows = [("window_start", "window_end", "mean_ci", "mean_ni")]
    rows += [
        (p.window.start.isoformat(), p.window.end.isoformat(), f"{p.mean_ci:.6f}", f"{p.mean_ni:.6f}")
        for p in series.points
    ]
    write_csv(path, rows)


def break_tests(series: IndexSeries, breakpoint_index: int) -> dict[str, BreakTestResult]:
    """Chow test of the mean convergence ("ci") and novelty ("ni") series, each against the point index 0..n-1."""
    x = [float(i) for i in range(len(series.points))]
    return {"ci": chow_test(x, series.ci_values(), breakpoint_index), "ni": chow_test(x, series.ni_values(), breakpoint_index)}


def _period_key(date, period: str) -> str:
    if period == "year":
        return str(date.year)
    return f"{date.year}Q{(date.month - 1) // 3 + 1}"


def check_trend(sources: list[tuple[str, object]], lexicon: TermLexicon, terms: list[str], period: str, field: str) -> None:
    """Raise StatsError for a period, a field, a repeated corpus label or a term that term_trend cannot count.

    sources holds (label, corpus) pairs, or (label, path) pairs before any
    corpus is loaded; only the labels are read, after the period and the field.
    """
    if period not in TREND_PERIODS:
        raise StatsError(f"period must be one of {TREND_PERIODS}, got {period!r}")
    check_setting("field", field, StatsError)
    seen: set[str] = set()
    for label, _ in sources:
        if label in seen:
            raise StatsError(f"duplicate corpus label {label!r}")
        seen.add(label)
    for term in terms:
        if term not in lexicon.canonical_terms:
            raise StatsError(f"unknown term {term!r}: not in the lexicon")


def term_trend(
    corpora: list[tuple[str, Corpus]],
    lexicon: TermLexicon,
    terms: list[str],
    period: str,
    field: str = SETTINGS["field"].default,
) -> dict[str, dict[str, dict[str, int]]]:
    """Documents holding each term as {term: {label: {period: count}}}, terms in the order given.

    A document holds a term when the term is among its ``document_items``
    under ``field``, the items the network builder uses. Every document is
    read once, whatever the number of terms; a repeated term is counted once.
    Each corpus needs a label of its own. The terms are checked against the
    whole lexicon, and the text is scanned only for the lexicon entries of
    the terms: whether a term is found depends on its own patterns alone.
    """
    check_trend(corpora, lexicon, terms, period, field)
    wanted = set(terms)
    lexicon = TermLexicon(tuple(entry for entry in lexicon.entries if entry.canonical in wanted))
    counts: dict[str, dict[str, dict[str, int]]] = {term: {} for term in terms}
    for label, corpus in corpora:
        per_term: dict[str, dict[str, int]] = {term: {} for term in counts}
        for doc in corpus.documents:
            for term in wanted.intersection(document_items(doc, lexicon, field)):
                key = _period_key(doc.date, period)
                per_term[term][key] = per_term[term].get(key, 0) + 1
        for term, per_period in per_term.items():
            counts[term][label] = dict(sorted(per_period.items()))
    return counts


def _trend_table(counts: dict[str, dict[str, int]]) -> tuple[list[str], dict[str, list[int]]]:
    """Every period seen anywhere, sorted, and each source's counts over them (0 where absent), sources sorted."""
    periods = sorted({p for per_period in counts.values() for p in per_period})
    return periods, {source: [counts[source].get(p, 0) for p in periods] for source in sorted(counts)}


def export_trend_csv(counts: dict[str, dict[str, int]], path: str | Path) -> None:
    """CSV rows (period, source, count) covering every period seen anywhere."""
    periods, table = _trend_table(counts)
    write_csv(path, [("period", "source", "count")] + [(p, s, table[s][i]) for i, p in enumerate(periods) for s in table])


def pearson(a: list[float], b: list[float]) -> float:
    """Pearson correlation; errors on constant input where it is undefined."""
    if len(a) != len(b):
        raise StatsError(f"series lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise StatsError(f"need at least 2 points, got {n}")
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((v - x_mean) ** 2 for v in xs)
    syy = math.fsum((v - y_mean) ** 2 for v in ys)
    if sxx == 0.0 or syy == 0.0:
        raise StatsError("correlation undefined for a constant series")
    sxy = math.fsum((xs[i] - x_mean) * (ys[i] - y_mean) for i in range(n))
    r = sxy / math.sqrt(sxx * syy)
    if r > 1.0:
        r = 1.0
    elif r < -1.0:
        r = -1.0
    return r


def trend_correlations(trends: dict[str, dict[str, dict[str, int]]]) -> tuple[list[tuple], list[str]]:
    """(term, source a, source b, Pearson r) per term and sorted source pair, and a text for each pair with no r."""
    rows, skipped = [], []
    for term, counts in trends.items():
        _, table = _trend_table(counts)
        for a, b in itertools.combinations(table, 2):
            try:
                rows.append((term, a, b, pearson(table[a], table[b])))
            except StatsError as exc:
                skipped.append(f"{term!r} between {a} and {b}: {exc}")
    return rows, skipped

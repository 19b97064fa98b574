"""End-to-end acceptance suite.

Each test covers one numbered criterion and reports a one-line verdict in
the terminal summary (see conftest). The checks pit the package against
independent oracles (exhaustive search, mpmath, scipy, brute-force
counting), canonical hand-derived structures, planted synthetic corpora,
and byte-level determinism. Criterion 8 runs only when a real corpus file
is supplied via the TECHFLUX_KAGGLE_CORPUS environment variable.
"""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

import techflux
from techflux.breakcheck import (
    chow_test,
    index_series,
    regularized_incomplete_beta,
)
from techflux.cli import main
from techflux.cograph import build_cooccurrence, top_n_filter
from techflux.community import Partition, louvain, modularity
from techflux.config import PipelineConfig
from techflux.corpus import Corpus, Document, TimeWindow, load_corpus, window_filter
from techflux.lexicon import compile_lexicon, lexicon_from_records
from techflux.synth import generate_corpus, plant_spec_from_records
from techflux.transition import (
    classify_events,
    inheritance_indices,
    similarity_matrix,
    transition_report,
)

from conftest import record_acceptance
from oracles import (
    best_partition_bruteforce,
    chow_reference,
    make_graph,
    modularity_pairsum,
    named_edges,
    random_connected_graph,
)

EMPTY_LEX = lexicon_from_records([])

mpmath.mp.dps = 30


def criterion(number):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                if type(exc).__name__ == "Skipped":
                    record_acceptance(number, "SKIP", str(exc))
                else:
                    record_acceptance(number, False, f"{type(exc).__name__}: {exc}"[:200])
                raise
            record_acceptance(number, True, detail)
        return inner
    return wrap


# ------------------------------------------------------------ criterion 1


@criterion(1)
def test_criterion_1_clustering_vs_exhaustive_optimum():
    start = time.perf_counter()
    rng = random.Random(10001)
    worst_ratio = 1.0
    max_gap = 0.0
    for _ in range(200):
        graph = random_connected_graph(rng, max_nodes=8)
        part = louvain(graph)
        direct = modularity_pairsum(graph, part.assignment)
        max_gap = max(max_gap, abs(part.modularity - direct),
                      abs(modularity(graph, part) - direct))
        assert abs(part.modularity - direct) < 1e-12
        assert abs(modularity(graph, part) - direct) < 1e-12
        best_q, _ = best_partition_bruteforce(graph)
        assert part.modularity >= 0.9 * best_q - 1e-12
        if best_q > 1e-9:
            worst_ratio = min(worst_ratio, part.modularity / best_q)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return (f"200 random graphs: Q/optimum >= {worst_ratio:.3f}, "
            f"formula agreement <= {max_gap:.1e}, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 2


@criterion(2)
def test_criterion_2_canonical_structures():
    triangles = [("a", "b", 1), ("a", "c", 1), ("b", "c", 1),
                 ("d", "e", 1), ("d", "f", 1), ("e", "f", 1)]
    bridged = louvain(make_graph(triangles + [("c", "d", 1)]))
    assert {frozenset(b) for b in bridged.clusters()} == {frozenset("abc"), frozenset("def")}

    k4_edges = [(blk[i], blk[j], 1)
                for blk in ("abcd", "efgh")
                for i in range(4) for j in range(i + 1, 4)]
    cliques = louvain(make_graph(k4_edges))
    assert {frozenset(b) for b in cliques.clusters()} == {frozenset("abcd"), frozenset("efgh")}

    edge = make_graph([("x", "y", 1)])
    assert modularity(edge, {"x": 0, "y": 0}) == 0.0
    assert modularity(edge, {"x": 0, "y": 1}) == -0.5
    return "bridged triangles, disjoint cliques, Q = 0 and Q = -0.5 exact"


# ------------------------------------------------------------ criterion 3


def _random_partition(rng, universe):
    k = rng.randint(1, 5)
    size = rng.randint(k, len(universe))
    names = rng.sample(universe, size)
    assignment = {}
    for idx, name in enumerate(names):
        assignment[name] = idx if idx < k else rng.randrange(k)
    return Partition(assignment, 0.0, k)


def _permuted(partition, perm):
    return Partition({name: perm[cid] for name, cid in partition.assignment.items()},
                     0.0, partition.cluster_count)


def _canonical_events(events, map_rows, map_cols):
    return sorted(
        (e.kind,
         tuple(sorted(map_rows[c] for c in e.sources)),
         tuple(sorted(map_cols[c] for c in e.targets)),
         tuple(sorted(round(s, 12) for s in e.supports)))
        for e in events
    )


@criterion(3)
def test_criterion_3_transition_algebra():
    start = time.perf_counter()
    rng = random.Random(30303)
    universe = [f"t{i:02d}" for i in range(30)]
    for _ in range(500):
        part_t = _random_partition(rng, universe)
        part_t1 = _random_partition(rng, universe)
        matrix = similarity_matrix(part_t, part_t1)
        m, k = len(matrix.row_sizes), len(matrix.col_sizes)

        col_sums = [math.fsum(column) for column in zip(*matrix.values)]
        assert all(col_sum <= 1.0 + 1e-12 for col_sum in col_sums)
        convergence, novelty = inheritance_indices(matrix)
        for j in convergence:
            assert abs(convergence[j] + novelty[j] - 1.0) < 1e-12

        events = classify_events(matrix, tau=0.1)
        births = {e.targets[0] for e in events if e.kind == "birth"}
        deaths = {e.sources[0] for e in events if e.kind == "death"}
        for j in range(k):
            assert (j in births) == (convergence[j] == 0.0)
            assert (j in births) == (not any(row[j] for row in matrix.values))
        for i in range(m):
            assert (i in deaths) == (not any(matrix.values[i]))

        perm_t = list(range(part_t.cluster_count))
        perm_t1 = list(range(part_t1.cluster_count))
        rng.shuffle(perm_t)
        rng.shuffle(perm_t1)
        shuffled = similarity_matrix(_permuted(part_t, perm_t), _permuted(part_t1, perm_t1))
        inv_t = {perm_t[c]: c for c in range(len(perm_t))}
        inv_t1 = {perm_t1[c]: c for c in range(len(perm_t1))}
        identity_t = {c: c for c in range(len(perm_t))}
        identity_t1 = {c: c for c in range(len(perm_t1))}
        assert _canonical_events(events, identity_t, identity_t1) == \
            _canonical_events(classify_events(shuffled, tau=0.1), inv_t, inv_t1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    return f"500 partition pairs: indices, events, permutations, {elapsed:.1f}s"


# ------------------------------------------------------------ criterion 4


def _scenario_records(kind, seed):
    windows = [
        {"start": "2022-01-01", "end": "2022-02-01"},
        {"start": "2022-02-01", "end": "2022-03-01"},
    ]
    base = {"seed": seed, "docs_per_window": 100, "noise_rate": 0.05, "windows": windows}
    if kind == "birth":
        base["communities"] = [
            {"name": "c1", "size": 6, "rate": 1.0},
            {"name": "c2", "size": 6, "rate": 1.0},
        ]
        base["events"] = [
            {"kind": "birth", "pair": 0, "targets": ["n1"], "size": 6, "rate": 1.0},
        ]
    elif kind == "death":
        base["communities"] = [
            {"name": "c1", "size": 6, "rate": 1.0},
            {"name": "c2", "size": 6, "rate": 1.0},
            {"name": "c3", "size": 6, "rate": 1.0},
        ]
        base["events"] = [{"kind": "death", "pair": 0, "sources": ["c1"]}]
    elif kind == "merge":
        base["communities"] = [
            {"name": "c1", "size": 6, "rate": 1.0},
            {"name": "c2", "size": 6, "rate": 1.0},
            {"name": "c3", "size": 6, "rate": 1.0},
        ]
        base["events"] = [
            {"kind": "merge", "pair": 0, "sources": ["c1", "c2"],
             "targets": ["m1"], "mixing": 1.0, "rate": 1.0},
        ]
    else:
        base["communities"] = [
            {"name": "c1", "size": 12, "rate": 1.0},
            {"name": "c2", "size": 6, "rate": 1.0},
        ]
        base["events"] = [
            {"kind": "split", "pair": 0, "sources": ["c1"],
             "targets": ["s1", "s2"], "mixing": 1.0, "rate": 1.0},
        ]
    return base


def _planted_groups(truth, w_index):
    groups = {}
    for term, name in truth.assignments[w_index].items():
        groups.setdefault(name, set()).add(term)
    return groups


def _cluster_windows(corpus, truth, spec):
    """Cluster both windows; map cluster ids to planted community names.

    Returns None when any recovered cluster fails to match a planted
    community exactly, which counts as a failed recovery for that seed.
    """
    partitions = []
    mappings = []
    for w_index, window in enumerate(spec.windows):
        graph = build_cooccurrence(window_filter(corpus, window), EMPTY_LEX, field="tags")
        part = louvain(graph)
        groups = _planted_groups(truth, w_index)
        mapping = {}
        for cid, block in enumerate(part.clusters()):
            members = set(block)
            hits = [name for name, g in groups.items() if g == members]
            if len(hits) != 1:
                return None
            mapping[cid] = hits[0]
        partitions.append(part)
        mappings.append(mapping)
    return partitions, mappings


def _recovers_planted_events(records):
    spec = plant_spec_from_records(records)
    corpus, truth = generate_corpus(spec)
    clustered = _cluster_windows(corpus, truth, spec)
    if clustered is None:
        return False
    (part_t, part_t1), (map_t, map_t1) = clustered
    report = transition_report(part_t, part_t1, tau=0.1)
    detected = sorted(
        (e.kind,
         tuple(sorted(map_t[c] for c in e.sources)),
         tuple(sorted(map_t1[c] for c in e.targets)))
        for e in report.events
    )
    planted = sorted(
        (e.kind, tuple(sorted(e.sources)), tuple(sorted(e.targets)))
        for e in truth.pair_events[0]
    )
    return detected == planted


def _measured_novelty_gap(mixing, seed):
    records = {
        "seed": seed,
        "docs_per_window": 100,
        "noise_rate": 0.05,
        "windows": [
            {"start": "2022-01-01", "end": "2022-02-01"},
            {"start": "2022-02-01", "end": "2022-03-01"},
        ],
        "communities": [
            {"name": "renew", "size": 8, "rate": 1.0},
            {"name": "steady", "size": 6, "rate": 1.0},
        ],
        "events": [
            {"kind": "persist", "pair": 0, "sources": ["renew"], "mixing": mixing},
        ],
    }
    spec = plant_spec_from_records(records)
    corpus, truth = generate_corpus(spec)
    partitions = []
    for window in spec.windows:
        graph = build_cooccurrence(window_filter(corpus, window), EMPTY_LEX, field="tags")
        partitions.append(louvain(graph))
    report = transition_report(partitions[0], partitions[1], tau=0.1)
    groups = _planted_groups(truth, 1)
    part_t1 = partitions[1]
    renewed_clusters = []
    for cid, block in enumerate(part_t1.clusters()):
        members = set(block)
        owner = max(groups, key=lambda name: len(groups[name] & members))
        if owner == "renew":
            renewed_clusters.append(cid)
    if len(renewed_clusters) != 1:
        return math.inf
    measured = report.novelty[renewed_clusters[0]]
    return abs(measured - truth.novelty[0]["renew"])


@criterion(4)
def test_criterion_4_planted_event_recovery():
    tallies = {}
    for kind in ("birth", "death", "merge", "split"):
        hits = sum(
            1 for seed in range(20)
            if _recovers_planted_events(_scenario_records(kind, 40000 + seed))
        )
        tallies[kind] = hits
        assert hits >= 18, f"{kind}: only {hits}/20 seeds recovered"
    max_gap = 0.0
    for mixing in (0.25, 0.5, 0.75):
        for seed in range(20):
            gap = _measured_novelty_gap(mixing, 47000 + seed)
            max_gap = max(max_gap, gap)
            assert gap <= 0.1, f"mixing {mixing} seed {seed}: novelty off by {gap}"
    counts = ", ".join(f"{kind} {hits}/20" for kind, hits in tallies.items())
    return f"{counts}; novelty gap <= {max_gap:.3f} across mixings"


# ------------------------------------------------------------ criterion 5


@criterion(5)
def test_criterion_5_break_test_oracle():
    rng = random.Random(55055)
    max_rel = 0.0
    for _ in range(50):
        n = rng.randint(10, 30)
        bp = rng.randint(3, n - 3)
        intercept = rng.uniform(-1.0, 1.0)
        slope = rng.uniform(-0.2, 0.2)
        sigma = rng.uniform(0.02, 0.12)
        shift = sigma * rng.uniform(5.0, 15.0)
        x = [float(i) for i in range(n)]
        y = [intercept + slope * v + rng.gauss(0.0, sigma) for v in x]
        for i in range(bp, n):
            y[i] += shift
        result = chow_test(x, y, bp)
        want_f, want_p = chow_reference(x, y, bp)
        rel = abs(result.f_statistic - want_f) / max(abs(want_f), 1e-12)
        max_rel = max(max_rel, rel)
        assert rel <= 1e-6
        assert abs(result.p_value - want_p) <= 1e-9

    for _ in range(10):
        a, b = rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)
        x = [float(i) for i in range(12)]
        clean = chow_test(x, [a + b * v for v in x], 6)
        assert clean.f_statistic <= 1e-9
        assert clean.p_value >= 1.0 - 1e-12

    rejections = 0
    sigma = 0.05
    for _ in range(1000):
        x = [float(i) for i in range(20)]
        y = [0.4 + rng.gauss(0.0, sigma) for _ in range(20)]
        for i in range(10, 20):
            y[i] += 10.0 * sigma
        if chow_test(x, y, 10).p_value < 0.01:
            rejections += 1
    assert rejections >= 950

    grid_max = 0.0
    for a in (0.5, 1.0, 2.5, 6.0, 15.0):
        for b in (0.5, 1.0, 2.5, 6.0, 15.0):
            for x_val in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
                want = float(mpmath.betainc(a, b, 0, x_val, regularized=True))
                got = regularized_incomplete_beta(a, b, x_val)
                grid_max = max(grid_max, abs(got - want))
                assert abs(got - want) < 1e-10
    return (f"50 series rel <= {max_rel:.1e}; clean F = 0; "
            f"shift rejected {rejections}/1000; beta grid <= {grid_max:.1e}")


# ------------------------------------------------------------ criterion 6


@criterion(6)
def test_criterion_6_byte_identical_outputs(tmp_path):
    spec_path = tmp_path / "plant.json"
    spec_path.write_text(json.dumps({
        "seed": 21,
        "docs_per_window": 60,
        "noise_rate": 0.05,
        "windows": [
            {"start": "2021-06-01", "end": "2021-07-01"},
            {"start": "2021-07-01", "end": "2021-08-01"},
        ],
        "communities": [
            {"name": "a", "size": 6, "rate": 1.0},
            {"name": "b", "size": 6, "rate": 1.0},
            {"name": "c", "size": 5, "rate": 1.0},
        ],
        "events": [
            {"kind": "merge", "pair": 0, "sources": ["a", "b"],
             "targets": ["ab", ], "mixing": 1.0, "rate": 1.0},
            {"kind": "persist", "pair": 0, "sources": ["c"], "mixing": 0.6},
        ],
    }))
    data = tmp_path / "data"
    assert main(["synth", "--plant-spec", str(spec_path), "--out", str(data)]) == 0
    # a second corpus for trend, which correlates sources over the two quarters
    assert main(["synth", "--plant-spec", str(spec_path), "--seed", "22", "--out", str(tmp_path / "data22")]) == 0
    corpus, lexicon = str(data / "corpus.jsonl"), str(data / "lexicon.json")
    days = ("2021-06-01", "2021-06-10", "2021-06-19", "2021-06-28", "2021-07-07", "2021-07-16", "2021-07-25",
            "2021-08-01")
    windows = tmp_path / "windows.json"
    windows.write_text(json.dumps([{"start": s, "end": e} for s, e in zip(days, days[1:])]))
    terms = tmp_path / "terms.txt"
    terms.write_text("".join(entry["canonical"] + "\n" for entry in json.loads(Path(lexicon).read_text())))
    commands = {
        "compare": ["compare", "--corpus", corpus, "--lexicon", lexicon,
                    "--window-t", "2021-06-01:2021-07-01", "--window-t1", "2021-07-01:2021-08-01"],
        "series": ["series", "--corpus", corpus, "--lexicon", lexicon, "--windows", str(windows), "--breakpoint", "3"],
        "cluster": ["cluster", "--corpus", corpus, "--lexicon", lexicon, "--window", "2021-06-01:2021-08-01"],
        "trend": ["trend", "--corpus", f"x={corpus}", "--corpus", f"y={tmp_path / 'data22' / 'corpus.jsonl'}", "--lexicon", lexicon,
                  "--terms", str(terms), "--period", "quarter"],
        "synth": ["synth", "--plant-spec", str(spec_path)],
    }
    # Fresh interpreters under fixed, different string-hash seeds: output must
    # not depend on set or dict iteration order of hashed keys.
    src = Path(techflux.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    hash_seeds = ("0", "12345")
    file_counts = {}
    for command, argv in commands.items():
        runs = tmp_path / command
        for run in ("one", "two"):
            assert main(argv + ["--out", str(runs / run)]) == 0
        for hash_seed in hash_seeds:
            subprocess.run(
                [sys.executable, "-m", "techflux", *argv, "--out", str(runs / f"hash{hash_seed}")],
                env=dict(env, PYTHONHASHSEED=hash_seed), check=True, capture_output=True, timeout=300,
            )
        names = sorted(path.name for path in (runs / "one").iterdir())
        for run in ("two", *(f"hash{seed}" for seed in hash_seeds)):
            assert sorted(path.name for path in (runs / run).iterdir()) == names, f"{command}/{run}"
            for name in names:
                assert (runs / run / name).read_bytes() == (runs / "one" / name).read_bytes(), f"{command}/{run}/{name}"
        file_counts[command] = len(names)
    assert file_counts["compare"] == 9
    counts = ", ".join(f"{command} {count}" for command, count in file_counts.items())
    return (f"reruns byte-identical for every subcommand ({counts} files, GraphML included), "
            "in-process and in subprocesses with PYTHONHASHSEED 0 and 12345")


# ------------------------------------------------------------ criterion 7


@criterion(7)
def test_criterion_7_counting_identity_and_filter():
    rng = random.Random(70707)
    pool = [f"k{i:02d}" for i in range(12)]
    date = TimeWindow.parse("2020-01-01:2020-02-01").start
    for _ in range(30):
        docs = []
        for d in range(rng.randint(1, 20)):
            tags = rng.sample(pool, rng.randint(0, 7))
            docs.append(Document(id=f"d{d}", date=date, tags=tuple(tags)))
        corpus = Corpus(documents=tuple(docs))
        graph = build_cooccurrence(corpus, EMPTY_LEX, field="tags")

        expected = {}
        frequency = {}
        for doc in docs:
            items = sorted(set(doc.tags))
            for tag in items:
                frequency[tag] = frequency.get(tag, 0) + 1
            for u, v in itertools.combinations(items, 2):
                expected[(u, v)] = expected.get((u, v), 0) + 1
        assert named_edges(graph) == expected
        assert sum(weight for _, _, weight in graph.edges) == sum(expected.values())
        assert {n.name: n.doc_frequency for n in graph.nodes} == frequency

        for n in range(1, len(graph.nodes) + 2):
            once = top_n_filter(graph, n)
            assert top_n_filter(once, n) == once
            wider = top_n_filter(graph, n + 1)
            assert set(nd.name for nd in once.nodes) <= set(nd.name for nd in wider.nodes)
    return "30 corpora: edge weights = brute-force counts; top-n filter idempotent + monotone"


# ------------------------------------------------------------ criterion 8


@criterion(8)
def test_criterion_8_real_corpus_discontinuity():
    corpus_path = os.environ.get("TECHFLUX_KAGGLE_CORPUS")
    if not corpus_path:
        pytest.skip("real corpus not supplied; set TECHFLUX_KAGGLE_CORPUS to run")
    corpus = load_corpus(corpus_path)
    lexicon_path = os.environ.get("TECHFLUX_KAGGLE_LEXICON")
    if lexicon_path:
        lexicon = compile_lexicon(lexicon_path)
        config = PipelineConfig(field="both")
    else:
        lexicon = EMPTY_LEX
        config = PipelineConfig(field="tags")
    starts = [f"2019-{m:02d}-01" for m in range(4, 13)] + ["2020-01-01"]
    ends = starts[1:] + ["2020-05-01"]
    windows = [TimeWindow.parse(f"{s}:{e}") for s, e in zip(starts, ends)]
    series = index_series(corpus, lexicon, windows, config)
    ni = series.ni_values()
    assert all(ni[-1] > value for value in ni[:-1]), ni
    x = [float(i) for i in range(len(ni))]
    result = chow_test(x, ni, len(ni) - 3)
    assert result.p_value < 0.01
    return (f"last mean NI {ni[-1]:.4f} strictly greatest; "
            f"break p = {result.p_value:.3g}")

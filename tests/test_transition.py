import csv
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux.community import Partition
from techflux.config import MEASURE_JACCARD, MEASURE_OVERLAP_TARGET, MEASURES
from techflux.errors import CommunityError, TransitionError
from techflux.transition import (
    EVENT_BIRTH,
    EVENT_DEATH,
    EVENT_MERGE,
    EVENT_PERSIST,
    EVENT_SPLIT,
    alluvial_export,
    classify_events,
    export_report_json,
    inheritance_indices,
    similarity_matrix,
    transition_report,
    export_similarity_csv,
)

from oracles import classify_events_reference, inheritance_indices_reference, similarity_matrix_reference


def partition(*clusters):
    """Partition whose cluster i holds the names in clusters[i]."""
    assignment = {}
    for cid, members in enumerate(clusters):
        for name in members:
            assignment[name] = cid
    return Partition(assignment, 0.0, len(clusters))


def names(prefix, count):
    return [f"{prefix}{i:03d}" for i in range(count)]


def test_worked_overlap_example():
    # one 4-node cluster sharing two nodes with a 4-node successor
    matrix = similarity_matrix(partition({"a", "b", "c", "d"}), partition({"c", "d", "e", "f"}))
    assert (len(matrix.values), len(matrix.values[0])) == (1, 1)
    assert matrix.values[0][0] == 0.5
    assert matrix.intersections[0][0] == 2
    assert matrix.row_sizes == (4,) and matrix.col_sizes == (4,)


def test_jaccard_measure():
    matrix = similarity_matrix(
        partition({"a", "b", "c", "d"}), partition({"c", "d", "e", "f"}), measure=MEASURE_JACCARD
    )
    assert abs(matrix.values[0][0] - 2.0 / 6.0) < 1e-15
    with pytest.raises(TransitionError, match="overlap_target"):
        inheritance_indices(matrix)


def test_unknown_measure_rejected():
    with pytest.raises(TransitionError, match=re.escape("measure must be one of ('overlap_target', 'jaccard'), got 'cosine'")):
        similarity_matrix(partition({"a"}), partition({"a"}), measure="cosine")


def test_identity_transition_is_permutation_matrix():
    t = partition({"a", "b"}, {"c", "d"}, {"e"})
    t1 = partition({"c", "d"}, {"e"}, {"a", "b"})
    matrix = similarity_matrix(t, t1)
    expected = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert matrix.values == expected


def test_disjoint_windows_zero_matrix_and_events():
    matrix = similarity_matrix(partition({"a", "b"}), partition({"x", "y"}))
    assert not any(any(row) for row in matrix.values)
    events = classify_events(matrix, tau=0.1)
    kinds = sorted(e.kind for e in events)
    assert kinds == [EVENT_BIRTH, EVENT_DEATH]


def test_empty_cluster_rejected():
    with pytest.raises(CommunityError, match="^cluster 1 has no nodes"):
        Partition({"a": 0}, 0.0, 2)


def test_merge_supporters_above_threshold():
    # successor of 100 nodes drawing 32, 15, and 5 nodes from three ancestors
    a, b, c = names("a", 32), names("b", 15), names("c", 5)
    fresh = names("f", 48)
    t = partition(set(a), set(b), set(c))
    t1 = partition(set(a) | set(b) | set(c) | set(fresh))
    matrix = similarity_matrix(t, t1)
    events = classify_events(matrix, tau=0.1)
    assert [e.kind for e in events] == [EVENT_MERGE]
    merge = events[0]
    assert merge.sources == (0, 1)
    assert merge.targets == (0,)
    assert merge.supports == (0.32, 0.15)


def test_convergence_and_novelty_contributions():
    # shared fractions 0.32 and 0.14 sum to the convergence index
    a, b = names("a", 32), names("b", 14)
    fresh = names("f", 54)
    t = partition(set(a), set(b))
    t1 = partition(set(a) | set(b) | set(fresh))
    convergence, novelty = inheritance_indices(similarity_matrix(t, t1))
    assert abs(convergence[0] - 0.46) < 1e-12
    assert abs(novelty[0] - 0.54) < 1e-12


def test_indices_sum_to_one_and_column_sums_bounded():
    rng = random.Random(77)
    universe = names("u", 40)
    for _ in range(25):
        k_t = rng.randint(1, 4)
        k_t1 = rng.randint(1, 4)
        pool_t = rng.sample(universe, rng.randint(k_t, 30))
        pool_t1 = rng.sample(universe, rng.randint(k_t1, 30))

        def split_into(pool, k):
            groups = [set() for _ in range(k)]
            for idx, name in enumerate(pool):
                groups[idx % k].add(name)
            return groups

        t = partition(*split_into(pool_t, k_t))
        t1 = partition(*split_into(pool_t1, k_t1))
        matrix = similarity_matrix(t, t1)
        assert all(math.fsum(column) <= 1.0 + 1e-12 for column in zip(*matrix.values))
        convergence, novelty = inheritance_indices(matrix)
        for j in convergence:
            assert abs(convergence[j] + novelty[j] - 1.0) < 1e-12


def test_birth_iff_zero_convergence():
    t = partition({"a", "b"})
    t1 = partition({"x", "y"}, {"a", "z"})
    matrix = similarity_matrix(t, t1)
    convergence, _ = inheritance_indices(matrix)
    births = {e.targets[0] for e in classify_events(matrix, 0.1) if e.kind == EVENT_BIRTH}
    assert births == {0}
    assert convergence[0] == 0.0
    assert convergence[1] == 0.5


def test_tau_domain():
    matrix = similarity_matrix(partition({"a"}), partition({"a"}))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(TransitionError, match="tau"):
            classify_events(matrix, bad)


def test_simple_persist():
    matrix = similarity_matrix(partition({"a", "b", "c"}), partition({"a", "b", "c"}))
    events = classify_events(matrix, 0.1)
    assert [e.kind for e in events] == [EVENT_PERSIST]
    assert events[0].sources == (0,) and events[0].targets == (0,)
    assert events[0].supports == (1.0,)


def test_split_and_persist_suppression():
    matrix = similarity_matrix(partition({"a", "b", "c", "d"}), partition({"a", "b"}, {"c", "d"}))
    events = classify_events(matrix, 0.1)
    assert [e.kind for e in events] == [EVENT_SPLIT]
    assert events[0].sources == (0,)
    assert events[0].targets == (0, 1)
    assert events[0].supports == (1.0, 1.0)


def test_merge_and_split_not_mutually_exclusive():
    # crosswise recombination: every overlap is half of each successor
    t = partition({"a", "b"}, {"c", "d"})
    t1 = partition({"a", "c"}, {"b", "d"})
    events = classify_events(similarity_matrix(t, t1), 0.1)
    kinds = sorted(e.kind for e in events)
    assert kinds == [EVENT_MERGE, EVENT_MERGE, EVENT_SPLIT, EVENT_SPLIT]


def test_sub_threshold_overlap_is_not_death():
    # a faint surviving trace below tau blocks the death call
    t = partition(set(names("a", 3)))
    t1 = partition({"a000"} | set(names("f", 20)))
    events = classify_events(similarity_matrix(t, t1), 0.1)
    assert events == []


def test_event_permutation_invariance():
    base_t = [{"a", "b"}, {"c", "d", "e"}, {"f"}]
    base_t1 = [{"a", "c"}, {"b", "d"}, {"g", "h"}]
    reference = classify_events(similarity_matrix(partition(*base_t), partition(*base_t1)), 0.1)

    perm_t = [2, 0, 1]   # new position of old cluster i
    perm_t1 = [1, 2, 0]
    shuffled_t = [base_t[perm_t.index(p)] for p in range(3)]
    shuffled_t1 = [base_t1[perm_t1.index(p)] for p in range(3)]
    shuffled = classify_events(similarity_matrix(partition(*shuffled_t), partition(*shuffled_t1)), 0.1)

    def canonical(events, map_t, map_t1):
        return sorted(
            (e.kind,
             tuple(sorted(map_t[s] for s in e.sources)),
             tuple(sorted(map_t1[t] for t in e.targets)),
             tuple(sorted(e.supports)))
            for e in events
        )

    identity = list(range(3))
    inv_t = {perm_t[i]: i for i in range(3)}
    inv_t1 = {perm_t1[i]: i for i in range(3)}
    assert canonical(reference, identity, identity) == canonical(shuffled, inv_t, inv_t1)


def test_transition_report_wiring():
    report = transition_report(partition({"a", "b"}), partition({"a", "c"}), tau=0.3)
    assert report.tau == 0.3
    assert report.convergence == {0: 0.5}
    assert report.novelty == {0: 0.5}
    assert [e.kind for e in report.events] == [EVENT_PERSIST]
    jaccard = transition_report(partition({"a"}), partition({"a"}), measure=MEASURE_JACCARD)
    assert jaccard.convergence == {} and jaccard.novelty == {}


def test_similarity_csv_format(tmp_path):
    report = transition_report(partition({"a", "b", "c"}, {"d"}), partition({"a", "d", "e"}))
    path = tmp_path / "sim.csv"
    export_similarity_csv(report, path, labels_t=["alpha", "beta"], labels_t1=["gamma"])
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["", "gamma"]
    assert rows[1] == ["alpha", "0.333333"]
    assert rows[2] == ["beta", "0.333333"]


def test_report_json_payload(tmp_path):
    report = transition_report(partition({"a", "b"}), partition({"a", "c"}))
    path = tmp_path / "report.json"
    export_report_json(report, path, ["old"], ["new"])
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["measure"] == "overlap_target"
    assert payload["cluster_labels_t"] == ["old"]
    assert payload["cluster_labels_t1"] == ["new"]
    assert payload["similarity"] == [[0.5]]
    assert payload["intersections"] == [[1]]
    assert payload["convergence_index"] == {"0": 0.5}
    assert payload["novelty_index"] == {"0": 0.5}
    assert payload["events"] == [
        {"kind": "persist", "sources": [0], "targets": [0], "supports": [0.5]}
    ]


def test_alluvial_rows_and_ordering(tmp_path):
    # source sizes 5 and 2; flows from the big source: 3 then 2
    t = partition(set(names("a", 3)) | set(names("b", 2)), {"x", "y"})
    t1 = partition(set(names("a", 3)) | {"x"}, set(names("b", 2)) | {"y"})
    report = transition_report(t, t1)
    path = tmp_path / "flows.csv"
    alluvial_export(report, path, ["big", "small"], ["left", "right"])
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["source_cluster", "target_cluster", "flow_weight", "source_label", "target_label"]
    assert rows[1] == ["0", "0", "3", "big", "left"]
    assert rows[2] == ["0", "1", "2", "big", "right"]
    assert rows[3] == ["1", "0", "1", "small", "left"]
    assert rows[4] == ["1", "1", "1", "small", "right"]
    assert len(rows) == 5


def test_alluvial_header_only_when_disjoint(tmp_path):
    report = transition_report(partition({"a"}), partition({"b"}))
    path = tmp_path / "flows.csv"
    alluvial_export(report, path, ["a"], ["b"])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["source_cluster,target_cluster,flow_weight,source_label,target_label"]


@pytest.mark.parametrize(
    "export", [export_similarity_csv, export_report_json, alluvial_export], ids=["similarity_csv", "report_json", "alluvial_csv"]
)
@pytest.mark.parametrize("labels_t,labels_t1", [
    (["a"], ["x", "y"]),
    (["a", "b", "c"], ["x", "y"]),
    (["a", "b"], ["x"]),
    (["a", "b"], ["x", "y", "z"]),
    (["a", "b"] * 25, ["x", "y"]),
], ids=["short-t", "long-t", "short-t1", "long-t1", "50-at-t"])
def test_similarity_and_report_exports_refuse_a_label_list_of_the_wrong_length(tmp_path, export, labels_t, labels_t1):
    report = transition_report(partition({"a", "b"}, {"c"}), partition({"a"}, {"b", "c"}))
    path = tmp_path / "out"
    with pytest.raises(TransitionError, match="^label lists must match the cluster counts$"):
        export(report, path, labels_t, labels_t1)
    assert not path.exists()


@st.composite
def partitions(draw):
    """A partition of 1 to 30 names into 1 to all of them clusters."""
    members = draw(st.lists(st.sampled_from(names("u", 30)), min_size=1, max_size=30, unique=True))
    k = draw(st.integers(1, len(members)))
    rest = len(members) - k
    ids = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=rest, max_size=rest))
    return Partition(dict(zip(members, ids)), 0.0, k)


@settings(max_examples=max(500, settings.default.max_examples), deadline=None)
@given(partitions(), partitions(), st.sampled_from(MEASURES), st.floats(0.01, 0.99))
def test_transition_matches_numpy_oracle(part_t, part_t1, measure, tau):
    report = transition_report(part_t, part_t1, tau=tau, measure=measure)
    matrix = report.similarity
    inter, values, row_sizes, col_sizes = similarity_matrix_reference(part_t, part_t1, measure)
    assert matrix.intersections == tuple(map(tuple, inter.tolist()))
    assert matrix.row_sizes == tuple(row_sizes.tolist())
    assert matrix.col_sizes == tuple(col_sizes.tolist())
    assert matrix.values == tuple(map(tuple, values.tolist()))
    assert list(report.events) == classify_events_reference(values, tau)
    if measure != MEASURE_OVERLAP_TARGET:
        return
    convergence, novelty = inheritance_indices_reference(values)
    if part_t1.cluster_count >= 2:
        # row-order += equals numpy's column sums bit for bit
        assert report.convergence == convergence
        assert report.novelty == novelty
    else:
        # numpy sums a single column of 8 or more rows in interleaved partial
        # sums, not in row order. Either order of m non-negative terms lies
        # within about (m - 1) * 2**-53 * S of their exact sum S, and
        # 2**-53 * S < ulp(S).
        bound = 2 * (part_t.cluster_count - 1) * math.ulp(convergence[0])
        assert abs(report.convergence[0] - convergence[0]) <= bound
        assert report.novelty[0] == 1.0 - report.convergence[0]

"""Cluster evolution between two windows.

Given the partitions of two adjacent time windows, this module builds the
cluster-overlap similarity matrix, per-cluster convergence/novelty indices,
and a classified list of evolution events (birth, death, merge, split,
persist). Raw intersection counts and cluster sizes are kept alongside the
normalized similarity values so flows can be exported exactly. Partitions
carry dense cluster ids, so row i of every matrix is cluster i of the
earlier window and column j is cluster j of the later one. The matrices are
tuples of tuples: they hold a few dozen clusters a side, so plain Python is
enough.

The default similarity measure divides each intersection by the size of the
later (t+1) cluster; a column sum then equals the fraction of that
cluster's nodes already present anywhere in the earlier window, which is
exactly the convergence index. Jaccard similarity is available for
exploration but the indices are undefined for it. ``measure`` and ``tau``
meet the rules of their `config.SETTINGS` entries, or raise TransitionError.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .community import Partition
from .config import MEASURE_OVERLAP_TARGET, SETTINGS, check_setting
from .errors import TransitionError
from .fileio import write_csv, write_json

EVENT_BIRTH = "birth"
EVENT_DEATH = "death"
EVENT_MERGE = "merge"
EVENT_SPLIT = "split"
EVENT_PERSIST = "persist"

_CLAMP_GUARD = 1e-12


# M x K cluster-overlap matrix: row i is cluster i at t, column j is cluster j
# at t+1. values (floats) and intersections (ints) are tuples of rows,
# row_sizes and col_sizes the cluster sizes, measure the similarity measure.
SimilarityMatrix = namedtuple("SimilarityMatrix", "values intersections row_sizes col_sizes measure")

# kind (one of the EVENT_* names), sources and targets (cluster ids), supports
# (the similarity values that made the event)
TransitionEvent = namedtuple("TransitionEvent", "kind sources targets supports")

# similarity (a SimilarityMatrix), convergence and novelty ({t+1 cluster id:
# index}), events (TransitionEvents) and the tau they were read with
TransitionReport = namedtuple("TransitionReport", "similarity convergence novelty events tau")


def similarity_matrix(
    part_t: Partition,
    part_t1: Partition,
    measure: str = SETTINGS["measure"].default,
) -> SimilarityMatrix:
    """Node-name overlap between every cluster at t and every cluster at t+1."""
    check_setting("measure", measure, TransitionError)
    members_t = [set(block) for block in part_t.clusters()]
    members_t1 = [set(block) for block in part_t1.clusters()]
    inter = tuple(tuple(len(vi & vj) for vj in members_t1) for vi in members_t)
    row_sizes = tuple(len(v) for v in members_t)
    col_sizes = tuple(len(v) for v in members_t1)
    if measure == MEASURE_OVERLAP_TARGET:
        values = tuple(tuple(n / c for n, c in zip(row, col_sizes)) for row in inter)
    else:
        values = tuple(
            tuple(n / (r + c - n) for n, c in zip(row, col_sizes))
            for row, r in zip(inter, row_sizes)
        )
    return SimilarityMatrix(
        values=values,
        intersections=inter,
        row_sizes=row_sizes,
        col_sizes=col_sizes,
        measure=measure,
    )


def inheritance_indices(matrix: SimilarityMatrix) -> tuple[dict[int, float], dict[int, float]]:
    """(convergence, novelty) per t+1 cluster.

    Convergence = the column sum = fraction of the cluster's nodes present
    anywhere in the earlier window; novelty is its complement. Both are
    clamped to [0, 1] after a 1e-12 rounding guard. Each column is summed
    with += in row order, because the built-in sum() compensates from
    Python 3.12 on and would make the written indices depend on the Python
    version.
    """
    if matrix.measure != MEASURE_OVERLAP_TARGET:
        raise TransitionError("indices defined only for overlap_target")
    col_sums = [0.0] * len(matrix.col_sizes)
    for row in matrix.values:
        for j, v in enumerate(row):
            col_sums[j] += v
    convergence: dict[int, float] = {}
    novelty: dict[int, float] = {}
    for j, ci in enumerate(col_sums):
        if ci < 0.0:
            if ci < -_CLAMP_GUARD:
                raise TransitionError(f"column sum {ci} below 0 for cluster {j}")
            ci = 0.0
        if ci > 1.0:
            if ci > 1.0 + _CLAMP_GUARD:
                raise TransitionError(f"column sum {ci} above 1 for cluster {j}")
            ci = 1.0
        convergence[j] = ci
        novelty[j] = 1.0 - ci
    return convergence, novelty


def classify_events(matrix: SimilarityMatrix, tau: float) -> list[TransitionEvent]:
    """Read birth/death/merge/split/persist events off the similarity matrix.

    death(i): row i all zero;  birth(j): column j all zero;
    merge(j): >= 2 entries of column j reach tau;
    split(i): >= 2 entries of row i reach tau;
    persist(i -> j): S_ij >= tau and neither merge(j) nor split(i) holds.
    Merge and split are not mutually exclusive.
    """
    check_setting("tau", tau, TransitionError)
    values = matrix.values
    m, k = len(matrix.row_sizes), len(matrix.col_sizes)
    events: list[TransitionEvent] = []
    merged_cols: set[int] = set()
    split_rows: set[int] = set()
    for i in range(m):
        if not any(values[i]):
            events.append(TransitionEvent(EVENT_DEATH, (i,), (), ()))
    for j in range(k):
        if not any(row[j] for row in values):
            events.append(TransitionEvent(EVENT_BIRTH, (), (j,), ()))
    for j in range(k):
        rows = [i for i in range(m) if values[i][j] >= tau]
        if len(rows) >= 2:
            merged_cols.add(j)
            events.append(TransitionEvent(EVENT_MERGE, tuple(rows), (j,), tuple(values[i][j] for i in rows)))
    for i in range(m):
        cols = [j for j in range(k) if values[i][j] >= tau]
        if len(cols) >= 2:
            split_rows.add(i)
            events.append(TransitionEvent(EVENT_SPLIT, (i,), tuple(cols), tuple(values[i][j] for j in cols)))
    for i in range(m):
        for j in range(k):
            if values[i][j] >= tau and j not in merged_cols and i not in split_rows:
                events.append(TransitionEvent(EVENT_PERSIST, (i,), (j,), (values[i][j],)))
    return events


def transition_report(
    part_t: Partition,
    part_t1: Partition,
    tau: float = SETTINGS["tau"].default,
    measure: str = SETTINGS["measure"].default,
) -> TransitionReport:
    """Full comparison of two clustered windows."""
    matrix = similarity_matrix(part_t, part_t1, measure)
    if measure == MEASURE_OVERLAP_TARGET:
        convergence, novelty = inheritance_indices(matrix)
    else:
        convergence, novelty = {}, {}
    events = classify_events(matrix, tau)
    return TransitionReport(
        similarity=matrix,
        convergence=convergence,
        novelty=novelty,
        events=tuple(events),
        tau=tau,
    )


def _check_labels(matrix: SimilarityMatrix, labels_t: list[str], labels_t1: list[str]) -> None:
    """Raise TransitionError unless there is one label per cluster at t and one per cluster at t+1."""
    if len(labels_t) != len(matrix.row_sizes) or len(labels_t1) != len(matrix.col_sizes):
        raise TransitionError("label lists must match the cluster counts")


def export_similarity_csv(report: TransitionReport, path: str | Path, labels_t: list[str], labels_t1: list[str]) -> None:
    """CSV: header = t+1 cluster labels, first column = t cluster labels, 6 decimals."""
    matrix = report.similarity
    _check_labels(matrix, labels_t, labels_t1)
    rows = [[""] + list(labels_t1)]
    rows += [[label] + [f"{v:.6f}" for v in row] for label, row in zip(labels_t, matrix.values)]
    write_csv(path, rows)


def export_report_json(report: TransitionReport, path: str | Path, labels_t: list[str], labels_t1: list[str]) -> None:
    matrix = report.similarity
    _check_labels(matrix, labels_t, labels_t1)
    write_json(path, {
        "measure": matrix.measure,
        "tau": report.tau,
        "clusters_t": list(range(len(matrix.row_sizes))),
        "clusters_t1": list(range(len(matrix.col_sizes))),
        "cluster_labels_t": labels_t,
        "cluster_labels_t1": labels_t1,
        "cluster_sizes_t": list(matrix.row_sizes),
        "cluster_sizes_t1": list(matrix.col_sizes),
        "similarity": [list(row) for row in matrix.values],
        "intersections": [list(row) for row in matrix.intersections],
        "convergence_index": {str(cid): val for cid, val in sorted(report.convergence.items())},
        "novelty_index": {str(cid): val for cid, val in sorted(report.novelty.items())},
        "events": [
            {"kind": e.kind, "sources": list(e.sources), "targets": list(e.targets), "supports": list(e.supports)}
            for e in report.events
        ],
    })


def alluvial_export(
    report: TransitionReport,
    path: str | Path,
    labels_t: list[str],
    labels_t1: list[str],
) -> None:
    """Flow table for alluvial/sankey plotting.

    One row per positive cluster overlap, flow weight = shared node count,
    sorted by source cluster size descending, then flow descending.
    """
    matrix = report.similarity
    _check_labels(matrix, labels_t, labels_t1)
    rows = []
    for i, row in enumerate(matrix.intersections):
        for j, flow in enumerate(row):
            if flow > 0:
                rows.append((i, j, flow, labels_t[i], labels_t1[j], matrix.row_sizes[i]))
    rows.sort(key=lambda r: (-r[5], -r[2], r[0], r[1]))
    header = ("source_cluster", "target_cluster", "flow_weight", "source_label", "target_label")
    write_csv(path, [header] + [row[:5] for row in rows])

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
meet the rules of their `PipelineConfig` fields, or raise TransitionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .community import Partition
from .config import MEASURE_OVERLAP_TARGET, check_setting
from .errors import TransitionError
from .fileio import atomic_write_text, json_text, write_csv

EVENT_BIRTH = "birth"
EVENT_DEATH = "death"
EVENT_MERGE = "merge"
EVENT_SPLIT = "split"
EVENT_PERSIST = "persist"

_CLAMP_GUARD = 1e-12


@dataclass(frozen=True)
class SimilarityMatrix:
    """M x K cluster-overlap matrix: row i is cluster i at t, column j is cluster j at t+1."""

    values: tuple[tuple[float, ...], ...]
    intersections: tuple[tuple[int, ...], ...]
    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]
    measure: str


@dataclass(frozen=True)
class TransitionEvent:
    kind: str
    sources: tuple[int, ...]
    targets: tuple[int, ...]
    supports: tuple[float, ...]


@dataclass(frozen=True)
class TransitionReport:
    similarity: SimilarityMatrix
    convergence: dict[int, float]
    novelty: dict[int, float]
    events: tuple[TransitionEvent, ...]
    tau: float


def similarity_matrix(
    part_t: Partition,
    part_t1: Partition,
    measure: str = MEASURE_OVERLAP_TARGET,
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
    tau: float = 0.1,
    measure: str = MEASURE_OVERLAP_TARGET,
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


def export_similarity_csv(
    matrix: SimilarityMatrix,
    path: str | Path,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
) -> None:
    """CSV: header = t+1 cluster labels, first column = t cluster labels, 6 decimals."""
    row_labels = row_labels or [str(i) for i in range(len(matrix.row_sizes))]
    col_labels = col_labels or [str(j) for j in range(len(matrix.col_sizes))]
    rows = [[""] + list(col_labels)]
    rows += [[label] + [f"{v:.6f}" for v in matrix.values[i]] for i, label in enumerate(row_labels)]
    write_csv(path, rows)


def report_to_json(report: TransitionReport, row_labels: list[str] | None = None, col_labels: list[str] | None = None) -> str:
    matrix = report.similarity
    clusters_t = list(range(len(matrix.row_sizes)))
    clusters_t1 = list(range(len(matrix.col_sizes)))
    payload = {
        "measure": matrix.measure,
        "tau": report.tau,
        "clusters_t": clusters_t,
        "clusters_t1": clusters_t1,
        "cluster_labels_t": row_labels or [str(c) for c in clusters_t],
        "cluster_labels_t1": col_labels or [str(c) for c in clusters_t1],
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
    }
    return json_text(payload)


def export_report_json(report: TransitionReport, path: str | Path, row_labels=None, col_labels=None) -> None:
    atomic_write_text(path, report_to_json(report, row_labels, col_labels))


def alluvial_export(
    report: TransitionReport,
    labels_t: list[str],
    labels_t1: list[str],
    path: str | Path,
) -> None:
    """Flow table for alluvial/sankey plotting.

    One row per positive cluster overlap, flow weight = shared node count,
    sorted by source cluster size descending, then flow descending.
    """
    matrix = report.similarity
    if len(labels_t) != len(matrix.row_sizes) or len(labels_t1) != len(matrix.col_sizes):
        raise TransitionError("label lists must match the cluster counts")
    rows = []
    for i, row in enumerate(matrix.intersections):
        for j, flow in enumerate(row):
            if flow > 0:
                rows.append((i, j, flow, labels_t[i], labels_t1[j], matrix.row_sizes[i]))
    rows.sort(key=lambda r: (-r[5], -r[2], r[0], r[1]))
    header = ("source_cluster", "target_cluster", "flow_weight", "source_label", "target_label")
    write_csv(path, [header] + [row[:5] for row in rows])

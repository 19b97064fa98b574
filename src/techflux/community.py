"""Weighted modularity and deterministic Louvain community detection.

The classical Louvain procedure visits nodes in random order, which makes
cluster ids (and everything computed from them) irreproducible. Since the
whole downstream transition analysis compares partitions across windows,
this implementation pins every source of nondeterminism:

* nodes are traversed in fixed orders: index order, and descending degree
  with ties in index order. Level-0 node i is graph node i, the i-th name
  in sorted order, and aggregation numbers supernodes by their first
  member, so at every level index order is that of smallest member names;
* in the greedy phases a node moves only on strictly positive gain, which
  guarantees termination without cycle detection;
* ties between equally good target communities go to the smallest community
  id;
* final cluster ids are dense integers assigned by the lexicographically
  smallest member of each cluster.

Greedy local moving is order-sensitive and can stall in poor local optima
on small graphs, so each multilevel descent alternates with a refinement
stage: a greedy fixpoint over single-node moves plus an escape search that
chains forced relocations and keeps the best-scoring prefix. Both stages
keep one link table per node (community -> link weight) and each move
updates only the mover's neighbours, exact at every level on integer edge
weights; the greedy fixpoint hands its final tables to the escape search,
which then re-scores only the gains toward the two communities a move
touched. The escape search is a pure function of the level, the
resolution, the traversal order and the assignment, and the first three
are fixed within one descent; so a descent remembers the last assignment a
search found no improvement for and does not search it again, which
returns what the search would. The memo matches the exact label list, and
also the same partition under other labels when that search broke no tie
between equally good targets: only such a tie lets the labels decide.
The descent runs once per traversal order and the higher-quality result
wins, with ties going to the lexicographic sweep. Every stage uses fixed
orders and tie-breaks, so repeated runs on the same graph yield identical
partitions.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cograph import CoGraph
from .config import SETTINGS, check_setting
from .errors import CommunityError
from .fileio import write_json
from .records import Checked

EDGELESS_MSG = "modularity undefined on edgeless graph"


class Partition(Checked, namedtuple("Partition", "assignment modularity cluster_count")):
    """Disjoint assignment of node names to dense 0-based cluster ids."""

    __slots__ = ()

    def __new__(cls, assignment: dict[str, int], modularity: float, cluster_count: int) -> Partition:
        if not assignment:
            raise CommunityError("partition must assign at least one node")
        if cluster_count < 1:
            raise CommunityError("cluster_count must be >= 1")
        for node, cid in assignment.items():
            if isinstance(cid, bool) or not isinstance(cid, int):
                raise CommunityError(f"node {node!r}: cluster id {cid!r} is not an integer")
            if cid < 0 or cid >= cluster_count:
                raise CommunityError(f"node {node!r}: cluster id {cid!r} outside 0..{cluster_count - 1}")
        used = set(assignment.values())
        if len(used) < cluster_count:
            unused = min(set(range(cluster_count)) - used)
            raise CommunityError(f"cluster {unused} has no nodes (ids must be dense 0..{cluster_count - 1})")
        return tuple.__new__(cls, (assignment, modularity, cluster_count))

    def clusters(self) -> list[tuple[str, ...]]:
        """Every cluster's member names, sorted, in one pass over the assignment."""
        blocks: list[list[str]] = [[] for _ in range(self.cluster_count)]
        for name in sorted(self.assignment):
            blocks[self.assignment[name]].append(name)
        return [tuple(block) for block in blocks]


# cluster_id (int), suggested_label (str) and top_tags (tuple of up to 5 member names)
ClusterLabel = namedtuple("ClusterLabel", "cluster_id suggested_label top_tags")


def modularity(graph: CoGraph, partition: Partition | dict[str, int], resolution: float = 1.0) -> float:
    """Weighted Newman modularity of a partition.

    Q = sum over clusters of [ w_in/(2m) - resolution * (w_tot/(2m))^2 ],
    where w_in counts each intra-cluster edge's weight twice and w_tot sums
    the weighted degrees of the cluster's nodes. Resolution 1 gives the
    standard measure; other values give the quality Louvain optimizes at
    that resolution. The sums walk the index triples, as Louvain's ranking of its descents does.
    """
    assignment = partition.assignment if isinstance(partition, Partition) else partition
    names = graph.node_names()
    if set(assignment) != set(names):
        missing = sorted(set(names) - set(assignment))[:3]
        extra = sorted(set(assignment) - set(names))[:3]
        raise CommunityError(f"incomplete partition: missing={missing} extra={extra}")
    if not graph.edges:
        raise CommunityError(EDGELESS_MSG)
    return _quality(graph, [assignment[name] for name in names], resolution)


def _quality(graph: CoGraph, labels: list[int], resolution: float) -> float:
    """Modularity at the resolution of a graph with edges, labels[i] being node i's community.

    w_in and w_tot sum integers, exact in doubles, and math.fsum rounds once
    in any term order, so relabelling the partition leaves every bit alone.
    """
    two_m = 2.0 * graph.total_weight()
    w_in: dict[int, float] = {}
    w_tot = dict.fromkeys(labels, 0.0)
    for u, v, weight in graph.edges:
        cu, cv = labels[u], labels[v]
        if cu == cv:
            w_in[cu] = w_in.get(cu, 0.0) + 2.0 * weight
        w_tot[cu] += weight
        w_tot[cv] += weight
    return math.fsum(w_in.get(c, 0.0) / two_m - resolution * (w_tot[c] / two_m) ** 2 for c in w_tot)


class _Level:
    """One aggregation level: nodes 0..size-1, adjacency, self-loops, degrees."""

    def __init__(self, adj: list[dict[int, float]], self_w: list[float]):
        self.adj = adj
        self.self_w = self_w
        self.degree = [sum(nbrs.values()) + 2.0 * self_w[i] for i, nbrs in enumerate(adj)]
        self.m = sum(self.degree) / 2.0

    @property
    def size(self) -> int:
        return len(self.adj)


def _lex_order(level: _Level) -> list[int]:
    return list(range(level.size))


def _degree_order(level: _Level) -> list[int]:
    return sorted(range(level.size), key=lambda i: (-level.degree[i], i))


def _link_tables(level: _Level, com: list[int]) -> tuple[dict[int, float], list[dict[int, float]]]:
    """Total degree per community, and per node its link weight into each neighbouring community."""
    tot: dict[int, float] = {}
    for i, k_i in enumerate(level.degree):
        tot[com[i]] = tot.get(com[i], 0.0) + k_i
    links: list[dict[int, float]] = []
    for nbrs in level.adj:
        table: dict[int, float] = {}
        for j, w in nbrs.items():
            table[com[j]] = table.get(com[j], 0.0) + w
        links.append(table)
    return tot, links


def _move(
    level: _Level, com: list[int], tot: dict[int, float], links: list[dict[int, float]], i: int, target: int
) -> None:
    """Move node i into community target, updating the tables of _link_tables in place.

    A move from A to B changes only tot[A], tot[B] and the neighbours' link
    weights toward A and B. The updates are exact at every level: CoGraph
    weights are integers, aggregation sums them, and self-loops sit in
    self_w, outside the tables. So every link weight and total is an integer
    held exactly in a double in any update order, an emptied link reaches
    exactly 0.0 and is deleted, and the tables equal a fresh _link_tables
    (an emptied community keeps its total, 0.0).
    """
    source = com[i]
    k_i = level.degree[i]
    tot[source] -= k_i
    com[i] = target
    tot[target] = tot.get(target, 0.0) + k_i
    for j, w in level.adj[i].items():
        table = links[j]
        left = table[source] - w
        if left == 0.0:
            del table[source]
        else:
            table[source] = left
        table[target] = table.get(target, 0.0) + w


def _local_phase(
    level: _Level, resolution: float, order: list[int], com: list[int] | None = None
) -> tuple[list[int], int, tuple[dict[int, float], list[dict[int, float]]]]:
    """Greedy node moves until no strictly positive gain remains.

    A detached node of degree k_i gains w/m - resolution * tot_c * k_i /
    (2 m^2) by joining community c, where w is its link weight into c and
    tot_c the total degree of c without it; terms constant in the target
    are dropped. The node moves to the best community other than its home
    (smallest label on ties) only when that gains strictly more than
    rejoining home, so ties keep it home. The link tables are built once,
    as copies of the degrees and the adjacency on a singleton start; _move
    keeps them current. Returns (community label per node, number of moves
    made, the final tables (tot, links)), the tables equal to _link_tables
    of the labels returned. Starts from singletons unless an assignment is
    given; singleton labels are the initial node indices, so "smallest
    community id" is well defined and deterministic.
    """
    degree = level.degree
    if com is None:
        com = list(range(level.size))
        tot, links = dict(enumerate(degree)), [dict(nbrs) for nbrs in level.adj]
    else:
        com = list(com)
        tot, links = _link_tables(level, com)
    m = level.m
    two_m2 = 2.0 * m * m
    total_moves = 0
    while True:
        moves = 0
        for i in order:
            k_i = degree[i]
            home = com[i]
            table = links[i]
            # Detach i, then compare reinsertion gains, starting from home's.
            best_c = home
            best_gain = table.get(home, 0.0) / m - resolution * (tot[home] - k_i) * k_i / two_m2
            for c, w in table.items():
                if c == home:
                    continue
                gain = w / m - resolution * tot[c] * k_i / two_m2
                if gain > best_gain or (gain == best_gain and c < best_c and best_c != home):
                    best_c, best_gain = c, gain
            if best_c != home:
                _move(level, com, tot, links, i, best_c)
                moves += 1
        total_moves += moves
        if moves == 0:
            return com, total_moves, (tot, links)


_ESCAPE_MAX_NODES = 512


def _escape_round(
    level: _Level,
    resolution: float,
    order: list[int],
    com: list[int],
    tables: tuple[dict[int, float], list[dict[int, float]]] | None = None,
) -> tuple[list[int], bool, bool]:
    """One escape round: chained forced moves with best-prefix acceptance.

    Repeatedly applies the single best relocation over all not-yet-moved
    nodes, even when it loses quality, locking each moved node. A node's
    relocation goes to its best neighbouring community, or to a fresh
    singleton when every alternative loses; the move picked is the first
    node in traversal order with the largest quality delta. The longest
    prefix of the move chain with the largest cumulative gain is kept if
    that gain is strictly positive. This recovers optima that need short
    coordinated move sequences, which the one-node-at-a-time greedy phase
    cannot reach.

    A move from community A to B changes only the gains toward A and B
    (_move), so each node keeps a cached best target beside its link table.
    After a move, a node whose cached target is A, B or None rescans its
    link table; any other node only weighs A and B against its cached
    target, in the same inline candidate loop. A step costs O(n) plus the
    rescans, not a re-score of every link of every unlocked node, and builds
    the chain that re-scoring from scratch would, as _move is exact. tables
    are _link_tables(level, com), as _local_phase returns them; the round
    consumes them, and builds its own when none are given. Levels above
    _ESCAPE_MAX_NODES nodes are skipped: the round stays quadratic in node
    count.

    Returns (assignment, improved, tie_free). tie_free is False when some
    target choice compared two distinct candidates of equal gain, the one
    place where a label, not a value, can decide. Without such a tie every
    decision compares label-free quantities strictly, set tests and t ==
    home read the same under any injective relabelling, and fresh labels
    stay above every existing one; so the round on a relabelled assignment
    runs the relabelled chain and returns the same partition and improved
    flag. A level over the size cap is skipped whatever its labels, so
    tie-free.

    The round depends on nothing but its arguments, so an assignment it
    returned unimproved stays certified while level, resolution and order
    stay fixed: _refine skips the round on an assignment equal, label for
    label, to the one its descent last certified, and on any labelling of
    that partition when the certifying round was tie-free.
    """
    n = level.size
    if n > _ESCAPE_MAX_NODES:
        return com, False, True
    m = level.m
    two_m2 = 2.0 * m * m
    degree = level.degree
    work = list(com)
    tot, links = _link_tables(level, work) if tables is None else tables
    target: list[int | None] = [None] * n
    target_gain = [0.0] * n
    next_fresh = max(work) + 1
    unlocked = list(order)
    moved: tuple[int, ...] = ()
    cum = 0.0
    best_cum = 0.0
    best_len = 0
    trail: list[tuple[int, int]] = []
    tie_free = True
    while unlocked:
        pick = None
        pick_target = 0
        pick_delta = 0.0
        for i in unlocked:
            k_i = degree[i]
            home = work[i]
            table = links[i]
            c = target[i]
            if c is None or c in moved:
                # Full rescan of the link table.
                c = None
                gain = 0.0
                candidates = table
            else:
                # Only the two communities of the last move can beat the cached target.
                gain = target_gain[i]
                candidates = moved
            for t in candidates:
                if t == home or t not in table:
                    continue
                t_gain = table[t] / m - resolution * tot[t] * k_i / two_m2
                if c is None or t_gain > gain:
                    c, gain = t, t_gain
                elif t_gain == gain:
                    tie_free = False
                    if t < c:
                        c, gain = t, t_gain
            target[i] = c
            target_gain[i] = gain
            link_home = table.get(home, 0.0)
            tot_home = tot[home] - k_i
            if (c is None or gain < 0.0) and (link_home != 0.0 or tot_home != 0.0):
                # Detaching into a fresh singleton beats every lossy alternative.
                c, gain = next_fresh, 0.0
            if c is None:
                continue
            delta = gain - (link_home / m - resolution * tot_home * k_i / two_m2)
            if pick is None or delta > pick_delta:
                pick, pick_target, pick_delta = i, c, delta
        if pick is None:
            break
        source = work[pick]
        if pick_target == next_fresh:
            next_fresh += 1
        _move(level, work, tot, links, pick, pick_target)
        moved = (source, pick_target)
        unlocked.remove(pick)
        cum += pick_delta
        trail.append((pick, pick_target))
        if cum > best_cum + 1e-12:
            best_cum = cum
            best_len = len(trail)
    if best_len == 0:
        return com, False, tie_free
    result = list(com)
    for i, c in trail[:best_len]:
        result[i] = c
    return result, True, tie_free


def _refine(
    level: _Level,
    resolution: float,
    order: list[int],
    com: list[int],
    certified: tuple[list[int], bool] | None,
) -> tuple[list[int], bool, bool]:
    """Greedy fixpoint plus escape rounds until neither improves the assignment.

    certified is (labels, tie_free) of an assignment an earlier escape round
    of the same descent found no improvement for. The round is not run on
    those labels again, nor, when that round was tie-free, on the same
    partition under other labels (equal first-occurrence canonical lists):
    either way it would return the assignment unimproved. The local phase
    hands its final tables to the round. Returns (assignment, changed,
    tie_free): the assignment is always certified, by a round or by the
    memo, and tie_free says whether that certificate covers every labelling.
    """
    changed = False
    while True:
        com, moves, tables = _local_phase(level, resolution, order, com)
        if moves:
            changed = True
        if certified is not None:
            labels, tie_free = certified
            if com == labels or (tie_free and _canonical(com) == _canonical(labels)):
                return com, changed, tie_free
        com, improved, tie_free = _escape_round(level, resolution, order, com, tables)
        if not improved:
            return com, changed, tie_free
        changed = True


def _aggregate(level: _Level, com: list[int]) -> tuple[_Level, dict[int, int]]:
    """Collapse communities into supernodes; intra-community weight becomes a self-loop."""
    # supernodes in order of first member: index order stays smallest-name order
    ordered = list(dict.fromkeys(com))
    new_index = {c: idx for idx, c in enumerate(ordered)}
    adj: list[dict[int, float]] = [{} for _ in ordered]
    self_w = [0.0] * len(ordered)
    for i in range(level.size):
        ci = new_index[com[i]]
        self_w[ci] += level.self_w[i]
        for j, w in level.adj[i].items():
            if j <= i:
                continue
            cj = new_index[com[j]]
            if ci == cj:
                self_w[ci] += w
            else:
                adj[ci][cj] = adj[ci].get(cj, 0.0) + w
                adj[cj][ci] = adj[cj].get(ci, 0.0) + w
    return _Level(adj, self_w), new_index


def _multilevel_from(level: _Level, resolution: float, order_fn, com: list[int]) -> list[int]:
    """Continue the multilevel descent from an existing assignment.

    Aggregates the given communities into supernodes, then alternates greedy
    supernode moves and further aggregation until a phase makes no move.
    Returns, for each node of the input level, an integer label of its final
    community.
    """
    level_now, new_index = _aggregate(level, com)
    node_com = [new_index[c] for c in com]
    while True:
        moved, moves, _ = _local_phase(level_now, resolution, order_fn(level_now))
        if moves == 0:
            return node_com
        level_now, new_index = _aggregate(level_now, moved)
        node_com = [new_index[moved[c]] for c in node_com]


def _descend(level: _Level, resolution: float, order_fn) -> list[int]:
    """One full clustering pass: multilevel descent alternating with refinement.

    The multilevel stage guarantees no whole-community merge can improve the
    result; the refinement stage guarantees no single node move or short
    coordinated sequence can. Iterating both to a joint fixpoint keeps each
    guarantee in the final assignment.
    """
    order = order_fn(level)
    # aggregating the singletons would copy level 0, so the first greedy phase runs on level 0 itself
    com, _, _ = _local_phase(level, resolution, order)
    certified = None
    while True:
        com = _multilevel_from(level, resolution, order_fn, com)
        com, changed, tie_free = _refine(level, resolution, order, com, certified)
        if not changed:
            return com
        certified = (com, tie_free)


def _canonical(com: list[int]) -> list[int]:
    """The partition's labels renumbered 0, 1, ... in order of first occurrence."""
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in com]


def _dense_assignment(names: tuple[str, ...], node_com: list[int]) -> dict[str, int]:
    """Relabel communities with dense ids ordered by smallest member name, that is by first node."""
    return dict(zip(names, _canonical(node_com)))


def louvain(graph: CoGraph, resolution: float = SETTINGS["resolution"].default) -> Partition:
    """Multilevel modularity maximization with refinement, fully deterministic.

    Greedy local moving is sensitive to traversal order, so the full descent
    (multilevel passes alternating with refinement) runs twice, once in
    lexicographic node order and once in descending-degree order, and the
    higher-quality result wins (ties go to the lexicographic sweep).
    Isolated nodes end up in singleton clusters and contribute 0 to
    modularity. The reported modularity is always the standard measure, even
    when a different resolution steered the optimization. Level 0 is the
    graph's index triples; only the winning labels are renamed to dense ids.
    """
    check_setting("resolution", resolution, CommunityError)
    if not graph.edges:
        raise CommunityError(EDGELESS_MSG)
    adj: list[dict[int, float]] = [{} for _ in graph.nodes]
    for u, v, weight in graph.edges:
        adj[u][v] = adj[v][u] = float(weight)
    level = _Level(adj, [0.0] * len(adj))
    descents = [_descend(level, resolution, order_fn) for order_fn in (_lex_order, _degree_order)]
    ranked = [(_quality(graph, labels, resolution), labels) for labels in descents]
    # max keeps the first of equals: ties go to the index-order sweep
    quality, labels = max(ranked, key=lambda pair: pair[0])
    assignment = _dense_assignment(graph.node_names(), labels)
    return Partition(
        assignment=assignment,
        # at resolution 1 the quality already is the standard modularity
        modularity=quality if resolution == 1.0 else _quality(graph, labels, 1.0),
        cluster_count=max(assignment.values()) + 1,
    )


def suggest_labels(graph: CoGraph, partition: Partition) -> list[ClusterLabel]:
    """Per cluster: up to 5 members by intra-cluster weighted degree, ties lexicographic."""
    names = graph.node_names()
    if set(partition.assignment) != set(names):
        raise CommunityError("partition does not cover exactly the graph's nodes")
    intra = dict.fromkeys(names, 0.0)
    for u, v, weight in graph.edges:
        if partition.assignment[names[u]] == partition.assignment[names[v]]:
            intra[names[u]] += weight
            intra[names[v]] += weight
    tops = [tuple(sorted(members, key=lambda name: (-intra[name], name))[:5]) for members in partition.clusters()]
    return [ClusterLabel(cluster_id=cid, suggested_label=top[0], top_tags=top) for cid, top in enumerate(tops)]


def export_partition_json(partition: Partition, path) -> None:
    write_json(path, {
        "assignment": dict(sorted(partition.assignment.items())),
        "modularity": partition.modularity,
        "cluster_count": partition.cluster_count,
    })

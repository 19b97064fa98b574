"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles, with a
different formulation than the package code, so agreement between the two
is meaningful. The statistical references lean on numpy/scipy, which the
package itself does not use for these quantities.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from techflux.cograph import CoGraph, GraphEdge, GraphNode
from techflux.community import _Level
from techflux.corpus import Corpus, Document
from techflux.errors import GraphError
from techflux.lexicon import TermLexicon
from techflux.synth import GroundTruth, PlantSpec, SplitMix64, _evolve_communities, _ground_truth
from techflux.transition import TransitionEvent


def make_graph(edge_list, extra_nodes=(), kind="tag"):
    """CoGraph from (u, v, weight) triples, without hand-sorting anything."""
    weights = {}
    names = set(extra_nodes)
    for u, v, w in edge_list:
        a, b = (u, v) if u < v else (v, u)
        weights[(a, b)] = weights.get((a, b), 0) + w
        names.update((a, b))
    nodes = tuple(GraphNode(name=n, kind=kind, doc_frequency=1) for n in sorted(names))
    edges = tuple(GraphEdge(u=a, v=b, weight=w) for (a, b), w in sorted(weights.items()))
    return CoGraph(nodes=nodes, edges=edges)


def adjacency(graph: CoGraph) -> dict[str, dict[str, int]]:
    """Neighbour -> edge weight, per node name."""
    adj: dict[str, dict[str, int]] = {n.name: {} for n in graph.nodes}
    for e in graph.edges:
        adj[e.u][e.v] = e.weight
        adj[e.v][e.u] = e.weight
    return adj


def _sorted_graph(nodes, edges) -> CoGraph:
    return CoGraph(nodes=tuple(sorted(nodes, key=lambda n: n.name)), edges=tuple(sorted(edges, key=lambda e: (e.u, e.v))))


def read_graphml(path) -> tuple[CoGraph, dict[str, int] | None]:
    """(graph, cluster map or None) from a GraphML file, attributes resolved through its <key> table."""
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.parse(path).getroot()
    key_names = {key.get("id"): key.get("attr.name") for key in root.findall("g:key", ns)}

    def attrs(element):
        return {key_names[data.get("key")]: data.text for data in element.findall("g:data", ns)}

    nodes, edges, assignment = [], [], {}
    for node_el in root.findall("g:graph/g:node", ns):
        a = attrs(node_el)
        nodes.append(GraphNode(name=node_el.get("id"), kind=a["kind"], doc_frequency=int(a["doc_frequency"])))
        if "cluster" in a:
            assignment[node_el.get("id")] = int(a["cluster"])
    for edge_el in root.findall("g:graph/g:edge", ns):
        edges.append(GraphEdge(u=edge_el.get("source"), v=edge_el.get("target"), weight=int(attrs(edge_el)["weight"])))
    return _sorted_graph(nodes, edges), (assignment or None)


def read_graph_json(path) -> CoGraph:
    """The graph of a file written by ``export_graph_json``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    nodes = [GraphNode(name=n["name"], kind=n["kind"], doc_frequency=n["doc_frequency"]) for n in payload["nodes"]]
    edges = [GraphEdge(u=e["u"], v=e["v"], weight=e["weight"]) for e in payload["edges"]]
    return _sorted_graph(nodes, edges)


def top_n_filter_reference(graph: CoGraph, n: int) -> CoGraph:
    """The n nodes of a full graph with highest doc_frequency (ties: lower name) and their edges."""
    if n < 1:
        raise GraphError(f"top_n must be >= 1, got {n}")
    if len(graph.nodes) <= n:
        return graph
    ranked = sorted(graph.nodes, key=lambda node: (-node.doc_frequency, node.name))
    keep = {node.name for node in ranked[:n]}
    nodes = tuple(node for node in graph.nodes if node.name in keep)
    edges = tuple(edge for edge in graph.edges if edge.u in keep and edge.v in keep)
    return CoGraph(nodes=nodes, edges=edges)


def set_partitions(items):
    """Every partition of items into nonempty blocks (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def modularity_pairsum(graph: CoGraph, assignment: dict[str, int]) -> float:
    """Q as the ordered-pair sum (1/2m) sum_ij (A_ij - k_i k_j / 2m) [c_i = c_j]."""
    m = float(graph.total_weight())
    adj = adjacency(graph)
    degree = {n: float(sum(adj[n].values())) for n in adj}
    total = 0.0
    for i in adj:
        for j in adj:
            if assignment[i] != assignment[j]:
                continue
            a_ij = float(adj[i].get(j, 0))
            total += a_ij - degree[i] * degree[j] / (2.0 * m)
    return total / (2.0 * m)


def best_partition_bruteforce(graph: CoGraph) -> tuple[float, list[list[str]]]:
    """Exhaustive modularity maximum over all set partitions of the nodes."""
    names = list(graph.node_names())
    best_q = -float("inf")
    best_blocks: list[list[str]] = []
    for blocks in set_partitions(names):
        assignment = {}
        for cid, block in enumerate(blocks):
            for name in block:
                assignment[name] = cid
        q = modularity_pairsum(graph, assignment)
        if q > best_q:
            best_q = q
            best_blocks = [sorted(b) for b in blocks]
    return best_q, best_blocks


def random_connected_graph(rng: random.Random, max_nodes: int = 8) -> CoGraph:
    """Seeded connected weighted graph with 4..max_nodes nodes."""
    n = rng.randint(4, max_nodes)
    names = [f"n{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        u, v = (a, b) if a < b else (b, a)
        edges[(u, v)] = rng.randint(1, 5)
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(names, 2)
        u, v = (a, b) if a < b else (b, a)
        edges[(u, v)] = rng.randint(1, 5)
    return make_graph([(u, v, w) for (u, v), w in edges.items()])


def _best_move_reference(level: _Level, resolution: float, com, tot, i: int, fresh: int):
    """Best relocation for node i (possibly at a loss) and its quality delta.

    Candidates are the neighboring communities plus, when every alternative
    loses, a fresh singleton. Returns None when the node has no move that
    changes anything. Ascending-label scan with strict > keeps ties
    deterministic.
    """
    m = level.m
    k_i = level.degree[i]
    home = com[i]
    links = {}
    for j, w in level.adj[i].items():
        links[com[j]] = links.get(com[j], 0.0) + w
    tot_home = tot[home] - k_i
    home_gain = links.get(home, 0.0) / m - resolution * tot_home * k_i / (2.0 * m * m)
    best_c = None
    best_gain = 0.0
    for c in sorted(links):
        if c == home:
            continue
        gain = links[c] / m - resolution * tot[c] * k_i / (2.0 * m * m)
        if best_c is None or gain > best_gain:
            best_c, best_gain = c, gain
    already_singleton = links.get(home, 0.0) == 0.0 and tot_home == 0.0
    if not already_singleton and (best_c is None or best_gain < 0.0):
        best_c, best_gain = fresh, 0.0
    if best_c is None:
        return None
    return best_c, best_gain - home_gain


def escape_round_reference(level: _Level, resolution: float, order, com):
    """The escape round re-scored from scratch: every unlocked node, every step.

    Repeatedly applies the single best relocation over all not-yet-moved
    nodes, even when it loses quality, locking each moved node, and keeps
    the longest prefix of the chain with the largest cumulative gain if
    that gain is strictly positive. Cubic-time reference for the
    incremental ``techflux.community._escape_round``; the size cap of the
    package version is left out.
    """
    work = list(com)
    tot = {}
    for i in range(level.size):
        tot[work[i]] = tot.get(work[i], 0.0) + level.degree[i]
    next_fresh = max(work) + 1
    unlocked = list(order)
    cum = 0.0
    best_cum = 0.0
    best_len = 0
    trail = []
    while unlocked:
        pick = None
        pick_move = None
        for i in unlocked:
            move = _best_move_reference(level, resolution, work, tot, i, next_fresh)
            if move is not None and (pick_move is None or move[1] > pick_move[1]):
                pick, pick_move = i, move
        if pick is None:
            break
        target, delta = pick_move
        if target == next_fresh:
            next_fresh += 1
        tot[work[pick]] -= level.degree[pick]
        work[pick] = target
        tot[target] = tot.get(target, 0.0) + level.degree[pick]
        unlocked.remove(pick)
        cum += delta
        trail.append((pick, target))
        if cum > best_cum + 1e-12:
            best_cum = cum
            best_len = len(trail)
    if best_len == 0:
        return com, False
    result = list(com)
    for i, c in trail[:best_len]:
        result[i] = c
    return result, True


def local_phase_reference(level: _Level, resolution: float, order, com=None):
    """The greedy phase with an ascending-label scan of each node's neighbouring communities.

    Scanning from the home community's gain with strict > picks the smallest
    label among tied best targets, and a tie with home keeps the node home.
    Reference for ``techflux.community._local_phase``.
    """
    n = level.size
    com = list(range(n)) if com is None else list(com)
    tot = {}
    for i in range(n):
        tot[com[i]] = tot.get(com[i], 0.0) + level.degree[i]
    m = level.m
    total_moves = 0
    while True:
        moves = 0
        for i in order:
            k_i = level.degree[i]
            home = com[i]
            links = {home: 0.0}
            for j, w in level.adj[i].items():
                links[com[j]] = links.get(com[j], 0.0) + w
            tot[home] -= k_i
            best_c = home
            best_gain = links[home] / m - resolution * tot[home] * k_i / (2.0 * m * m)
            for c in sorted(links):
                if c == home:
                    continue
                gain = links[c] / m - resolution * tot[c] * k_i / (2.0 * m * m)
                if gain > best_gain:
                    best_c, best_gain = c, gain
            if best_c != home:
                com[i] = best_c
                tot[best_c] += k_i
                moves += 1
            else:
                tot[home] += k_i
        total_moves += moves
        if moves == 0:
            return com, total_moves


def aggregate_reference(names, level: _Level, com):
    """One Louvain aggregation with supernodes ordered by smallest member name.

    names[i] is the name of node i; a supernode's is its smallest member's.
    Returns (supernode names, adjacency, self-loop weights, community ->
    supernode index). Weights are summed over both directions of every
    edge, an order other than the package's, so they agree exactly only on
    integer weights. Reference for ``techflux.community._aggregate``.
    """
    members = {}
    for i, c in enumerate(com):
        members.setdefault(c, []).append(i)
    name_of = {c: min(names[i] for i in block) for c, block in members.items()}
    ordered = sorted(members, key=name_of.get)
    new_index = {c: idx for idx, c in enumerate(ordered)}
    between = [[0.0] * len(ordered) for _ in ordered]
    for i, nbrs in enumerate(level.adj):
        for j, w in nbrs.items():
            between[new_index[com[i]]][new_index[com[j]]] += w
    adj = [{b: w for b, w in enumerate(row) if b != a and w} for a, row in enumerate(between)]
    self_w = [between[a][a] / 2.0 + sum(level.self_w[i] for i in members[c]) for a, c in enumerate(ordered)]
    return [name_of[c] for c in ordered], adj, self_w, new_index


def similarity_matrix_reference(part_t, part_t1, measure: str):
    """(intersections, values, row sizes, column sizes) as numpy arrays, by array broadcasting."""
    def members(partition):
        blocks = [set() for _ in range(partition.cluster_count)]
        for name, cid in partition.assignment.items():
            blocks[cid].add(name)
        return blocks

    members_t, members_t1 = members(part_t), members(part_t1)
    inter = np.zeros((len(members_t), len(members_t1)), dtype=np.int64)
    for i, vi in enumerate(members_t):
        for j, vj in enumerate(members_t1):
            inter[i, j] = len(vi & vj)
    row_sizes = np.array([len(v) for v in members_t], dtype=np.float64)
    col_sizes = np.array([len(v) for v in members_t1], dtype=np.float64)
    if measure == "overlap_target":
        values = inter / col_sizes[np.newaxis, :]
    else:
        values = inter / (row_sizes[:, np.newaxis] + col_sizes[np.newaxis, :] - inter)
    return inter, values, row_sizes.astype(np.int64), col_sizes.astype(np.int64)


def inheritance_indices_reference(values):
    """(convergence, novelty) per column from numpy's column sums, clamped to [0, 1]."""
    col_sums = values.sum(axis=0)
    convergence = {j: min(1.0, max(0.0, float(s))) for j, s in enumerate(col_sums)}
    return convergence, {j: 1.0 - ci for j, ci in convergence.items()}


def classify_events_reference(values, tau: float):
    """The event list read off boolean masks of the similarity array, in the package's order."""
    hits = values >= tau
    merged = hits.sum(axis=0) >= 2
    split = hits.sum(axis=1) >= 2
    events = [TransitionEvent("death", (int(i),), (), ()) for i in np.flatnonzero(~values.any(axis=1))]
    events += [TransitionEvent("birth", (), (int(j),), ()) for j in np.flatnonzero(~values.any(axis=0))]
    for j in np.flatnonzero(merged):
        rows = np.flatnonzero(hits[:, j])
        events.append(TransitionEvent(
            "merge", tuple(int(i) for i in rows), (int(j),), tuple(float(values[i, j]) for i in rows)
        ))
    for i in np.flatnonzero(split):
        cols = np.flatnonzero(hits[i, :])
        events.append(TransitionEvent(
            "split", (int(i),), tuple(int(j) for j in cols), tuple(float(values[i, j]) for j in cols)
        ))
    persist = hits & ~merged[np.newaxis, :] & ~split[:, np.newaxis]
    for i, j in zip(*np.nonzero(persist)):
        events.append(TransitionEvent("persist", (int(i),), (int(j),), (float(values[i, j]),)))
    return events


def ols_ssr_reference(x, y) -> float:
    design = np.column_stack([np.ones(len(x)), np.asarray(x, dtype=float)])
    target = np.asarray(y, dtype=float)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


def chow_reference(x, y, breakpoint_index: int):
    """(F, p) by plain numpy least squares plus scipy's F survival function."""
    from scipy import stats

    k = 2
    ssr_pooled = ols_ssr_reference(x, y)
    ssr_1 = ols_ssr_reference(x[:breakpoint_index], y[:breakpoint_index])
    ssr_2 = ols_ssr_reference(x[breakpoint_index:], y[breakpoint_index:])
    segmented = ssr_1 + ssr_2
    df2 = len(x) - 2 * k
    if segmented == 0.0:
        if ssr_pooled == 0.0:
            return 0.0, 1.0
        return float("inf"), 0.0
    f_stat = ((ssr_pooled - segmented) / k) / (segmented / df2)
    return f_stat, float(stats.f.sf(f_stat, k, df2))


def extract_terms_reference(doc: Document, lexicon: TermLexicon) -> set[str]:
    """Term extraction by searching every pattern of every entry in the text."""
    text = doc.text.casefold()
    if not text:
        return set()
    found = set()
    for entry in lexicon.entries:
        for rx in entry.compiled:
            if rx.search(text):
                found.add(entry.canonical)
                break
    return found


def term_trend_reference(corpora: list[tuple[str, Corpus]], lexicon: TermLexicon, term: str, period: str):
    """Per-period counts of one term, one pass per term, over tags and per-pattern extraction."""
    counts = {}
    for label, corpus in corpora:
        per_period = {}
        for doc in corpus.documents:
            if term in doc.tags or term in extract_terms_reference(doc, lexicon):
                if period == "year":
                    key = str(doc.date.year)
                else:
                    key = f"{doc.date.year}Q{(doc.date.month - 1) // 3 + 1}"
                per_period[key] = per_period.get(key, 0) + 1
        counts[label] = dict(sorted(per_period.items()))
    return counts


def generate_corpus_reference(spec: PlantSpec, with_text: bool = False) -> tuple[Corpus, GroundTruth]:
    """generate_corpus with one scalar SplitMix64.chance call per term."""
    states = _evolve_communities(spec)
    truth = _ground_truth(spec, states)
    rng = SplitMix64(spec.seed)
    documents: list[Document] = []
    for w_index, (window, state) in enumerate(zip(spec.windows, states)):
        vocabulary = sorted({term for c in state for term in c.members})
        span_days = (window.end - window.start).days
        for d_index in range(spec.docs_per_window):
            community = state[rng.below(len(state))]
            member_set = set(community.members)
            picked = [t for t in community.members if rng.chance(community.rate)]
            if spec.noise_rate > 0.0:
                picked.extend(
                    t for t in vocabulary
                    if t not in member_set and rng.chance(spec.noise_rate)
                )
            tags = tuple(sorted(set(picked)))
            date = window.start + dt.timedelta(days=rng.below(span_days))
            doc_id = f"w{w_index}-d{d_index:05d}"
            if with_text:
                text = "This note covers " + ", ".join(tags) + "." if tags else "This note covers nothing."
                documents.append(Document(id=doc_id, date=date, text=text, tags=()))
            else:
                documents.append(Document(id=doc_id, date=date, text="", tags=tags))
    return Corpus(documents=tuple(documents)), truth

"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles, with a
different formulation than the package code, so agreement between the two
is meaningful. The statistical references lean on numpy/scipy, which the
package itself does not use for these quantities.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import json
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from hypothesis import settings

from techflux.cograph import KIND_TAG, KIND_TECHNOLOGY, CoGraph, GraphNode
from techflux.community import _Level, _aggregate, modularity
from techflux.corpus import _CSV_COLUMNS, _CSV_FIELD_LIMIT, Corpus, Document, normalize_tag, parse_date
from techflux.errors import CorpusError, GraphError, SynthError
from techflux.fileio import has_lone_surrogate, json_text, open_text
from techflux.lexicon import TermLexicon
from techflux.synth import (
    _DEFAULT_BIRTH_RATE,
    FRESH_PREFIX,
    GroundTruth,
    PlantCommunity,
    PlantedEvent,
    PlantSpec,
    SplitMix64,
)
from techflux.transition import TransitionEvent

# The oracle properties run at least 200 examples, and the profile's count
# when it asks for more (1,000 under HYPOTHESIS_PROFILE=ci).
ORACLE_EXAMPLES = max(200, settings.default.max_examples)


def named_graph(nodes, edges) -> CoGraph:
    """CoGraph from GraphNodes and (u name, v name, weight) edges, each in any order.

    Endpoints keep their orientation, so an edge whose u name sorts after
    its v name is refused by CoGraph, as are a repeated pair and an unknown
    name (KeyError).
    """
    nodes = sorted(nodes, key=lambda node: node.name)
    index = {node.name: i for i, node in enumerate(nodes)}
    return CoGraph(nodes=tuple(nodes), edges=tuple(sorted((index[u], index[v], w) for u, v, w in edges)))


def named_edges(graph: CoGraph) -> dict[tuple[str, str], int]:
    """(u name, v name) -> weight of every edge, in edge order."""
    names = graph.node_names()
    return {(names[u], names[v]): w for u, v, w in graph.edges}


def make_graph(edge_list, extra_nodes=(), kind="tag"):
    """CoGraph from (u, v, weight) triples, without hand-sorting anything."""
    weights = {}
    names = set(extra_nodes)
    for u, v, w in edge_list:
        a, b = (u, v) if u < v else (v, u)
        weights[(a, b)] = weights.get((a, b), 0) + w
        names.update((a, b))
    nodes = [GraphNode(name=n, kind=kind, doc_frequency=1) for n in names]
    return named_graph(nodes, [(a, b, w) for (a, b), w in weights.items()])


def adjacency(graph: CoGraph) -> dict[str, dict[str, int]]:
    """Neighbour -> edge weight, per node name."""
    adj: dict[str, dict[str, int]] = {n.name: {} for n in graph.nodes}
    for (u, v), w in named_edges(graph).items():
        adj[u][v] = w
        adj[v][u] = w
    return adj


def normalize_tags_reference(raw_tags) -> tuple[str, ...]:
    """Each raw tag normalized, empty ones and repeats dropped, first occurrence first."""
    return tuple(dict.fromkeys(tag for tag in map(normalize_tag, raw_tags) if tag))


def make_document_reference(record: dict, where: str) -> Document:
    """The Document of one parsed record, every record through every field check, in the package's words.

    This is the record builder as it stood before regular records skipped
    the field checks, without its caches: every tag is normalized and every
    date parsed anew.
    """
    for field_name in ("id", "date"):
        if record.get(field_name) in (None, ""):
            raise CorpusError(f"{where}: missing field {field_name!r}")
    if "text" not in record and "tags" not in record:
        raise CorpusError(f"{where}: record needs at least one of 'text'/'tags'")
    doc_id, text = record["id"], record.get("text")
    if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
        raise CorpusError(f"{where}: field 'id' must be a nonempty string or an integer, got {doc_id!r}")
    if text is not None and not isinstance(text, str):
        raise CorpusError(f"{where}: field 'text' must be a string or null, got {text!r}")
    tags = record.get("tags")
    if tags is None:
        tags = []
    elif not isinstance(tags, (list, tuple)):
        raise CorpusError(f"{where}: field 'tags' must be a list")
    try:
        normalized = normalize_tags_reference(tags)
    except (AttributeError, TypeError):
        bad = next(tag for tag in tags if not isinstance(tag, str))
        raise CorpusError(f"{where}: field 'tags' must hold only strings, got {bad!r}") from None
    try:
        date = parse_date(str(record["date"]))
    except CorpusError as exc:
        raise CorpusError(f"{where}: field 'date': {exc}") from None
    return Document(id=str(doc_id), date=date, text=text or "", tags=normalized)


def load_jsonl_reference(path) -> Corpus:
    """load_corpus of a JSONL file as a loop over the lines of the open file, each read with json.loads.

    This is the loader as it stood before the one-pass read: every line,
    regular or not, takes the checked path, with the same messages, in line
    order.
    """
    path = Path(path)
    docs = []
    with open_text(path, CorpusError, "corpus file") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name} line {lineno}"
            try:
                record = json.loads(line)
                lone = has_lone_surrogate(line, record)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: invalid JSON ({exc.msg})") from None
            except RecursionError:
                raise CorpusError(f"{where}: invalid JSON (nested too deeply)") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: record must be a JSON object")
            if lone:
                raise CorpusError(f"{where}: lone surrogate escape, not valid text")
            docs.append(make_document_reference(record, where))
    return Corpus(documents=tuple(docs))


def load_csv_reference(path) -> Corpus:
    """load_corpus of a CSV file, every row through make_document_reference."""
    path = Path(path)
    docs = []
    old_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
    try:
        with open_text(path, CorpusError, "corpus file") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise CorpusError(f"{path.name}: header missing column(s) {', '.join(missing)}")
            for record in reader:
                tags = [t for t in (record.get("tags") or "").split(";") if t.strip()]
                docs.append(make_document_reference({**record, "tags": tags}, f"{path.name} line {reader.line_num}"))
    except csv.Error as exc:
        raise CorpusError(f"{path.name} line {reader.reader.line_num}: malformed CSV ({exc})") from None
    finally:
        csv.field_size_limit(old_limit)
    return Corpus(documents=tuple(docs))


def build_cooccurrence_reference(corpus, lexicon, field="both", pairs="all", top_n=None) -> CoGraph:
    """The co-occurrence network counted on name pairs; reference for ``build_cooccurrence``.

    A document's items are its terms by ``extract_terms_reference`` (field
    text or both) and its tags (field tags or both), so no extraction code
    of the package is shared. Every document's items add 1 to each of their
    sorted name pairs, tech-tag pairs only under ``pairs="tech-tag"``. With
    ``top_n`` the top_n names by document frequency (ties: lower name) are
    kept and pairs are counted among them alone.
    """
    canonical = lexicon.canonical_terms
    item_sets = []
    for doc in corpus.documents:
        terms = extract_terms_reference(doc, lexicon) if field in ("text", "both") else set()
        item_sets.append(terms | (set(doc.tags) if field in ("tags", "both") else set()))
    frequency = {}
    for items in item_sets:
        for name in items:
            frequency[name] = frequency.get(name, 0) + 1
    if top_n is not None:
        keep = set(sorted(frequency, key=lambda name: (-frequency[name], name))[:top_n])
        item_sets = [items & keep for items in item_sets]
        frequency = {name: f for name, f in frequency.items() if name in keep}
    weights = {}
    for items in item_sets:
        for u, v in itertools.combinations(sorted(items), 2):
            if pairs == "all" or (u in canonical) != (v in canonical):
                weights[(u, v)] = weights.get((u, v), 0) + 1
    nodes = [GraphNode(name, KIND_TECHNOLOGY if name in canonical else KIND_TAG, f) for name, f in frequency.items()]
    return named_graph(nodes, [(u, v, w) for (u, v), w in weights.items()])


def export_graphml_reference(graph: CoGraph, assignment: dict[str, int] | None = None) -> bytes:
    """The GraphML bytes of ``export_graphml``, built as an ElementTree and indented by ``ET.indent``."""
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, domain, name, attr_type in (
        ("d_kind", "node", "kind", "string"),
        ("d_freq", "node", "doc_frequency", "int"),
        ("d_cluster", "node", "cluster", "int"),
        ("d_weight", "edge", "weight", "int"),
    ):
        ET.SubElement(root, "key", attrib={"id": key_id, "for": domain, "attr.name": name, "attr.type": attr_type})
    graph_el = ET.SubElement(root, "graph", edgedefault="undirected")
    for node in graph.nodes:
        node_el = ET.SubElement(graph_el, "node", id=node.name)
        ET.SubElement(node_el, "data", key="d_kind").text = node.kind
        ET.SubElement(node_el, "data", key="d_freq").text = str(node.doc_frequency)
        if assignment is not None and node.name in assignment:
            ET.SubElement(node_el, "data", key="d_cluster").text = str(assignment[node.name])
    for (u, v), weight in named_edges(graph).items():
        edge_el = ET.SubElement(graph_el, "edge", source=u, target=v)
        ET.SubElement(edge_el, "data", key="d_weight").text = str(weight)
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


def graph_json_reference(graph: CoGraph) -> str:
    """The text of ``export_graph_json``: a payload dict through ``fileio.json_text``."""
    return json_text({
        "nodes": [{"name": n.name, "kind": n.kind, "doc_frequency": n.doc_frequency} for n in graph.nodes],
        "edges": [{"u": u, "v": v, "weight": w} for (u, v), w in named_edges(graph).items()],
    })


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
        edges.append((edge_el.get("source"), edge_el.get("target"), int(attrs(edge_el)["weight"])))
    return named_graph(nodes, edges), (assignment or None)


def read_graph_json(path) -> CoGraph:
    """The graph of a file written by ``export_graph_json``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    nodes = [GraphNode(name=n["name"], kind=n["kind"], doc_frequency=n["doc_frequency"]) for n in payload["nodes"]]
    edges = [(e["u"], e["v"], e["weight"]) for e in payload["edges"]]
    return named_graph(nodes, edges)


def top_n_filter_reference(graph: CoGraph, n: int) -> CoGraph:
    """The n nodes of a full graph with highest doc_frequency (ties: lower name) and their edges."""
    if n < 1:
        raise GraphError(f"top_n must be >= 1, got {n}")
    if len(graph.nodes) <= n:
        return graph
    ranked = sorted(graph.nodes, key=lambda node: (-node.doc_frequency, node.name))
    keep = {node.name for node in ranked[:n]}
    nodes = [node for node in graph.nodes if node.name in keep]
    return named_graph(nodes, [(u, v, w) for (u, v), w in named_edges(graph).items() if u in keep and v in keep])


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


def louvain_reference(graph: CoGraph, resolution: float = 1.0) -> tuple[dict[str, int], float]:
    """(assignment, modularity) of Louvain composed from the stage references, with no memo.

    Per traversal order (index order, then descending degree with ties by
    index), a descent alternates a multilevel pass, the greedy phase on
    each aggregated level until one makes no move, with refinement, the
    greedy fixpoint plus escape rounds until neither improves, and stops
    when refinement changes nothing. Every escape round the control flow
    asks for is run, even on an assignment an earlier round already found
    no improvement for. The sweep with higher quality at the resolution
    wins, ties to the first. Cluster ids are dense, ordered by smallest
    member name. Only ``_aggregate`` and ``modularity``, each checked
    against its own oracle, come from the package; reference for
    ``techflux.community.louvain``.
    """
    names = list(graph.node_names())
    index = {name: i for i, name in enumerate(names)}
    adj = [{} for _ in names]
    for (u, v), w in named_edges(graph).items():
        adj[index[u]][index[v]] = adj[index[v]][index[u]] = float(w)
    base = _Level(adj, [0.0] * len(names))

    def index_order(level):
        return list(range(level.size))

    def degree_order(level):
        return sorted(range(level.size), key=lambda i: (-level.degree[i], i))

    best = None
    for order_of in (index_order, degree_order):
        com = list(range(base.size))
        while True:
            level, new_index = _aggregate(base, com)
            com = [new_index[c] for c in com]
            while True:
                merged, moves = local_phase_reference(level, resolution, order_of(level))
                if moves == 0:
                    break
                level, new_index = _aggregate(level, merged)
                com = [new_index[merged[c]] for c in com]
            changed = False
            while True:
                com, moves = local_phase_reference(base, resolution, order_of(base), com)
                changed = changed or moves > 0
                com, improved = escape_round_reference(base, resolution, order_of(base), com)
                if not improved:
                    break
                changed = True
            if not changed:
                break
        smallest = {}
        for name, c in zip(names, com):
            smallest.setdefault(c, name)
        dense = {c: cid for cid, c in enumerate(sorted(smallest, key=smallest.get))}
        assignment = {name: dense[c] for name, c in zip(names, com)}
        quality = modularity(graph, assignment, resolution)
        if best is None or quality > best[0]:
            best = (quality, assignment)
    return best[1], modularity(graph, best[1])


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


def suggest_labels_reference(graph: CoGraph, assignment: dict[str, int]) -> list[tuple[str, ...]]:
    """Per cluster id, its up to 5 members of largest intra-cluster weighted degree, ties to the lower name.

    One ranking of every node, filtered per cluster; reference for the
    ``top_tags`` of ``techflux.community.suggest_labels``, whose label is the first.
    """
    intra = dict.fromkeys(assignment, 0)
    for (u, v), w in named_edges(graph).items():
        if assignment[u] == assignment[v]:
            intra[u] += w
            intra[v] += w
    ranked = sorted(assignment, key=lambda name: (-intra[name], name))
    clusters = max(assignment.values()) + 1
    return [tuple([name for name in ranked if assignment[name] == cid][:5]) for cid in range(clusters)]


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
    """Term extraction by trying every pattern, unwrapped, on every span between two word boundaries.

    A term is found when one of its patterns, compiled on its own and
    case-insensitively, matches the whole of ``text[i:j]`` of the case-folded
    text, where ``i`` and ``j`` are word boundaries. The match sees the text
    before ``i`` (for a ``\\b`` or ``^`` in the pattern) but not the text after
    ``j``, so this is exact for patterns with no ``\\b``, ``$`` or lookahead at
    their end. Nothing of ``techflux.lexicon``'s wrapping is used.
    """
    text = doc.text.casefold()
    bounds = [m.start() for m in re.finditer(r"\b", text)]
    found = set()
    for entry in lexicon.entries:
        for pattern in entry.patterns:
            rx = re.compile(pattern, re.IGNORECASE)
            if any(rx.fullmatch(text, i, j) for n, i in enumerate(bounds) for j in bounds[n:]):
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


def _inherit_count_reference(mixing: float, size: int) -> int:
    return int(mixing * size + 0.5)


class _FreshNames:
    def __init__(self) -> None:
        self._next = 0

    def take(self, count: int) -> list[str]:
        out = [f"{FRESH_PREFIX}{self._next + i:05d}" for i in range(count)]
        self._next += count
        return out


def _evolve_communities_reference(spec: PlantSpec) -> list[list[PlantCommunity]]:
    """Community state for every window, one branch per event kind."""
    states = [list(spec.communities)]
    fresh = _FreshNames()
    for pair in range(len(spec.windows) - 1):
        current = states[-1]
        by_name = {c.name: c for c in current}
        consumed: set[str] = set()
        produced: list[PlantCommunity] = []
        for event in spec.events:
            if event.pair != pair:
                continue
            where = f"pair {pair} {event.kind}"
            for source in event.sources:
                if source not in by_name:
                    raise SynthError(f"{where}: unknown source community {source!r}")
                if source in consumed:
                    raise SynthError(f"{where}: source {source!r} already consumed by another event")
            consumed.update(event.sources)
            if event.kind == "death":
                continue
            if event.kind == "birth":
                rate = event.rate if event.rate is not None else _DEFAULT_BIRTH_RATE
                produced.append(PlantCommunity(
                    name=event.targets[0],
                    members=tuple(fresh.take(event.size)),
                    rate=rate,
                ))
            elif event.kind == "merge":
                inherited: list[str] = []
                total = 0
                for source in event.sources:
                    src = by_name[source]
                    total += len(src.members)
                    inherited.extend(src.members[: _inherit_count_reference(event.mixing, len(src.members))])
                fill = fresh.take(total - len(inherited))
                rate = event.rate if event.rate is not None else by_name[event.sources[0]].rate
                produced.append(PlantCommunity(
                    name=event.targets[0],
                    members=tuple(sorted(inherited + fill)),
                    rate=rate,
                ))
            elif event.kind == "split":
                src = by_name[event.sources[0]]
                parts = len(event.targets)
                base, extra = divmod(len(src.members), parts)
                if base == 0:
                    raise SynthError(
                        f"{where}: source {src.name!r} has {len(src.members)} members, "
                        f"too few for {parts} parts"
                    )
                offset = 0
                for t_index, target in enumerate(event.targets):
                    part_size = base + (1 if t_index < extra else 0)
                    part = src.members[offset: offset + part_size]
                    offset += part_size
                    kept = list(part[: _inherit_count_reference(event.mixing, part_size)])
                    fill = fresh.take(part_size - len(kept))
                    rate = event.rate if event.rate is not None else src.rate
                    produced.append(PlantCommunity(
                        name=target, members=tuple(sorted(kept + fill)), rate=rate,
                    ))
            else:
                src = by_name[event.sources[0]]
                kept = list(src.members[: _inherit_count_reference(event.mixing, len(src.members))])
                fill = fresh.take(len(src.members) - len(kept))
                rate = event.rate if event.rate is not None else src.rate
                produced.append(PlantCommunity(
                    name=event.targets[0], members=tuple(sorted(kept + fill)), rate=rate,
                ))
        carried = [c for c in current if c.name not in consumed]
        next_state = carried + produced
        names = [c.name for c in next_state]
        if len(set(names)) != len(names):
            raise SynthError(f"pair {pair}: duplicate community names in the produced window")
        seen: set[str] = set()
        for community in next_state:
            overlap = seen.intersection(community.members)
            if overlap:
                raise SynthError(f"pair {pair}: produced communities overlap on {sorted(overlap)}")
            seen.update(community.members)
        if not next_state:
            raise SynthError(f"pair {pair}: events leave the next window with no communities")
        states.append(next_state)
    return states


def _ground_truth_reference(spec: PlantSpec, states: list[list[PlantCommunity]]) -> GroundTruth:
    """Events, implicit persists and indices recomputed from the finished states."""
    assignments = tuple(
        {term: c.name for c in state for term in c.members} for state in states
    )
    pair_events: list[tuple[PlantedEvent, ...]] = []
    convergence: list[dict[str, float]] = []
    novelty: list[dict[str, float]] = []
    for pair in range(len(spec.windows) - 1):
        explicit = [e for e in spec.events if e.pair == pair]
        consumed = {s for e in explicit for s in e.sources}
        events = [PlantedEvent(e.kind, e.sources, e.targets) for e in explicit]
        for community in states[pair]:
            if community.name not in consumed:
                events.append(PlantedEvent("persist", (community.name,), (community.name,)))
        vocab_prev = set(assignments[pair])
        ci: dict[str, float] = {}
        for community in states[pair + 1]:
            inherited = sum(1 for t in community.members if t in vocab_prev)
            ci[community.name] = inherited / len(community.members)
        pair_events.append(tuple(events))
        convergence.append(ci)
        novelty.append({name: 1.0 - v for name, v in ci.items()})
    return GroundTruth(
        assignments=assignments,
        pair_events=tuple(pair_events),
        convergence=tuple(convergence),
        novelty=tuple(novelty),
    )


def plant_reference(spec: PlantSpec) -> tuple[list[list[PlantCommunity]], GroundTruth]:
    """The planted states and ground truth in two passes, one branch per event kind.

    The states come first, with merge, split and persist each written out;
    the events, implicit persists and indices are then recomputed from the
    finished states, convergence by membership in the previous vocabulary.
    """
    states = _evolve_communities_reference(spec)
    return states, _ground_truth_reference(spec, states)


def chance(rng: SplitMix64, p: float) -> bool:
    """One scalar draw: True with probability p."""
    return rng.uniform() < p


def generate_corpus_reference(spec: PlantSpec, with_text: bool = False) -> tuple[Corpus, GroundTruth]:
    """generate_corpus with one scalar ``chance`` draw per term."""
    states, truth = plant_reference(spec)
    rng = SplitMix64(spec.seed)
    documents: list[Document] = []
    for w_index, (window, state) in enumerate(zip(spec.windows, states)):
        vocabulary = sorted({term for c in state for term in c.members})
        span_days = (window.end - window.start).days
        for d_index in range(spec.docs_per_window):
            community = state[rng.below(len(state))]
            member_set = set(community.members)
            picked = [t for t in community.members if chance(rng, community.rate)]
            if spec.noise_rate > 0.0:
                picked.extend(
                    t for t in vocabulary
                    if t not in member_set and chance(rng, spec.noise_rate)
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

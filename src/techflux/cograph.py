"""Weighted undirected co-occurrence network for one time window.

Nodes are technology terms (lexicon hits) and document tags; an edge exists
between two items iff they appear together in at least one document, with
weight = the number of such documents. Nodes are sorted by name and edges
are ``(u, v, weight)`` triples of node indices, u < v, sorted by (u, v), so
index order is name order and every computation and export (which names
each endpoint) is deterministic.

A node's document frequency is known before any pair is counted, so the
build can keep only the top-n nodes (highest frequency, ties to the lower
name) and count pairs among those alone; the graph equals the full build
passed through ``top_n_filter``. ``field``, ``pairs`` and ``top_n`` meet the
rules of their `config.SETTINGS` entries, or raise GraphError.

The GraphML and JSON exports are written directly from string pieces, in one
pass over the nodes and edges. They hold the bytes that ElementTree (with
``ET.indent``) and ``fileio.json_text`` would write: GraphML escapes ``&``,
``<`` and ``>`` in element text, and in attribute values also ``"``, CR, LF
and tab (as ``&#13;``, ``&#10;`` and ``&#09;``); each JSON string goes
through the C encoder of ``json``.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter, namedtuple
from pathlib import Path

from .config import SETTINGS, check_setting
from .corpus import Corpus
from .errors import GraphError
from .fileio import atomic_write_bytes, atomic_write_text
from .lexicon import TermLexicon, extract_terms
from .records import Checked

KIND_TECHNOLOGY = "technology"
KIND_TAG = "tag"


# name (str), kind (KIND_TECHNOLOGY or KIND_TAG) and doc_frequency (int)
GraphNode = namedtuple("GraphNode", "name kind doc_frequency")


class CoGraph(Checked, namedtuple("CoGraph", "nodes edges")):
    """Immutable weighted undirected graph; nodes sorted by name, (u, v, weight) index triples sorted by (u, v)."""

    __slots__ = ()

    def __new__(cls, nodes: tuple[GraphNode, ...] = (), edges: tuple[tuple[int, int, int], ...] = ()) -> CoGraph:
        names = []
        for node in nodes:
            name = node.name
            if not isinstance(name, str):
                raise GraphError(f"node name {name!r}: must be a string")
            if names and not names[-1] < name:
                raise GraphError("graph nodes must be unique and sorted by name")
            names.append(name)
            if node.kind not in (KIND_TECHNOLOGY, KIND_TAG):
                raise GraphError(f"node {name!r}: unknown kind {node.kind!r}")
            if type(node.doc_frequency) is not int:
                raise GraphError(f"node {name!r}: doc_frequency {node.doc_frequency!r} is not an integer")
            if node.doc_frequency < 0:
                raise GraphError(f"node {name!r}: negative doc_frequency")
        n = len(names)
        last = (-1, -1)
        for edge in edges:
            u, v, weight = edge if type(edge) is tuple and len(edge) == 3 else (None, None, None)
            # type() rather than isinstance(): a bool is no node index or weight
            if type(u) is not int or type(v) is not int or type(weight) is not int:
                raise GraphError(f"edge {edge!r}: must be a (u, v, weight) triple of integers")
            if not 0 <= u < v < n:
                raise GraphError(f"edge {edge!r}: endpoints must satisfy 0 <= u < v < {n} (no self-loops)")
            if (u, v) <= last:
                raise GraphError("graph edges must be unique and sorted by (u, v)")
            last = (u, v)
            if weight < 1:
                raise GraphError(f"edge ({names[u]!r}, {names[v]!r}): weight must be >= 1")
        return tuple.__new__(cls, (nodes, edges))

    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def total_weight(self) -> int:
        return sum(weight for _, _, weight in self.edges)


def document_items(doc, lexicon: TermLexicon, field: str) -> set[str]:
    """A document's items: its extracted terms, its tags, or both, per ``field``."""
    items: set[str] = set()
    if field in ("text", "both"):
        items |= extract_terms(doc, lexicon)
    if field in ("tags", "both"):
        items |= set(doc.tags)
    return items


def build_cooccurrence(
    corpus: Corpus,
    lexicon: TermLexicon,
    field: str = SETTINGS["field"].default,
    pairs: str = SETTINGS["pairs"].default,
    top_n: int | None = None,
) -> CoGraph:
    """Accumulate the co-occurrence network over a corpus.

    Per document the item set is (extracted terms) | (tags) depending on
    ``field``; every unordered pair in that set adds 1 to its edge weight.
    A name that is both a tag and a lexicon canonical term is one node with
    kind=technology. ``pairs="tech-tag"`` keeps only technology-tag edges.

    With ``top_n`` set, only the top_n nodes by document frequency are kept
    (the rule of ``top_n_filter``) and pairs are counted among them alone;
    the result equals ``top_n_filter(build_cooccurrence(...), top_n)``.
    Each document's items are extracted once either way.
    """
    check_setting("field", field, GraphError)
    check_setting("pairs", pairs, GraphError)
    if top_n is not None:
        check_setting("top_n", top_n, GraphError)
    canonical = lexicon.canonical_terms
    item_sets = [document_items(doc, lexicon, field) for doc in corpus.documents]
    doc_frequency = Counter(itertools.chain.from_iterable(item_sets))
    if top_n is not None and len(doc_frequency) > top_n:
        keep = _top_names(doc_frequency, top_n)
        item_sets = [items & keep for items in item_sets]
        doc_frequency = {name: doc_frequency[name] for name in keep}
    names = sorted(doc_frequency)
    index = {name: i for i, name in enumerate(names)}
    kinds = [KIND_TECHNOLOGY if name in canonical else KIND_TAG for name in names]
    id_lists = (sorted(map(index.__getitem__, items)) for items in item_sets)
    combos = itertools.chain.from_iterable(map(itertools.combinations, id_lists, itertools.repeat(2)))
    if pairs == "tech-tag":
        combos = ((u, v) for u, v in combos if kinds[u] != kinds[v])
    weights = Counter(combos)
    nodes = tuple(GraphNode(name, kind, doc_frequency[name]) for name, kind in zip(names, kinds))
    # sorting the int pairs alone is faster than sorting (pair, weight) items
    return CoGraph(nodes=nodes, edges=tuple([(u, v, weights[u, v]) for u, v in sorted(weights)]))


def _top_names(doc_frequency: dict[str, int], n: int) -> set[str]:
    """The n names with highest doc_frequency (ties: lexicographic, lower kept)."""
    ranked = sorted(doc_frequency, key=lambda name: (-doc_frequency[name], name))
    return set(ranked[:n])


def top_n_filter(graph: CoGraph, n: int) -> CoGraph:
    """Keep the n nodes with highest doc_frequency (ties: lexicographic, lower kept), renumbered in order."""
    check_setting("top_n", n, GraphError)
    if len(graph.nodes) <= n:
        return graph
    keep = _top_names({node.name: node.doc_frequency for node in graph.nodes}, n)
    kept = [i for i, node in enumerate(graph.nodes) if node.name in keep]
    new_index = {old: new for new, old in enumerate(kept)}
    edges = tuple((new_index[u], new_index[v], w) for u, v, w in graph.edges if u in new_index and v in new_index)
    return CoGraph(nodes=tuple(graph.nodes[i] for i in kept), edges=edges)


# The GraphML head, key ids included, is fixed so exports are byte-stable.
_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    '  <key id="d_kind" for="node" attr.name="kind" attr.type="string" />\n'
    '  <key id="d_freq" for="node" attr.name="doc_frequency" attr.type="int" />\n'
    '  <key id="d_cluster" for="node" attr.name="cluster" attr.type="int" />\n'
    '  <key id="d_weight" for="edge" attr.name="weight" attr.type="int" />\n'
)
# ElementTree's escapes: element text, and attribute values, where a tab or
# line break is a character reference so that a parser keeps it as written
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
# a character outside XML 1.0's Char production; written raw or escaped, it
# leaves a file that no XML parser accepts. Written as the few ranges XML
# leaves out, since a negated class that runs to U+10FFFF compiles ten
# times slower; compiled on first use, so subcommands that write no GraphML
# never pay for it.
_NOT_XML_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
# the C encoder of one JSON string, non-ASCII kept as is
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def check_graphml_names(graph: CoGraph) -> None:
    """Raise GraphError for the first node name that XML 1.0, and so GraphML, cannot hold."""
    search = re.compile(_NOT_XML_CHAR).search
    for node in graph.nodes:
        bad = search(node.name)
        if bad:
            raise GraphError(f"node {node.name!r}: U+{ord(bad.group()):04X} is no XML 1.0 character, so GraphML cannot hold it")


def export_graphml(graph: CoGraph, path: str | Path, assignment: dict[str, int] | None = None) -> None:
    """Write GraphML with kind/doc_frequency/cluster node attributes and weight edges.

    The layout is ElementTree's with ``ET.indent``: two-space indent, empty
    elements as ``<tag ... />``, a final newline. A node name that XML 1.0
    cannot hold raises GraphError before anything is written.
    """
    check_graphml_names(graph)
    ids = [node.name.translate(_ATTR_ESCAPES) for node in graph.nodes]
    clusters = assignment or {}
    parts = [_GRAPHML_HEAD]
    if not graph.nodes:
        parts.append('  <graph edgedefault="undirected" />\n')
    else:
        parts.append('  <graph edgedefault="undirected">\n')
        for node, node_id in zip(graph.nodes, ids):
            parts.append(
                f'    <node id="{node_id}">\n'
                f'      <data key="d_kind">{node.kind}</data>\n'
                f'      <data key="d_freq">{node.doc_frequency}</data>\n'
            )
            if node.name in clusters:
                parts.append(f'      <data key="d_cluster">{str(clusters[node.name]).translate(_TEXT_ESCAPES)}</data>\n')
            parts.append("    </node>\n")
        parts.extend(
            f'    <edge source="{ids[u]}" target="{ids[v]}">\n      <data key="d_weight">{weight}</data>\n    </edge>\n'
            for u, v, weight in graph.edges
        )
        parts.append("  </graph>\n")
    parts.append("</graphml>\n")
    atomic_write_bytes(path, "".join(parts).encode("utf-8"))


def export_graph_json(graph: CoGraph, path: str | Path) -> None:
    """Write the graph as JSON mirroring the CoGraph fields, each edge endpoint by name.

    The layout is ``fileio.json_text``'s: two-space indent, non-ASCII kept
    as is, an empty list as ``[]``, a final newline.
    """
    names = [_json_string(node.name) for node in graph.nodes]
    nodes = ",\n".join(
        f'    {{\n      "name": {name},\n      "kind": {_json_string(node.kind)},\n'
        f'      "doc_frequency": {node.doc_frequency}\n    }}'
        for node, name in zip(graph.nodes, names)
    )
    edges = ",\n".join(
        f'    {{\n      "u": {names[u]},\n      "v": {names[v]},\n      "weight": {weight}\n    }}'
        for u, v, weight in graph.edges
    )
    atomic_write_text(path, f'{{\n  "nodes": {_json_list(nodes)},\n  "edges": {_json_list(edges)}\n}}\n')


def _json_list(items: str) -> str:
    """A JSON list of already indented items, as the second level of a two-space layout."""
    return f"[\n{items}\n  ]" if items else "[]"

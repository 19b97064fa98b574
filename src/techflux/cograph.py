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
rules of their `PipelineConfig` fields, or raise GraphError.
"""

from __future__ import annotations

import itertools
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .config import check_setting
from .corpus import Corpus
from .errors import GraphError
from .fileio import atomic_write_bytes, write_json
from .lexicon import TermLexicon, extract_terms

KIND_TECHNOLOGY = "technology"
KIND_TAG = "tag"


@dataclass(frozen=True)
class GraphNode:
    name: str
    kind: str
    doc_frequency: int


@dataclass(frozen=True)
class CoGraph:
    """Immutable weighted undirected graph; nodes sorted by name, (u, v, weight) index triples sorted by (u, v)."""

    nodes: tuple[GraphNode, ...] = ()
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        names = []
        for node in self.nodes:
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
        for edge in self.edges:
            # type() rather than isinstance(): a bool is no node index or weight
            if type(edge) is not tuple or len(edge) != 3 or not all(type(x) is int for x in edge):
                raise GraphError(f"edge {edge!r}: must be a (u, v, weight) triple of integers")
            u, v, weight = edge
            if not 0 <= u < v < n:
                raise GraphError(f"edge {edge!r}: endpoints must satisfy 0 <= u < v < {n} (no self-loops)")
            if (u, v) <= last:
                raise GraphError("graph edges must be unique and sorted by (u, v)")
            last = (u, v)
            if weight < 1:
                raise GraphError(f"edge ({names[u]!r}, {names[v]!r}): weight must be >= 1")

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
    field: str = "both",
    pairs: str = "all",
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
    weights: Counter[tuple[int, int]] = Counter()
    for items in item_sets:
        combos = itertools.combinations(sorted(map(index.__getitem__, items)), 2)
        if pairs == "tech-tag":
            combos = ((u, v) for u, v in combos if kinds[u] != kinds[v])
        weights.update(combos)
    nodes = tuple(GraphNode(name, kind, doc_frequency[name]) for name, kind in zip(names, kinds))
    return CoGraph(nodes=nodes, edges=tuple((u, v, w) for (u, v), w in sorted(weights.items())))


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


# GraphML key ids are fixed so exports are byte-stable.
_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# a character outside XML 1.0's Char production; ElementTree would write it raw
_NOT_XML_CHAR = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_KEYS = (
    ("d_kind", "node", "kind", "string"),
    ("d_freq", "node", "doc_frequency", "int"),
    ("d_cluster", "node", "cluster", "int"),
    ("d_weight", "edge", "weight", "int"),
)


def check_graphml_names(graph: CoGraph) -> None:
    """Raise GraphError for the first node name that XML 1.0, and so GraphML, cannot hold."""
    for node in graph.nodes:
        bad = _NOT_XML_CHAR.search(node.name)
        if bad:
            raise GraphError(f"node {node.name!r}: U+{ord(bad.group()):04X} is no XML 1.0 character, so GraphML cannot hold it")


def export_graphml(graph: CoGraph, path: str | Path, assignment: dict[str, int] | None = None) -> None:
    """Write GraphML with kind/doc_frequency/cluster node attributes and weight edges.

    A node name that XML 1.0 cannot hold raises GraphError before anything is written.
    """
    check_graphml_names(graph)
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    for key_id, domain, name, attr_type in _KEYS:
        ET.SubElement(root, "key", attrib={"id": key_id, "for": domain, "attr.name": name, "attr.type": attr_type})
    graph_el = ET.SubElement(root, "graph", edgedefault="undirected")
    for node in graph.nodes:
        node_el = ET.SubElement(graph_el, "node", id=node.name)
        ET.SubElement(node_el, "data", key="d_kind").text = node.kind
        ET.SubElement(node_el, "data", key="d_freq").text = str(node.doc_frequency)
        if assignment is not None and node.name in assignment:
            ET.SubElement(node_el, "data", key="d_cluster").text = str(assignment[node.name])
    names = graph.node_names()
    for u, v, weight in graph.edges:
        edge_el = ET.SubElement(graph_el, "edge", source=names[u], target=names[v])
        ET.SubElement(edge_el, "data", key="d_weight").text = str(weight)
    ET.indent(root)
    payload = ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"
    atomic_write_bytes(path, payload)


def export_graph_json(graph: CoGraph, path: str | Path) -> None:
    """Write the graph as JSON mirroring the CoGraph fields, each edge endpoint by name."""
    names = graph.node_names()
    payload = {
        "nodes": [{"name": n.name, "kind": n.kind, "doc_frequency": n.doc_frequency} for n in graph.nodes],
        "edges": [{"u": names[u], "v": names[v], "weight": w} for u, v, w in graph.edges],
    }
    write_json(path, payload)

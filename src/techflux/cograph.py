"""Weighted undirected co-occurrence network for one time window.

Nodes are technology terms (lexicon hits) and document tags; an edge exists
between two items iff they appear together in at least one document, with
weight = the number of such documents. Node and edge listings are kept in
canonical sorted order so that every downstream computation and every export
is deterministic.

A node's document frequency is known before any pair is counted, so the
build can keep only the top-n nodes (highest frequency, ties to the lower
name) and count pairs among those alone; the graph equals the full build
passed through ``top_n_filter``.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import GraphError
from .fileio import atomic_write_bytes, write_json
from .lexicon import TermLexicon, extract_terms

KIND_TECHNOLOGY = "technology"
KIND_TAG = "tag"

FIELD_CHOICES = ("text", "tags", "both")
PAIR_CHOICES = ("all", "tech-tag")


@dataclass(frozen=True)
class GraphNode:
    name: str
    kind: str
    doc_frequency: int


@dataclass(frozen=True)
class GraphEdge:
    u: str
    v: str
    weight: int


@dataclass(frozen=True)
class CoGraph:
    """Immutable weighted undirected graph; nodes sorted by name, edges by (u, v)."""

    nodes: tuple[GraphNode, ...] = ()
    edges: tuple[GraphEdge, ...] = ()

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if sorted(names) != names or len(set(names)) != len(names):
            raise GraphError("graph nodes must be unique and sorted by name")
        for node in self.nodes:
            if node.kind not in (KIND_TECHNOLOGY, KIND_TAG):
                raise GraphError(f"node {node.name!r}: unknown kind {node.kind!r}")
            if node.doc_frequency < 0:
                raise GraphError(f"node {node.name!r}: negative doc_frequency")
        name_set = set(names)
        pairs = [(e.u, e.v) for e in self.edges]
        if sorted(pairs) != pairs or len(set(pairs)) != len(pairs):
            raise GraphError("graph edges must be unique and sorted by (u, v)")
        for edge in self.edges:
            if edge.u >= edge.v:
                raise GraphError(f"edge ({edge.u!r}, {edge.v!r}): endpoints must satisfy u < v (no self-loops)")
            if edge.u not in name_set or edge.v not in name_set:
                raise GraphError(f"edge ({edge.u!r}, {edge.v!r}): endpoint not in node set")
            if edge.weight < 1:
                raise GraphError(f"edge ({edge.u!r}, {edge.v!r}): weight must be >= 1")

    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)


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
    if field not in FIELD_CHOICES:
        raise GraphError(f"field must be one of {FIELD_CHOICES}, got {field!r}")
    if pairs not in PAIR_CHOICES:
        raise GraphError(f"pairs must be one of {PAIR_CHOICES}, got {pairs!r}")
    if top_n is not None:
        _check_top_n(top_n)
    canonical = lexicon.canonical_terms
    item_sets = [document_items(doc, lexicon, field) for doc in corpus.documents]
    doc_frequency = Counter(itertools.chain.from_iterable(item_sets))
    if top_n is not None and len(doc_frequency) > top_n:
        keep = _top_names(doc_frequency, top_n)
        item_sets = [items & keep for items in item_sets]
        doc_frequency = {name: doc_frequency[name] for name in keep}
    weights: Counter[tuple[str, str]] = Counter()
    for items in item_sets:
        combos = itertools.combinations(sorted(items), 2)
        if pairs == "tech-tag":
            combos = ((u, v) for u, v in combos if (u in canonical) != (v in canonical))
        weights.update(combos)
    nodes = tuple(
        GraphNode(name=name, kind=KIND_TECHNOLOGY if name in canonical else KIND_TAG, doc_frequency=doc_frequency[name])
        for name in sorted(doc_frequency)
    )
    edges = tuple(GraphEdge(u=u, v=v, weight=w) for (u, v), w in sorted(weights.items()))
    return CoGraph(nodes=nodes, edges=edges)


def _check_top_n(n: int) -> None:
    if n < 1:
        raise GraphError(f"top_n must be >= 1, got {n}")


def _top_names(doc_frequency: dict[str, int], n: int) -> set[str]:
    """The n names with highest doc_frequency (ties: lexicographic, lower kept)."""
    ranked = sorted(doc_frequency, key=lambda name: (-doc_frequency[name], name))
    return set(ranked[:n])


def top_n_filter(graph: CoGraph, n: int) -> CoGraph:
    """Keep the n nodes with highest doc_frequency (ties: lexicographic, lower kept)."""
    _check_top_n(n)
    if len(graph.nodes) <= n:
        return graph
    keep = _top_names({node.name: node.doc_frequency for node in graph.nodes}, n)
    nodes = tuple(node for node in graph.nodes if node.name in keep)
    edges = tuple(edge for edge in graph.edges if edge.u in keep and edge.v in keep)
    return CoGraph(nodes=nodes, edges=edges)


# GraphML key ids are fixed so exports are byte-stable.
_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
_KEYS = (
    ("d_kind", "node", "kind", "string"),
    ("d_freq", "node", "doc_frequency", "int"),
    ("d_cluster", "node", "cluster", "int"),
    ("d_weight", "edge", "weight", "int"),
)


def export_graphml(graph: CoGraph, path: str | Path, assignment: dict[str, int] | None = None) -> None:
    """Write GraphML with kind/doc_frequency/cluster node attributes and weight edges."""
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
    for edge in graph.edges:
        edge_el = ET.SubElement(graph_el, "edge", source=edge.u, target=edge.v)
        ET.SubElement(edge_el, "data", key="d_weight").text = str(edge.weight)
    ET.indent(root)
    payload = ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"
    atomic_write_bytes(path, payload)


def export_graph_json(graph: CoGraph, path: str | Path) -> None:
    """Write the graph as JSON mirroring the CoGraph fields."""
    payload = {
        "nodes": [{"name": n.name, "kind": n.kind, "doc_frequency": n.doc_frequency} for n in graph.nodes],
        "edges": [{"u": e.u, "v": e.v, "weight": e.weight} for e in graph.edges],
    }
    write_json(path, payload)

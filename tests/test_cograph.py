import datetime as dt
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux.cograph import (
    CoGraph,
    GraphEdge,
    GraphNode,
    build_cooccurrence,
    export_graph_json,
    export_graphml,
    top_n_filter,
)
from techflux.config import FIELD_CHOICES, PAIR_CHOICES
from techflux.corpus import Corpus, Document
from techflux.errors import GraphError
from techflux.lexicon import lexicon_from_records

from oracles import make_graph, read_graph_json, read_graphml, top_n_filter_reference

DATE = dt.date(2020, 1, 1)


def tag_doc(doc_id, *tags):
    return Document(id=doc_id, date=DATE, tags=tuple(tags))


def corpus_of(*docs):
    return Corpus(documents=tuple(docs))


EMPTY_LEX = lexicon_from_records([])


def edge_map(graph):
    return {(e.u, e.v): e.weight for e in graph.edges}


def test_single_doc_triangle():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "a", "b", "c")), EMPTY_LEX, field="tags")
    assert graph.node_names() == ("a", "b", "c")
    assert edge_map(graph) == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


def test_repeated_pair_accumulates_weight():
    graph = build_cooccurrence(
        corpus_of(tag_doc("d1", "a", "b"), tag_doc("d2", "a", "b")), EMPTY_LEX, field="tags"
    )
    assert edge_map(graph) == {("a", "b"): 2}
    freq = {n.name: n.doc_frequency for n in graph.nodes}
    assert freq == {"a": 2, "b": 2}


def test_single_item_doc_gives_isolated_node():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "a")), EMPTY_LEX, field="tags")
    assert graph.node_names() == ("a",)
    assert graph.edges == ()


def test_duplicate_tag_in_doc_counts_once():
    doc = Document(id="d1", date=DATE, tags=("a", "a", "b"))
    graph = build_cooccurrence(corpus_of(doc), EMPTY_LEX, field="tags")
    assert edge_map(graph) == {("a", "b"): 1}


def test_empty_corpus_gives_empty_graph():
    graph = build_cooccurrence(corpus_of(), EMPTY_LEX)
    assert graph.nodes == () and graph.edges == ()


def test_text_terms_get_technology_kind():
    lexicon = lexicon_from_records([
        {"canonical": "ai", "patterns": ["ai"]},
        {"canonical": "blockchain", "patterns": ["blockchains?"]},
    ])
    doc = Document(id="d1", date=DATE, text="AI meets blockchain", tags=("finance",))
    graph = build_cooccurrence(corpus_of(doc), lexicon, field="both")
    kinds = {n.name: n.kind for n in graph.nodes}
    assert kinds == {"ai": "technology", "blockchain": "technology", "finance": "tag"}
    assert len(graph.edges) == 3


def test_term_also_a_tag_is_single_technology_node():
    lexicon = lexicon_from_records([{"canonical": "ai", "patterns": ["ai"]}])
    doc = Document(id="d1", date=DATE, text="ai rules", tags=("ai", "news"))
    graph = build_cooccurrence(corpus_of(doc), lexicon, field="both")
    kinds = {n.name: n.kind for n in graph.nodes}
    assert kinds == {"ai": "technology", "news": "tag"}
    freq = {n.name: n.doc_frequency for n in graph.nodes}
    assert freq["ai"] == 1


def test_field_selector():
    lexicon = lexicon_from_records([{"canonical": "ai", "patterns": ["ai"]}])
    doc = Document(id="d1", date=DATE, text="ai here", tags=("cloud",))
    text_only = build_cooccurrence(corpus_of(doc), lexicon, field="text")
    assert text_only.node_names() == ("ai",)
    tags_only = build_cooccurrence(corpus_of(doc), lexicon, field="tags")
    assert tags_only.node_names() == ("cloud",)
    both = build_cooccurrence(corpus_of(doc), lexicon, field="both")
    assert both.node_names() == ("ai", "cloud")
    with pytest.raises(GraphError, match="field"):
        build_cooccurrence(corpus_of(doc), lexicon, field="title")


def test_tech_tag_pairs_mode_drops_same_kind_edges():
    lexicon = lexicon_from_records([
        {"canonical": "ai", "patterns": ["ai"]},
        {"canonical": "iot", "patterns": ["iot"]},
    ])
    doc = Document(id="d1", date=DATE, text="ai and iot", tags=("cloud", "devops"))
    graph = build_cooccurrence(corpus_of(doc), lexicon, field="both", pairs="tech-tag")
    assert set(edge_map(graph)) == {("ai", "cloud"), ("ai", "devops"), ("cloud", "iot"), ("devops", "iot")}


def test_order_independence():
    docs = [tag_doc(f"d{i}", *tags) for i, tags in enumerate([("a", "b"), ("b", "c"), ("a", "c", "d")])]
    forward = build_cooccurrence(corpus_of(*docs), EMPTY_LEX, field="tags")
    backward = build_cooccurrence(corpus_of(*reversed(docs)), EMPTY_LEX, field="tags")
    assert forward == backward


def test_counting_identity_small_random_corpora():
    rng = random.Random(420)
    vocab = [f"t{i}" for i in range(12)]
    for _ in range(25):
        docs = []
        for i in range(rng.randint(1, 20)):
            size = rng.randint(0, 5)
            docs.append(tag_doc(f"d{i}", *rng.sample(vocab, size)))
        graph = build_cooccurrence(corpus_of(*docs), EMPTY_LEX, field="tags")
        brute = {}
        for doc in docs:
            for a, b in itertools.combinations(sorted(set(doc.tags)), 2):
                brute[(a, b)] = brute.get((a, b), 0) + 1
        assert edge_map(graph) == brute


def test_top_n_identity_when_small():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "a", "b", "c")), EMPTY_LEX, field="tags")
    assert top_n_filter(graph, 3) == graph
    assert top_n_filter(graph, 10) == graph


def test_top_n_selection_and_edge_pruning():
    docs = (
        [tag_doc(f"a{i}", "a", "b") for i in range(5)]
        + [tag_doc(f"b{i}", "a", "c") for i in range(4)]
        + [tag_doc("c0", "b", "c")]
    )
    graph = build_cooccurrence(corpus_of(*docs), EMPTY_LEX, field="tags")
    freq = {n.name: n.doc_frequency for n in graph.nodes}
    assert freq == {"a": 9, "b": 6, "c": 5}
    cut = top_n_filter(graph, 2)
    assert cut.node_names() == ("a", "b")
    assert edge_map(cut) == {("a", "b"): 5}


def test_top_n_tie_breaks_lexicographically():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "x", "y")), EMPTY_LEX, field="tags")
    cut = top_n_filter(graph, 1)
    assert cut.node_names() == ("x",)


def test_top_n_idempotent_and_monotone():
    rng = random.Random(7)
    docs = [tag_doc(f"d{i}", *rng.sample([f"t{j}" for j in range(9)], rng.randint(2, 5))) for i in range(30)]
    graph = build_cooccurrence(corpus_of(*docs), EMPTY_LEX, field="tags")
    for n in range(1, 10):
        once = top_n_filter(graph, n)
        assert top_n_filter(once, n) == once
    for small in range(1, 8):
        for big in range(small, 10):
            assert set(top_n_filter(graph, small).node_names()) <= set(top_n_filter(graph, big).node_names())


class _UnreadableCorpus:
    @property
    def documents(self):
        raise AssertionError("a document was read")


def test_top_n_requires_positive_n():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "a", "b")), EMPTY_LEX, field="tags")
    with pytest.raises(GraphError):
        top_n_filter(graph, 0)
    with pytest.raises(GraphError, match=r"^top_n must be an integer >= 1, got 0$"):
        build_cooccurrence(_UnreadableCorpus(), EMPTY_LEX, top_n=0)


# the terms "ai", "iot" and "vr" are also drawn as tags; a few words and tags
# over a few documents give many ties in document frequency
_TERM_LEX = lexicon_from_records([
    {"canonical": "ai", "patterns": ["ai", "ai|machine learning"]},
    {"canonical": "iot", "patterns": ["iot"]},
    {"canonical": "vr", "patterns": ["vr"]},
])
_WORDS = ("ai", "machine learning", "iot", "vr", "other")
_TAGS = ("ai", "iot", "vr", "cloud", "news")


@st.composite
def term_corpora(draw):
    docs = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(_WORDS), max_size=4), st.lists(st.sampled_from(_TAGS), max_size=4)),
        max_size=8,
    ))
    return corpus_of(*(
        Document(id=f"d{i}", date=DATE, text=" ".join(words), tags=tuple(tags))
        for i, (words, tags) in enumerate(docs)
    ))


@settings(deadline=None)
@given(term_corpora(), st.sampled_from(FIELD_CHOICES), st.sampled_from(PAIR_CHOICES), st.data())
def test_top_n_build_matches_full_build_then_filter(corpus, field, pairs, data):
    full = build_cooccurrence(corpus, _TERM_LEX, field, pairs)
    n = data.draw(st.integers(1, len(full.nodes) + 2), label="top_n")
    assert build_cooccurrence(corpus, _TERM_LEX, field, pairs, top_n=n) == top_n_filter_reference(full, n)


def test_graph_validation_rules():
    node = GraphNode("a", "tag", 1)
    other = GraphNode("b", "tag", 1)
    with pytest.raises(GraphError, match="sorted"):
        CoGraph(nodes=(other, node))
    with pytest.raises(GraphError, match="u < v"):
        CoGraph(nodes=(node, other), edges=(GraphEdge("b", "a", 1),))
    with pytest.raises(GraphError, match="u < v"):
        CoGraph(nodes=(node, other), edges=(GraphEdge("a", "a", 1),))
    with pytest.raises(GraphError, match="endpoint"):
        CoGraph(nodes=(node, other), edges=(GraphEdge("a", "z", 1),))
    with pytest.raises(GraphError, match="weight"):
        CoGraph(nodes=(node, other), edges=(GraphEdge("a", "b", 0),))
    with pytest.raises(GraphError, match="kind"):
        CoGraph(nodes=(GraphNode("a", "color", 1),))


def test_doc_frequency_bounds_incident_weights():
    docs = [tag_doc(f"d{i}", "a", "b", "c") for i in range(4)]
    graph = build_cooccurrence(corpus_of(*docs), EMPTY_LEX, field="tags")
    freq = {n.name: n.doc_frequency for n in graph.nodes}
    for edge in graph.edges:
        assert freq[edge.u] >= edge.weight
        assert freq[edge.v] >= edge.weight


def test_graphml_roundtrip(tmp_path):
    lexicon = lexicon_from_records([{"canonical": "ai", "patterns": ["ai"]}])
    docs = (
        Document(id="d1", date=DATE, text="ai stuff", tags=("cloud", "ml ops")),
        Document(id="d2", date=DATE, text="more ai", tags=("cloud",)),
    )
    graph = build_cooccurrence(corpus_of(*docs), lexicon, field="both")
    path = tmp_path / "g.graphml"
    export_graphml(graph, path)
    loaded, assignment = read_graphml(path)
    assert loaded == graph
    assert assignment is None


def test_graphml_roundtrip_with_clusters(tmp_path):
    graph = make_graph([("a", "b", 2), ("b", "c", 1)])
    path = tmp_path / "g.graphml"
    export_graphml(graph, path, assignment={"a": 0, "b": 0, "c": 1})
    loaded, assignment = read_graphml(path)
    assert loaded == graph
    assert assignment == {"a": 0, "b": 0, "c": 1}


def test_graphml_empty_graph(tmp_path):
    path = tmp_path / "empty.graphml"
    export_graphml(CoGraph(), path)
    loaded, assignment = read_graphml(path)
    assert loaded == CoGraph()
    assert assignment is None


@pytest.mark.parametrize("name,code_point", [("bad\x01tag", "U+0001"), ("x\x1f", "U+001F"), ("\ufffe", "U+FFFE")])
def test_graphml_refuses_a_name_xml_cannot_hold(tmp_path, name, code_point):
    graph = make_graph([("a", name, 1)])
    path = tmp_path / "g.graphml"
    message = f"node {name!r}: {code_point} is no XML 1.0 character, so GraphML cannot hold it"
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        export_graphml(graph, path)
    assert not path.exists()


def test_graphml_keeps_tab_newline_and_astral_names(tmp_path):
    graph = make_graph([("a\tb", "c\nd", 1), ("c\nd", "\U0001f680", 2)])
    path = tmp_path / "g.graphml"
    export_graphml(graph, path, assignment={"a\tb": 0, "c\nd": 0, "\U0001f680": 1})
    assert read_graphml(path) == (graph, {"a\tb": 0, "c\nd": 0, "\U0001f680": 1})


def test_graphml_triangle_element_counts(tmp_path):
    graph = make_graph([("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
    path = tmp_path / "tri.graphml"
    export_graphml(graph, path)
    content = path.read_text()
    assert content.count("<node ") == 3
    assert content.count("<edge ") == 3


def test_graphml_export_is_byte_deterministic(tmp_path):
    graph = make_graph([("a", "b", 2), ("b", "c", 1), ("a", "c", 4)])
    p1, p2 = tmp_path / "g1.graphml", tmp_path / "g2.graphml"
    export_graphml(graph, p1)
    export_graphml(graph, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_graph_json_roundtrip(tmp_path):
    graph = make_graph([("a", "b", 2), ("b", "c", 1)])
    path = tmp_path / "g.json"
    export_graph_json(graph, path)
    assert read_graph_json(path) == graph

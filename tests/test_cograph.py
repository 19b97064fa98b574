import datetime as dt
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from techflux.cograph import (
    _NOT_XML_CHAR,
    KIND_TAG,
    KIND_TECHNOLOGY,
    CoGraph,
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

from oracles import (
    ORACLE_EXAMPLES,
    build_cooccurrence_reference,
    export_graphml_reference,
    graph_json_reference,
    make_graph,
    named_edges,
    named_graph,
    read_graph_json,
    read_graphml,
    top_n_filter_reference,
)

DATE = dt.date(2020, 1, 1)


def tag_doc(doc_id, *tags):
    return Document(id=doc_id, date=DATE, tags=tuple(tags))


def corpus_of(*docs):
    return Corpus(documents=tuple(docs))


EMPTY_LEX = lexicon_from_records([])


def test_single_doc_triangle():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "a", "b", "c")), EMPTY_LEX, field="tags")
    assert graph.node_names() == ("a", "b", "c")
    assert named_edges(graph) == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


def test_repeated_pair_accumulates_weight():
    graph = build_cooccurrence(
        corpus_of(tag_doc("d1", "a", "b"), tag_doc("d2", "a", "b")), EMPTY_LEX, field="tags"
    )
    assert named_edges(graph) == {("a", "b"): 2}
    freq = {n.name: n.doc_frequency for n in graph.nodes}
    assert freq == {"a": 2, "b": 2}


def test_single_item_doc_gives_isolated_node():
    graph = build_cooccurrence(corpus_of(tag_doc("d1", "a")), EMPTY_LEX, field="tags")
    assert graph.node_names() == ("a",)
    assert graph.edges == ()


def test_duplicate_tag_in_doc_counts_once():
    doc = Document(id="d1", date=DATE, tags=("a", "a", "b"))
    graph = build_cooccurrence(corpus_of(doc), EMPTY_LEX, field="tags")
    assert named_edges(graph) == {("a", "b"): 1}


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
    assert set(named_edges(graph)) == {("ai", "cloud"), ("ai", "devops"), ("cloud", "iot"), ("devops", "iot")}


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
        assert named_edges(graph) == brute


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
    assert named_edges(cut) == {("a", "b"): 5}


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


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(term_corpora(), st.sampled_from(FIELD_CHOICES), st.sampled_from(PAIR_CHOICES), st.data())
def test_build_matches_the_name_pair_reference(corpus, field, pairs, data):
    full = build_cooccurrence_reference(corpus, _TERM_LEX, field, pairs)
    top_n = data.draw(st.none() | st.integers(1, len(full.nodes) + 2), label="top_n")
    graph = build_cooccurrence(corpus, _TERM_LEX, field, pairs, top_n)
    reference = build_cooccurrence_reference(corpus, _TERM_LEX, field, pairs, top_n)
    assert graph.nodes == reference.nodes
    assert named_edges(graph) == named_edges(reference)


@pytest.mark.parametrize("field", FIELD_CHOICES)
@pytest.mark.parametrize("pairs", PAIR_CHOICES)
@pytest.mark.parametrize("top_n", [None, 1])
def test_build_of_the_empty_corpus_matches_the_reference(field, pairs, top_n):
    graph = build_cooccurrence(corpus_of(), _TERM_LEX, field, pairs, top_n)
    assert graph == build_cooccurrence_reference(corpus_of(), _TERM_LEX, field, pairs, top_n) == CoGraph()


def test_graph_validation_rules():
    node = GraphNode("a", "tag", 1)
    other = GraphNode("b", "tag", 1)
    third = GraphNode("c", "tag", 1)
    with pytest.raises(GraphError, match="sorted"):
        CoGraph(nodes=(other, node))
    with pytest.raises(GraphError, match="sorted"):
        CoGraph(nodes=(node, node))
    with pytest.raises(GraphError, match="u < v"):
        CoGraph(nodes=(node, other), edges=((1, 0, 1),))
    with pytest.raises(GraphError, match="u < v"):
        CoGraph(nodes=(node, other), edges=((0, 0, 1),))
    with pytest.raises(GraphError, match="endpoint"):
        CoGraph(nodes=(node, other), edges=((0, 2, 1),))
    with pytest.raises(GraphError, match="endpoint"):
        CoGraph(nodes=(node, other), edges=((-1, 1, 1),))
    with pytest.raises(GraphError, match=r"^graph edges must be unique and sorted by \(u, v\)$"):
        CoGraph(nodes=(node, other, third), edges=((0, 2, 1), (0, 1, 1)))
    with pytest.raises(GraphError, match=r"^graph edges must be unique and sorted by \(u, v\)$"):
        CoGraph(nodes=(node, other, third), edges=((0, 1, 1), (0, 1, 1)))
    with pytest.raises(GraphError, match=r"^edge \('a', 'b'\): weight must be >= 1$"):
        CoGraph(nodes=(node, other), edges=((0, 1, 0),))
    with pytest.raises(GraphError, match="kind"):
        CoGraph(nodes=(GraphNode("a", "color", 1),))
    with pytest.raises(GraphError, match=r"^node 'a': negative doc_frequency$"):
        CoGraph(nodes=(GraphNode("a", "tag", -1),))
    for bad_node, message in [
        (GraphNode("a", "tag", "1"), "node 'a': doc_frequency '1' is not an integer"),
        (GraphNode("a", "tag", True), "node 'a': doc_frequency True is not an integer"),
        (GraphNode("a", "tag", 1.0), "node 'a': doc_frequency 1.0 is not an integer"),
        (GraphNode(1, "tag", 1), "node name 1: must be a string"),
    ]:
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            CoGraph(nodes=(bad_node,))
    for bad_edge in [(0, 1), (0, 1, 1, 1), [0, 1, 1], (False, True, 1), (0, 1, True), (0, 1, 1.0), ("a", "b", 1), None]:
        message = f"edge {bad_edge!r}: must be a (u, v, weight) triple of integers"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            CoGraph(nodes=(node, other), edges=(bad_edge,))


def test_doc_frequency_bounds_incident_weights():
    docs = [tag_doc(f"d{i}", "a", "b", "c") for i in range(4)]
    graph = build_cooccurrence(corpus_of(*docs), EMPTY_LEX, field="tags")
    freq = {n.name: n.doc_frequency for n in graph.nodes}
    for (u, v), weight in named_edges(graph).items():
        assert freq[u] >= weight
        assert freq[v] >= weight


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
    content = path.read_text(encoding="utf-8")
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


# name pieces: XML specials, a CDATA end, whitespace, non-ASCII and astral text
_NAME_PIECES = ("&", "<", ">", '"', "'", "]]>", "\t", "\n", "\r", " ", "a", "b", "é", "中", "\U0001f680", "&amp;")
# characters XML 1.0 can hold: no surrogate, U+FFFE or U+FFFF, and of the controls only tab, LF, CR and NEL
_XML_CHARS = st.characters(
    exclude_categories=("Cc", "Cs"), include_characters="\t\n\r\x85", exclude_characters="\ufffe\uffff"
)
_NAMES = st.lists(st.sampled_from(_NAME_PIECES), max_size=4).map("".join) | st.text(_XML_CHARS, max_size=6)


@st.composite
def exportable_graphs(draw):
    """A graph of XML-safe names with any kinds, frequencies and weights, and a cluster assignment or None."""
    names = sorted(draw(st.lists(_NAMES, unique=True, max_size=8)))
    nodes = tuple(
        GraphNode(name, draw(st.sampled_from((KIND_TECHNOLOGY, KIND_TAG))), draw(st.integers(0, 10**9)))
        for name in names
    )
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(len(names)), 2))), unique=True)
                 if len(names) > 1 else st.just([]))
    edges = tuple((u, v, draw(st.integers(1, 10**9))) for u, v in sorted(pairs))
    clusters = {name: draw(st.integers(0, 50)) for name in names}
    assignment = draw(st.sampled_from(("full", "partial", "empty", "none")))
    if assignment == "partial":
        clusters = {name: c for name, c in clusters.items() if draw(st.booleans())}
    return CoGraph(nodes=nodes, edges=edges), {"full": clusters, "partial": clusters, "empty": {}, "none": None}[assignment]


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exports")


@settings(deadline=None)
@given(exportable_graphs())
@example((CoGraph(), None))
@example((CoGraph(), {}))
@example((CoGraph(nodes=(GraphNode("a", KIND_TAG, 0), GraphNode("b", KIND_TECHNOLOGY, 1))), {"a": 0}))
def test_exports_match_the_elementtree_and_json_text_writers(export_dir, case):
    graph, assignment = case
    export_graphml(graph, export_dir / "g.graphml", assignment)
    export_graph_json(graph, export_dir / "g.json")
    assert (export_dir / "g.graphml").read_bytes() == export_graphml_reference(graph, assignment)
    assert (export_dir / "g.json").read_bytes() == graph_json_reference(graph).encode("utf-8")


def test_export_escapes_are_pinned_in_literal_bytes(tmp_path):
    graph = named_graph(
        [GraphNode('a&b<c>"d', KIND_TECHNOLOGY, 4), GraphNode("e\tf\ng\rh'é", KIND_TAG, 3)],
        [('a&b<c>"d', "e\tf\ng\rh'é", 3)],
    )
    export_graphml(graph, tmp_path / "g.graphml", assignment={'a&b<c>"d': 0})
    export_graph_json(graph, tmp_path / "g.json")
    assert (tmp_path / "g.graphml").read_bytes() == """\
<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d_kind" for="node" attr.name="kind" attr.type="string" />
  <key id="d_freq" for="node" attr.name="doc_frequency" attr.type="int" />
  <key id="d_cluster" for="node" attr.name="cluster" attr.type="int" />
  <key id="d_weight" for="edge" attr.name="weight" attr.type="int" />
  <graph edgedefault="undirected">
    <node id="a&amp;b&lt;c&gt;&quot;d">
      <data key="d_kind">technology</data>
      <data key="d_freq">4</data>
      <data key="d_cluster">0</data>
    </node>
    <node id="e&#09;f&#10;g&#13;h'é">
      <data key="d_kind">tag</data>
      <data key="d_freq">3</data>
    </node>
    <edge source="a&amp;b&lt;c&gt;&quot;d" target="e&#09;f&#10;g&#13;h'é">
      <data key="d_weight">3</data>
    </edge>
  </graph>
</graphml>
""".encode("utf-8")
    assert (tmp_path / "g.json").read_bytes() == r"""{
  "nodes": [
    {
      "name": "a&b<c>\"d",
      "kind": "technology",
      "doc_frequency": 4
    },
    {
      "name": "e\tf\ng\rh'é",
      "kind": "tag",
      "doc_frequency": 3
    }
  ],
  "edges": [
    {
      "u": "a&b<c>\"d",
      "v": "e\tf\ng\rh'é",
      "weight": 3
    }
  ]
}
""".encode("utf-8")


def test_not_xml_char_class_equals_the_complement_of_xml_chars_on_every_code_point():
    # XML 1.0's Char production, negated: the form the class was first written in
    complement = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every = "".join(map(chr, range(0x110000)))
    found = re.findall(_NOT_XML_CHAR, every)
    assert found == complement.findall(every)
    assert len(found) == 2079

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux import community
from techflux.community import (
    EDGELESS_MSG,
    Partition,
    _Level,
    _aggregate,
    _degree_order,
    _descend,
    _escape_round,
    _lex_order,
    _local_phase,
    export_partition_json,
    louvain,
    modularity,
    suggest_labels,
)
from techflux.cograph import CoGraph, GraphNode, build_cooccurrence
from techflux.corpus import window_filter
from techflux.errors import CommunityError
from techflux.fileio import json_text
from techflux.lexicon import lexicon_from_records
from techflux.synth import generate_corpus, plant_spec_from_records

from oracles import (
    ORACLE_EXAMPLES,
    aggregate_reference,
    best_partition_bruteforce,
    escape_round_reference,
    local_phase_reference,
    louvain_reference,
    make_graph,
    modularity_pairsum,
    random_connected_graph,
    suggest_labels_reference,
)

TRIANGLES = [("a", "b", 1), ("a", "c", 1), ("b", "c", 1),
             ("d", "e", 1), ("d", "f", 1), ("e", "f", 1)]


def clusters_as_sets(partition):
    return {frozenset(block) for block in partition.clusters()}


def test_two_disjoint_triangles_q_half():
    graph = make_graph(TRIANGLES)
    part = louvain(graph)
    assert clusters_as_sets(part) == {frozenset("abc"), frozenset("def")}
    assert abs(part.modularity - 0.5) < 1e-15


def test_two_triangles_with_bridge():
    graph = make_graph(TRIANGLES + [("c", "d", 1)])
    part = louvain(graph)
    assert clusters_as_sets(part) == {frozenset("abc"), frozenset("def")}
    # m = 7; per triangle: w_in/2m - (w_tot/2m)^2 = 6/14 - (7/14)^2 = 5/28
    assert abs(part.modularity - 5.0 / 14.0) < 1e-12


def test_two_disjoint_k4():
    edges = []
    for block in ("abcd", "efgh"):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((block[i], block[j], 1))
    part = louvain(make_graph(edges))
    assert clusters_as_sets(part) == {frozenset("abcd"), frozenset("efgh")}
    assert abs(part.modularity - 0.5) < 1e-15


def test_one_cluster_q_zero():
    graph = make_graph([("x", "y", 1)])
    assert modularity(graph, {"x": 0, "y": 0}) == 0.0


def test_single_edge_singletons_q_minus_half():
    graph = make_graph([("x", "y", 1)])
    assert modularity(graph, {"x": 0, "y": 1}) == -0.5


def test_modularity_matches_pairsum_oracle():
    rng = random.Random(99)
    for _ in range(30):
        graph = random_connected_graph(rng)
        part = louvain(graph)
        direct = modularity_pairsum(graph, part.assignment)
        assert abs(part.modularity - direct) < 1e-12
        assert abs(modularity(graph, part) - direct) < 1e-12


def test_louvain_near_bruteforce_optimum():
    rng = random.Random(4242)
    for _ in range(40):
        graph = random_connected_graph(rng, max_nodes=7)
        part = louvain(graph)
        best_q, _ = best_partition_bruteforce(graph)
        floor = 0.9 * best_q if best_q > 0 else best_q - 1e-12
        assert part.modularity >= floor - 1e-12


def test_final_partition_is_merge_locally_optimal():
    rng = random.Random(31)
    for _ in range(20):
        graph = random_connected_graph(rng)
        part = louvain(graph)
        q0 = part.modularity
        for source in range(part.cluster_count):
            for target in range(part.cluster_count):
                if source == target:
                    continue
                merged = {
                    name: (target if cid == source else cid)
                    for name, cid in part.assignment.items()
                }
                assert modularity(graph, merged) <= q0 + 1e-12


def test_louvain_deterministic_across_runs():
    rng = random.Random(5)
    for _ in range(10):
        graph = random_connected_graph(rng)
        first = louvain(graph)
        second = louvain(graph)
        assert first.assignment == second.assignment
        assert first.modularity == second.modularity


def test_cluster_ids_dense_and_ordered_by_smallest_member():
    graph = make_graph(TRIANGLES)
    part = louvain(graph)
    assert part.assignment["a"] == 0
    assert part.assignment["d"] == 1
    assert sorted(set(part.assignment.values())) == list(range(part.cluster_count))


def test_resolution_sweeps_cluster_granularity():
    graph = make_graph(TRIANGLES + [("c", "d", 1)])
    coarse = louvain(graph, resolution=0.05)
    default = louvain(graph, resolution=1.0)
    fine = louvain(graph, resolution=8.0)
    assert coarse.cluster_count <= default.cluster_count <= fine.cluster_count
    assert coarse.cluster_count == 1
    # reported modularity stays the standard (resolution-1) quantity
    assert abs(modularity(graph, fine) - fine.modularity) < 1e-15


def test_louvain_rejects_bad_inputs():
    graph = make_graph([("a", "b", 1)])
    with pytest.raises(CommunityError, match="resolution"):
        louvain(graph, resolution=0.0)
    edgeless = CoGraph(nodes=(GraphNode("a", "tag", 1),))
    with pytest.raises(CommunityError, match=EDGELESS_MSG):
        louvain(edgeless)


def test_modularity_requires_exact_cover():
    graph = make_graph([("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(CommunityError, match="missing"):
        modularity(graph, {"a": 0, "b": 0})
    with pytest.raises(CommunityError, match="extra"):
        modularity(graph, {"a": 0, "b": 0, "c": 0, "z": 1})
    with pytest.raises(CommunityError, match=EDGELESS_MSG):
        modularity(CoGraph(nodes=(GraphNode("a", "tag", 1),)), {"a": 0})


def test_partition_validation():
    with pytest.raises(CommunityError):
        Partition(assignment={}, modularity=0.0, cluster_count=1)
    with pytest.raises(CommunityError, match="outside"):
        Partition(assignment={"a": 2}, modularity=0.0, cluster_count=2)
    with pytest.raises(CommunityError, match=r"^cluster 1 has no nodes"):
        Partition(assignment={"a": 0, "b": 2, "c": 3}, modularity=0.0, cluster_count=4)
    with pytest.raises(CommunityError, match=r"^node 'a': cluster id False is not an integer$"):
        Partition(assignment={"a": False, "b": True}, modularity=0.0, cluster_count=2)
    for cid in (False, True, 1.0, "0", None):
        with pytest.raises(CommunityError, match=f"^node 'b': cluster id {re.escape(repr(cid))} is not an integer$"):
            Partition(assignment={"a": 0, "b": cid}, modularity=0.0, cluster_count=2)
    part = Partition(assignment={"a": 0, "b": 1, "c": 0}, modularity=0.0, cluster_count=2)
    assert part.clusters() == [("a", "c"), ("b",)]


def test_weighted_graph_prefers_heavy_edges():
    # heavy pair plus a lightly attached satellite on each side
    graph = make_graph([("a", "b", 10), ("a", "c", 1), ("b", "d", 1)])
    part = louvain(graph)
    assert part.assignment["a"] == part.assignment["b"]


def test_isolated_node_gets_own_cluster():
    graph = make_graph([("a", "b", 1)], extra_nodes=("z",))
    part = louvain(graph)
    assert part.assignment["z"] not in (part.assignment["a"], part.assignment["b"])
    assert part.cluster_count == 2


def test_suggest_labels_ranks_by_intra_degree():
    graph = make_graph(TRIANGLES + [("c", "d", 1)])
    part = louvain(graph)
    labels = suggest_labels(graph, part)
    by_id = {lab.cluster_id: lab for lab in labels}
    assert by_id[0].suggested_label == "a"
    assert by_id[0].top_tags == ("a", "b", "c")
    assert by_id[1].top_tags == ("d", "e", "f")
    with pytest.raises(CommunityError, match="cover"):
        suggest_labels(graph, Partition({"a": 0}, 0.0, 1))


def test_partition_json_roundtrip(tmp_path):
    graph = make_graph(TRIANGLES)
    part = louvain(graph)
    path = tmp_path / "p.json"
    export_partition_json(part, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["assignment"] == part.assignment
    assert payload["cluster_count"] == 2
    assert abs(payload["modularity"] - 0.5) < 1e-15
    assert path.read_text(encoding="utf-8") == json_text(
        {"assignment": dict(sorted(part.assignment.items())), "modularity": part.modularity, "cluster_count": 2}
    )


@st.composite
def escape_round_cases(draw):
    """A level-0 graph with integer weights, a starting assignment, an order and a resolution."""
    n = draw(st.integers(2, 40))
    density = draw(st.floats(0.05, 0.6))
    max_weight = draw(st.integers(1, 3))  # small weights make tied gains common
    rnd = draw(st.randoms(use_true_random=False))
    adj = [{} for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            # Nodes 0 and 1 are always linked, so the graph has an edge.
            if (u, v) == (0, 1) or rnd.random() < density:
                adj[u][v] = adj[v][u] = float(rnd.randint(1, max_weight))
    level = _Level(adj, [0.0] * n)
    order = draw(st.sampled_from([_lex_order, _degree_order]))(level)
    resolution = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        com = [rnd.randrange(n) for _ in range(n)]
    else:
        com = _local_phase(level, resolution, order)[0]
    return level, resolution, order, com


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(escape_round_cases())
def test_escape_round_matches_rescoring_oracle(case):
    level, resolution, order, com = case
    assert _escape_round(level, resolution, order, list(com)) == \
        escape_round_reference(level, resolution, order, list(com))


def test_escape_round_skips_a_level_over_its_size_cap():
    n = community._ESCAPE_MAX_NODES + 1
    level = _Level([{(i + 1) % n: 1.0, (i - 1) % n: 1.0} for i in range(n)], [0.0] * n)
    com = [i // 2 for i in range(n)]
    got, improved = _escape_round(level, 1.0, _lex_order(level), com)
    assert got is com and improved is False


def test_louvain_over_the_escape_cap_finds_disjoint_cliques():
    # 105 five-cliques: 525 nodes, so level 0 is refined without escape rounds
    cliques = [[f"n{5 * k + i:03d}" for i in range(5)] for k in range(105)]
    edges = [(a, b, 1) for clique in cliques for i, a in enumerate(clique) for b in clique[i + 1:]]
    part = louvain(make_graph(edges))
    assert len(part.assignment) > community._ESCAPE_MAX_NODES
    assert clusters_as_sets(part) == {frozenset(clique) for clique in cliques}


@st.composite
def local_phase_cases(draw):
    """An escape-round case whose nodes may carry self-loops, as on aggregated levels."""
    level, resolution, order, com = draw(escape_round_cases())
    self_w = draw(st.lists(st.integers(0, 3).map(float), min_size=level.size, max_size=level.size))
    return _Level(level.adj, self_w), resolution, order, com


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(local_phase_cases())
def test_local_phase_matches_ascending_scan_oracle(case):
    level, resolution, order, com = case
    assert _local_phase(level, resolution, order) == local_phase_reference(level, resolution, order)
    assert _local_phase(level, resolution, order, com) == local_phase_reference(level, resolution, order, com)


# short names over a small alphabet, so shared prefixes are common
_NAMES = st.text("ab-é中", min_size=1, max_size=3)


@settings(deadline=None)
@given(local_phase_cases(), st.data())
def test_aggregate_matches_smallest_name_oracle(case, data):
    level, _, _, com = case
    names = [f"n{i:02d}" for i in range(level.size)]
    # three levels up, so the order of later supernodes is checked as well
    for _ in range(3):
        new_level, new_index = _aggregate(level, com)
        names, adj, self_w, ref_index = aggregate_reference(names, level, com)
        assert (new_level.adj, new_level.self_w, new_index) == (adj, self_w, ref_index)
        level = new_level
        com = data.draw(st.lists(st.integers(0, level.size - 1), min_size=level.size, max_size=level.size))


@st.composite
def louvain_cases(draw):
    """A graph with isolated nodes allowed, an order-preserving rename of its nodes and a resolution."""
    n = draw(st.integers(2, 20))
    names = sorted(draw(st.lists(_NAMES, min_size=n, max_size=n, unique=True)))
    renamed = sorted(draw(st.lists(_NAMES, min_size=n, max_size=n, unique=True)))
    density = draw(st.floats(0.05, 0.7))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(names[0], names[1], rnd.randint(1, 3))]
    edges += [
        (names[u], names[v], rnd.randint(1, 3))
        for u in range(n) for v in range(u + 1, n)
        if (u, v) != (0, 1) and rnd.random() < density
    ]
    rename = dict(zip(names, renamed))
    graph = make_graph(edges, extra_nodes=names)
    renamed_graph = make_graph([(rename[u], rename[v], w) for u, v, w in edges], extra_nodes=renamed)
    return graph, renamed_graph, rename, draw(st.floats(0.5, 2.0))


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(louvain_cases())
def test_louvain_partition_properties(case):
    graph, renamed_graph, rename, resolution = case
    part = louvain(graph, resolution=resolution)
    assert sorted(set(part.assignment.values())) == list(range(part.cluster_count))
    assert part.modularity == modularity(graph, part.assignment)
    renamed_part = louvain(renamed_graph, resolution=resolution)
    assert renamed_part.assignment == {rename[name]: cid for name, cid in part.assignment.items()}
    assert renamed_part.modularity == part.modularity


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(louvain_cases())
def test_louvain_matches_stage_reference_descent(case):
    graph, _, _, resolution = case
    part = louvain(graph, resolution=resolution)
    assignment, quality = louvain_reference(graph, resolution)
    assert repr((part.assignment, part.modularity)) == repr((assignment, quality))


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(louvain_cases(), st.data())
def test_suggest_labels_matches_the_reference(case, data):
    graph = case[0]
    names = graph.node_names()
    # any partition: up to 4 clusters of up to 20 nodes, so more than 5 members and tied degrees occur
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)))
    dense = {label: cid for cid, label in enumerate(sorted(set(labels)))}
    part = Partition({name: dense[label] for name, label in zip(names, labels)}, 0.0, len(dense))
    got = [(label.cluster_id, label.suggested_label, label.top_tags) for label in suggest_labels(graph, part)]
    assert got == [(cid, top[0], top) for cid, top in enumerate(suggest_labels_reference(graph, part.assignment))]


def test_descent_runs_no_escape_round_twice_on_one_assignment(monkeypatch):
    # index order and degree order both reach the same label list twice here
    level = _Level([{}, {3: 2.0, 4: 1.0, 5: 1.0}, {3: 1.0}, {1: 2.0, 2: 1.0}, {1: 1.0}, {1: 1.0}], [0.0] * 6)
    calls = []

    def recording_escape_round(level, resolution, order, com):
        calls.append((tuple(order), tuple(com)))
        return _escape_round(level, resolution, order, com)

    monkeypatch.setattr(community, "_escape_round", recording_escape_round)
    for order_fn in (_lex_order, _degree_order):
        calls.clear()
        _descend(level, 1.0, order_fn)
        assert calls
        assert len(calls) == len(set(calls))


def test_louvain_matches_stage_reference_after_a_pass_that_only_relabels():
    # A descent that skipped the escape search whenever the multilevel pass
    # left the partition as it was, under new labels, gives another result
    # on this seeded graph: the labels steer the smallest-label tie-breaks.
    rng = random.Random(2701)
    n = rng.randint(4, 30)
    density = rng.uniform(0.05, 0.7)
    max_weight = rng.choice([1, 2, 3])
    edges = [(f"n{u:02d}", f"n{v:02d}", rng.randint(1, max_weight))
             for u in range(n) for v in range(u + 1, n) if (u, v) == (0, 1) or rng.random() < density]
    graph = make_graph(edges, extra_nodes=[f"n{i:02d}" for i in range(n)])
    part = louvain(graph, resolution=1.7)
    assert repr((part.assignment, part.modularity)) == repr(louvain_reference(graph, 1.7))


@pytest.mark.parametrize("resolution", [1.0, 1.7])
def test_partition_modularity_is_the_standard_measure(resolution):
    rng = random.Random(8)
    for _ in range(20):
        graph = random_connected_graph(rng, max_nodes=12)
        part = louvain(graph, resolution)
        assert repr(part.modularity) == repr(modularity(graph, part))


def _planted_graphs():
    """The tag graphs of two synthetic windows, 72 nodes each."""
    spec = plant_spec_from_records({
        "seed": 11, "docs_per_window": 300, "noise_rate": 0.02,
        "windows": [{"start": "2021-01-01", "end": "2021-02-01"}, {"start": "2021-02-01", "end": "2021-03-01"}],
        "communities": [{"name": f"c{i}", "size": 9, "rate": 0.5} for i in range(8)],
        "events": [{"kind": "merge", "pair": 0, "sources": ["c0", "c1"], "targets": ["m"], "mixing": 1.0, "rate": 0.5}],
    })
    corpus, _ = generate_corpus(spec)
    return [build_cooccurrence(window_filter(corpus, w), lexicon_from_records([]), field="tags") for w in spec.windows]


def _random_graph(seed, n):
    """A seeded graph of n nodes with loose groups, a few of them isolated."""
    rng = random.Random(seed)
    groups = n // 12
    names = [f"n{i:03d}" for i in range(n)]
    edges = [(names[u], names[v], rng.randint(1, 3)) for u in range(n) for v in range(u + 1, n)
             if rng.random() < (0.5 if u % groups == v % groups else 0.15)]
    return make_graph(edges, extra_nodes=names)


def test_louvain_matches_the_reference_on_large_graphs():
    cases = [(graph, 1.0) for graph in _planted_graphs()]
    cases += [(_random_graph(1, 64), 1.0), (_random_graph(2, 90), 1.0), (_random_graph(3, 72), 1.5)]
    for graph, resolution in cases:
        part = louvain(graph, resolution)
        assert repr((part.assignment, part.modularity)) == repr(louvain_reference(graph, resolution))

import datetime as dt
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux import synth
from techflux.cograph import build_cooccurrence
from techflux.community import louvain
from techflux.corpus import Document, normalize_tag, window_filter
from techflux.errors import SynthError
from techflux.lexicon import extract_terms, lexicon_from_records
from techflux.synth import (
    _GAMMA,
    _MASK64,
    _MIX1,
    _MIX2,
    EVENT_KINDS,
    FRESH_PREFIX,
    PlantedEvent,
    SplitMix64,
    _plant,
    export_ground_truth,
    generate_corpus,
    lane_limits,
    lexicon_records,
    load_plant_spec,
    plant_spec_from_records,
)
from techflux.transition import transition_report

from conftest import package_env
from forkchecks import FORK_WARNING, ForkFallbacks, force_fork, refuse_fork
from oracles import ORACLE_EXAMPLES, chance, generate_corpus_reference, plant_reference

EMPTY_LEX = lexicon_from_records([])


# ---------------------------------------------------------------- generator

# cross-checked against an independent implementation of the published
# algorithm; the seed-0 head is the widely circulated test vector
REFERENCE_STREAMS = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
    42: (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52),
    2**63: (0x481EC0A212A9F3DB, 0xC46FA638A6309012, 0x61A685FFC80A8140),
}


def test_splitmix_reference_streams():
    for seed, expected in REFERENCE_STREAMS.items():
        gen = SplitMix64(seed)
        assert tuple(gen.next_u64() for _ in range(3)) == expected


def test_splitmix_uniform_range():
    gen = SplitMix64(1)
    draws = [gen.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.05


def test_splitmix_below():
    gen = SplitMix64(7)
    draws = [gen.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    assert all(gen.below(1) == 0 for _ in range(10))
    with pytest.raises(SynthError, match="positive bound"):
        gen.below(0)


@pytest.mark.parametrize("n", [2**64, 2**64 + 1])
def test_splitmix_below_refuses_a_bound_past_64_bits(n):
    gen = SplitMix64(7)
    with pytest.raises(SynthError, match=rf"^below\(\) needs a bound of at most 2\*\*64 - 1, got {n}$"):
        gen.below(n)
    assert gen.below(_MASK64) == SplitMix64(7).next_u64()


def test_splitmix_chance_extremes():
    gen = SplitMix64(3)
    assert not any(chance(gen, 0.0) for _ in range(50))
    assert all(chance(gen, 1.0) for _ in range(50))


@st.composite
def splitmix_states(draw):
    """Any 64-bit state, or one that lands near 0 after at most 2**10 steps."""
    if draw(st.booleans()):
        return draw(st.integers(0, _MASK64))
    steps = draw(st.integers(0, 2**10))
    offset = draw(st.integers(-(2**10), 2**10))
    return (offset - steps * _GAMMA) & _MASK64


_COUNTS = st.one_of(st.sampled_from([0, 1]), st.integers(0, 2000))


_RATES_OR_EDGES = st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(deadline=None)
@given(splitmix_states(), _COUNTS, _COUNTS, _RATES_OR_EDGES)
def test_uniforms_equal_scalar_draws(state, first, second, p):
    block, scalar = SplitMix64(state), SplitMix64(state)
    head = block.flags_below(lane_limits([(p, first)]), first)
    tail = block.flags_below(lane_limits([(p, second)]), second)
    assert len(head) == first
    assert list(head + tail) == [scalar.uniform() < p for _ in range(first + second)]
    assert block._state == scalar._state


def _unshift(y, s):
    """The x with x ^ (x >> s) == y."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def state_before(output, steps=0):
    """The state whose next_u64() returns output after steps earlier draws: the mix run backwards."""
    z = _unshift(output, 31)
    z = _unshift(z * pow(_MIX2, -1, 2**64) & _MASK64, 27)
    z = _unshift(z * pow(_MIX1, -1, 2**64) & _MASK64, 30)
    return (z - (steps + 1) * _GAMMA) & _MASK64


@pytest.mark.parametrize("output", [0, 2047, 2048, 4095, 2**63, _MASK64 - 2047, _MASK64])
@pytest.mark.parametrize("p", [1.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53])
def test_flags_below_at_the_extreme_draws(output, p):
    # draw 5 of 9 is output; 0 and 2047 give uniform() 0.0, kept even at the smallest positive rate
    state = state_before(output, steps=5)
    scalar = SplitMix64(state)
    expected = [scalar.uniform() < p for _ in range(9)]
    assert SplitMix64(state_before(output)).next_u64() == output
    assert list(SplitMix64(state).flags_below(lane_limits([(p, 9)]), 9)) == expected
    assert expected[5] == ((output >> 11) * 2.0**-53 < p)


@settings(deadline=None)
@given(splitmix_states(), st.integers(0, 40))
def test_flags_below_is_strict_at_a_draws_own_value(state, k):
    scalar = SplitMix64(state)
    value = [scalar.uniform() for _ in range(k + 1)][k]
    for p, kept in ((value, 0), (math.nextafter(value, 2.0), 1), (math.nextafter(value, 0.0), 0)):
        assert SplitMix64(state).flags_below(lane_limits([(p, k + 1)]), k + 1)[k] == kept


# bounds above 2**63 make below() reject about half its draws
_BOUNDS = st.one_of(st.integers(1, 50), st.integers(2**63, _MASK64))


@settings(deadline=None)
@given(splitmix_states(), st.integers(0, 60), st.integers(0, 60), _RATES_OR_EDGES, _RATES_OR_EDGES, _BOUNDS, _BOUNDS)
def test_flags_below_mixes_member_and_noise_rates(state, members, others, rate, noise, pick, days):
    # two documents as generate_corpus draws them: the second block reuses the
    # first one's lanes, unless a below() call rejected a draw
    count = members + others
    block, scalar = SplitMix64(state), SplitMix64(state)
    limits = lane_limits([(rate, members), (noise, others)])
    for _ in range(2):
        assert block.below(pick) == scalar.below(pick)
        flags = block.flags_below(limits, count)
        assert list(flags) == [scalar.uniform() < (rate if i < members else noise) for i in range(count)]
        assert block.below(days) == scalar.below(days)
    assert block._state == scalar._state


@settings(deadline=None)
@given(splitmix_states(), st.integers(0, 600), _RATES_OR_EDGES, _BOUNDS, _BOUNDS)
def test_skip_moves_past_a_flag_block_between_below_calls(state, count, rate, pick, days):
    # a document that generate_corpus skips: bounds above 2**63 make below()
    # reject draws on either side of the skipped block
    skipping, drawing = SplitMix64(state), SplitMix64(state)
    limits = lane_limits([(rate, count)])
    for _ in range(2):
        assert skipping.below(pick) == drawing.below(pick)
        skipping.skip(count)
        drawing.flags_below(limits, count)
        assert skipping.below(days) == drawing.below(days)
        assert skipping._state == drawing._state
    # a block after skipped ones draws what it would after drawn ones
    assert skipping.flags_below(limits, count) == drawing.flags_below(limits, count)
    assert skipping._state == drawing._state


# ---------------------------------------------------------------- spec parsing


def base_records():
    return {
        "seed": 11,
        "docs_per_window": 40,
        "noise_rate": 0.0,
        "windows": [
            {"start": "2020-01-01", "end": "2020-02-01"},
            {"start": "2020-02-01", "end": "2020-03-01"},
        ],
        "communities": [
            {"name": "alpha", "size": 4, "rate": 1.0},
            {"name": "beta", "size": 4, "rate": 1.0},
            {"name": "gamma", "size": 5, "rate": 1.0},
            {"name": "delta", "size": 10, "rate": 1.0},
            {"name": "epsilon", "size": 3, "rate": 1.0},
            {"name": "zeta", "size": 3, "rate": 1.0},
        ],
        "events": [
            {"kind": "merge", "pair": 0, "sources": ["alpha", "beta"], "targets": ["fused"], "mixing": 1.0},
            {"kind": "split", "pair": 0, "sources": ["gamma"], "targets": ["g-one", "g-two"], "mixing": 1.0},
            {"kind": "death", "pair": 0, "sources": ["zeta"]},
            {"kind": "birth", "pair": 0, "targets": ["nova"], "size": 6, "rate": 1.0},
            {"kind": "persist", "pair": 0, "sources": ["delta"], "mixing": 0.4},
        ],
    }


def test_spec_parses_and_autonames_members():
    spec = plant_spec_from_records(base_records())
    alpha = spec.communities[0]
    assert alpha.members == ("alpha-000", "alpha-001", "alpha-002", "alpha-003")
    assert spec.events[4].targets == ("delta",)
    assert spec.events[3].rate == 1.0


def test_spec_validation_errors():
    def reject(mutate, message):
        records = base_records()
        mutate(records)
        with pytest.raises(SynthError, match=message):
            plant_spec_from_records(records)

    reject(lambda r: r.update(seed="abc"), "seed must be an integer")
    reject(lambda r: r.update(docs_per_window=0), "docs_per_window")
    reject(lambda r: r.update(noise_rate=1.0), r"noise_rate must lie in \[0, 1\)")
    reject(lambda r: r.update(windows=[]), "windows must be a nonempty list")
    reject(lambda r: r["windows"].insert(0, dict(r["windows"][0])), "strictly increasing")
    reject(lambda r: r["windows"][1].update(start=20200201), "^plant spec: window 1: 'start' must be a string, got 20200201$")
    reject(lambda r: r["windows"][1].update(end=None), "^plant spec: window 1: 'end' must be a string, got None$")
    reject(lambda r: r["windows"][1].update(label=None), "^plant spec: window 1: 'label' must be a string, got None$")
    reject(lambda r: r["communities"].append({"name": "alpha", "size": 2, "rate": 1.0}),
           "duplicate community names")
    reject(lambda r: r["communities"].append(
        {"name": "copycat", "members": ["alpha-000"], "rate": 1.0}), "communities overlap")
    reject(lambda r: r["communities"].append(
        {"name": "x", "members": ["a", "b"], "size": 3, "rate": 1.0}), "size 3 != 2 members")
    reject(lambda r: r["communities"].append({"name": "x", "size": 2, "rate": 1.5}),
           r"rate in \(0, 1\]")
    reject(lambda r: r["communities"].append(
        {"name": "x", "members": ["fresh-00000"], "rate": 1.0}), "reserved prefix")
    reject(lambda r: r["communities"].append(
        {"name": "x", "members": ["Shouty Tag "], "rate": 1.0}), "not in normalized form")
    reject(lambda r: r["events"].append({"kind": "teleport", "pair": 0}), "event kind")
    reject(lambda r: r["events"].append(
        {"kind": "merge", "pair": 0, "sources": ["delta"], "targets": ["y"]}), ">= 2 sources")
    reject(lambda r: r["events"].append(
        {"kind": "merge", "pair": 0, "sources": ["delta", "epsilon"], "targets": ["y"],
         "mixing": 0.0}), "merge mixing must be positive")
    reject(lambda r: r["events"].append(
        {"kind": "split", "pair": 0, "sources": ["delta"], "targets": ["y"]}), ">= 2 targets")
    reject(lambda r: r["events"].append(
        {"kind": "birth", "pair": 0, "targets": ["y"]}), "birth needs a size")
    reject(lambda r: r["events"].append(
        {"kind": "death", "pair": 0, "sources": ["a", "b"]}), "exactly one source")
    reject(lambda r: r["events"].append(
        {"kind": "birth", "pair": 5, "targets": ["y"], "size": 3}), "pair index 5 out of range")


def test_spec_consumption_errors():
    records = base_records()
    records["events"].append({"kind": "death", "pair": 0, "sources": ["alpha"]})
    with pytest.raises(SynthError, match="already consumed"):
        generate_corpus(plant_spec_from_records(records))
    records = base_records()
    records["events"][2]["sources"] = ["ghost"]
    with pytest.raises(SynthError, match="unknown source community 'ghost'"):
        generate_corpus(plant_spec_from_records(records))


def test_spec_windows_truncate_datetimes_to_the_day():
    records = base_records()
    records["windows"][0] = {"start": "2020-01-01T00:00:00", "end": "2020-02-01T08:00:00", "label": "jan"}
    spec = plant_spec_from_records(records)
    assert (spec.windows[0].start, spec.windows[0].end, spec.windows[0].label) == (
        dt.date(2020, 1, 1), dt.date(2020, 2, 1), "jan",
    )


def test_load_plant_spec_file(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(base_records()), encoding="utf-8")
    spec = load_plant_spec(path)
    assert spec.seed == 11
    assert len(spec.windows) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(SynthError, match="invalid JSON"):
        load_plant_spec(bad)
    with pytest.raises(SynthError, match="cannot read plant spec"):
        load_plant_spec(tmp_path / "absent.json")


# ---------------------------------------------------------------- evolution


def test_evolution_and_ground_truth():
    spec = plant_spec_from_records(base_records())
    _, truth = generate_corpus(spec)

    first = truth.assignments[0]
    assert first["alpha-000"] == "alpha"
    assert first["zeta-002"] == "zeta"
    assert len(first) == 4 + 4 + 5 + 10 + 3 + 3

    second = truth.assignments[1]
    # merge with full mixing keeps every source member
    for term in ("alpha-000", "alpha-003", "beta-000", "beta-003"):
        assert second[term] == "fused"
    # split with full mixing partitions the sorted members 3 + 2
    assert [second[f"gamma-{i:03d}"] for i in range(5)] == \
        ["g-one", "g-one", "g-one", "g-two", "g-two"]
    # death removes the community outright
    assert not any(name.startswith("zeta-") for name in second)
    # birth mints fresh vocabulary
    nova = sorted(t for t, c in second.items() if c == "nova")
    assert len(nova) == 6
    assert all(t.startswith(FRESH_PREFIX) for t in nova)
    # renewal keeps the first 4 of 10 members and refreshes the rest
    delta = sorted(t for t, c in second.items() if c == "delta")
    assert len(delta) == 10
    assert sum(1 for t in delta if t.startswith("delta-")) == 4
    # untouched community persists implicitly
    assert second["epsilon-000"] == "epsilon"

    ci = truth.convergence[0]
    assert ci == {"fused": 1.0, "g-one": 1.0, "g-two": 1.0,
                  "nova": 0.0, "delta": 0.4, "epsilon": 1.0}
    assert truth.novelty[0]["delta"] == 0.6

    kinds = {(e.kind, e.sources, e.targets) for e in truth.pair_events[0]}
    assert ("merge", ("alpha", "beta"), ("fused",)) in kinds
    assert ("split", ("gamma",), ("g-one", "g-two")) in kinds
    assert ("death", ("zeta",), ()) in kinds
    assert ("birth", (), ("nova",)) in kinds
    assert ("persist", ("delta",), ("delta",)) in kinds
    assert PlantedEvent("persist", ("epsilon",), ("epsilon",)) in truth.pair_events[0]


def test_split_too_small_rejected():
    records = base_records()
    records["events"] = [
        {"kind": "split", "pair": 0, "sources": ["epsilon"],
         "targets": ["e1", "e2", "e3", "e4"], "mixing": 1.0},
    ]
    with pytest.raises(SynthError, match="too few for 4 parts"):
        generate_corpus(plant_spec_from_records(records))


# ---------------------------------------------------------------- sampling


def test_documents_fall_inside_their_windows():
    spec = plant_spec_from_records(base_records())
    corpus, _ = generate_corpus(spec)
    assert len(corpus.documents) == 2 * spec.docs_per_window
    for doc in corpus.documents:
        w_index = int(doc.id[1:].split("-")[0])
        assert spec.windows[w_index].contains(doc.date)


def test_generation_is_deterministic():
    spec = plant_spec_from_records(base_records())
    corpus_a, truth_a = generate_corpus(spec)
    corpus_b, truth_b = generate_corpus(spec)
    assert corpus_a.documents == corpus_b.documents
    assert truth_a == truth_b


def test_seed_changes_documents():
    records = base_records()
    spec_a = plant_spec_from_records(records)
    records["seed"] = 12
    spec_b = plant_spec_from_records(records)
    assert generate_corpus(spec_a)[0].documents != generate_corpus(spec_b)[0].documents


def test_noise_mixes_vocabulary_across_communities():
    records = base_records()
    records["noise_rate"] = 0.5
    corpus, truth = generate_corpus(plant_spec_from_records(records))
    assignment = truth.assignments[0]
    crossings = 0
    for doc in corpus.documents:
        if not doc.id.startswith("w0-"):
            continue
        owners = {assignment[tag] for tag in doc.tags}
        if len(owners) > 1:
            crossings += 1
    assert crossings > 0


def test_with_text_embeds_the_same_terms():
    spec = plant_spec_from_records(base_records())
    tagged, truth = generate_corpus(spec, with_text=False)
    texted, _ = generate_corpus(spec, with_text=True)
    lexicon = lexicon_from_records(lexicon_records(truth))
    assert lexicon.canonical_terms == truth.terms()
    for tag_doc, text_doc in zip(tagged.documents, texted.documents):
        assert text_doc.tags == ()
        assert text_doc.text.startswith("This note covers ")
        assert extract_terms(text_doc, lexicon) == set(tag_doc.tags)


def test_ground_truth_export(tmp_path):
    spec = plant_spec_from_records(base_records())
    _, truth = generate_corpus(spec)
    path = tmp_path / "truth.json"
    export_ground_truth(truth, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["assignments"][0]["alpha-000"] == "alpha"
    assert payload["pairs"][0]["convergence"]["delta"] == 0.4
    kinds = {e["kind"] for e in payload["pairs"][0]["events"]}
    assert kinds == {"merge", "split", "death", "birth", "persist"}


_RATES = st.one_of(st.just(1.0), st.floats(0.01, 1.0))


@st.composite
def small_plant_specs(draw):
    """1-4 windows, 1-5 communities, renewed vocabularies and births, noise on or off."""
    n_windows = draw(st.integers(1, 4))
    n_communities = draw(st.integers(1, 5))
    communities = [
        {"name": f"c{i}", "size": draw(st.integers(1, 6)), "rate": draw(_RATES)}
        for i in range(n_communities)
    ]
    events = []
    for pair in range(n_windows - 1):
        events.append({
            "kind": "persist", "pair": pair,
            "sources": [f"c{draw(st.integers(0, n_communities - 1))}"],
            "mixing": draw(st.floats(0.0, 1.0)),
        })
        if draw(st.booleans()):
            events.append({
                "kind": "birth", "pair": pair, "targets": [f"born{pair}"],
                "size": draw(st.integers(1, 4)), "rate": draw(_RATES),
            })
    start = dt.date(2020, 1, 1)
    windows = []
    for _ in range(n_windows):
        end = start + dt.timedelta(days=draw(st.integers(1, 60)))
        windows.append({"start": start.isoformat(), "end": end.isoformat()})
        start = end
    return plant_spec_from_records({
        "seed": draw(st.integers(-(2**63), 2**64)),
        "docs_per_window": draw(st.integers(1, 20)),
        "noise_rate": draw(st.one_of(st.just(0.0), st.floats(0.001, 0.99))),
        "windows": windows,
        "communities": communities,
        "events": events,
    })


@settings(deadline=None)
@given(small_plant_specs(), st.booleans())
def test_generate_corpus_matches_scalar_oracle(spec, with_text):
    corpus, truth = generate_corpus(spec, with_text=with_text)
    expected_corpus, expected_truth = generate_corpus_reference(spec, with_text=with_text)
    assert corpus == expected_corpus
    assert truth.assignments == expected_truth.assignments
    assert truth == expected_truth


# any text, tag-like words that may start or end with punctuation, and known names of both kinds
_ANY_TERM = st.one_of(
    st.text(min_size=1, max_size=8),
    st.from_regex(r"[a-z0-9 .+#_-]{1,6}", fullmatch=True),
    st.sampled_from(["c++", "c#", ".net", "node.js", "ai", "big data", "ı", "straße"]),
)


@st.composite
def any_term_plant_records(draw):
    """Plant-spec records whose member terms and community names are any text, normalized or not."""
    communities = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.one_of(st.text(min_size=1, max_size=6), st.from_regex(r"[a-z+.]{1,3}", fullmatch=True)))
        if draw(st.booleans()):
            terms = st.one_of(_ANY_TERM, _ANY_TERM.map(normalize_tag))
            communities.append({"name": name, "members": draw(st.lists(terms, min_size=1, max_size=3)), "rate": 1.0})
        else:
            communities.append({"name": name, "size": draw(st.integers(1, 3)), "rate": 1.0})
    return {
        "seed": 0,
        "docs_per_window": 1,
        "windows": [{"start": "2020-01-01", "end": "2020-02-01"}, {"start": "2020-02-01", "end": "2020-03-01"}],
        "communities": communities,
        # renews half of the first community's terms with fresh names
        "events": [{"kind": "persist", "sources": [communities[0]["name"]], "mixing": 0.5}],
    }


@settings(deadline=None)
@given(any_term_plant_records())
def test_every_accepted_plant_spec_gives_a_lexicon_that_passes_its_self_test(records):
    try:
        spec = plant_spec_from_records(records)
    except SynthError:
        return
    _, truth = _plant(spec)
    lexicon_from_records(lexicon_records(truth))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings(FORK_WARNING)
@settings(deadline=None)
@given(small_plant_specs(), st.booleans())
def test_generate_corpus_matches_scalar_oracle_with_a_forced_fork(spec, with_text):
    # every spec forks, down to one document: then the child draws it alone
    with pytest.MonkeyPatch.context() as patch:
        forks = force_fork(patch)
        corpus, truth = generate_corpus(spec, with_text=with_text)
    assert forks == [os.getpid()]
    expected_corpus, expected_truth = generate_corpus_reference(spec, with_text=with_text)
    assert corpus == expected_corpus
    assert truth == expected_truth


def _fork_spec_records(docs_per_window, windows):
    """40 communities of 12 terms with a merge and a split, as the benchmark's series spec plants them."""
    start = dt.date(2021, 1, 1)
    return {
        "seed": 3, "docs_per_window": docs_per_window, "noise_rate": 0.01,
        "windows": [{"start": (start + dt.timedelta(days=30 * i)).isoformat(),
                     "end": (start + dt.timedelta(days=30 * i + 30)).isoformat()} for i in range(windows)],
        "communities": [{"name": f"c{i:02d}", "size": 12, "rate": 0.5} for i in range(40)],
        "events": [
            {"kind": "merge", "pair": 0, "sources": ["c00", "c01"], "targets": ["m0"], "mixing": 0.5},
            {"kind": "split", "pair": windows - 2, "sources": ["c02"], "targets": ["s0", "s1"]},
        ],
    }


class TestForkFallbacks(ForkFallbacks):
    """generate_corpus: the second half of the documents drawn in a forked child."""

    spec = plant_spec_from_records(_fork_spec_records(docs_per_window=40, windows=2))

    def run(self):
        return repr(generate_corpus(self.spec)[0])

    def in_process(self):
        with pytest.MonkeyPatch.context() as patch:
            refuse_fork(patch)
            return self.run()

    def hang_child_and_interrupt_parent(self, monkeypatch):
        def interrupted_draws(spec, states, first, stop):
            if first:
                time.sleep(60)  # the child: only a kill ends it in time
            raise KeyboardInterrupt

        monkeypatch.setattr(synth, "_draws", interrupted_draws)


# Runs `techflux synth` in a fresh interpreter, where numpy is not loaded,
# optionally with a second thread alive, and prints the number of forks made.
_SYNTH_PROBE = """
import json, os, sys, threading
from techflux.cli import main

forks = 0
real_fork = os.fork

def counting_fork():
    global forks
    forks += 1
    return real_fork()

os.fork = counting_fork
release = threading.Event()
if sys.argv[1] == "thread":
    threading.Thread(target=release.wait).start()
code = main(["synth", "--plant-spec", sys.argv[2], "--out", sys.argv[3], *sys.argv[4:]])
release.set()
print(json.dumps({"forks": forks, "code": code}))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("text", [False, True], ids=["tags", "text"])
def test_full_size_synth_forks_once_and_writes_the_in_process_bytes(tmp_path, text):
    spec = tmp_path / "plant.json"
    spec.write_text(json.dumps(_fork_spec_records(docs_per_window=600, windows=8)), encoding="utf-8")
    files = {}
    for mode in ("plain", "thread"):
        out = tmp_path / mode
        result = subprocess.run([sys.executable, "-c", _SYNTH_PROBE, mode, str(spec), str(out)]
                                + (["--with-text"] if text else []),
                                env=package_env(), capture_output=True, encoding="utf-8", timeout=300)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        # a second thread makes a fork unsafe, so generation stays in one process
        assert report == {"forks": 1 if mode == "plain" else 0, "code": 0}
        files[mode] = {name: (out / name).read_bytes() for name in ("corpus.jsonl", "ground_truth.json", "lexicon.json")}
    assert files["plain"] == files["thread"]
    assert files["plain"]["corpus.jsonl"].count(b"\n") == 4800


@st.composite
def evolving_plant_specs(draw):
    """2-4 windows and up to 3 events per pair of any kind.

    Sources are mostly live, unconsumed communities and targets mostly new
    names. About one name in ten comes from a shared pool instead, so some
    specs name a community that is not alive, consume a source twice or
    produce a name twice; splits also meet sources with too few members.
    Those must fail in both implementations with the same error. One
    event's sources stay distinct, since the spec parser rejects a repeat.
    """
    n_windows = draw(st.integers(2, 4))
    n_communities = draw(st.integers(1, 4))
    pool = [f"c{i}" for i in range(n_communities + 2)]
    new_names = (f"n{i}" for i in itertools.count())
    alive = pool[:n_communities]
    events = []
    for pair in range(n_windows - 1):
        free, produced = list(alive), []

        def source(chosen):
            options = [name for name in free if name not in chosen]
            if options and draw(st.integers(0, 9)):
                name = draw(st.sampled_from(options))
                free.remove(name)
                return name
            return draw(st.sampled_from([name for name in pool if name not in chosen]))

        def target():
            name = next(new_names) if draw(st.integers(0, 9)) else draw(st.sampled_from(pool))
            produced.append(name)
            return name

        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(EVENT_KINDS))
            event = {"kind": kind, "pair": pair}
            if kind in ("merge", "split"):
                event["mixing"] = draw(st.floats(0.0, 1.0, exclude_min=True))
            elif kind == "persist":
                event["mixing"] = draw(st.floats(0.0, 1.0))
            if kind != "birth":
                sources = event["sources"] = []
                for _ in range(draw(st.integers(2, 3)) if kind == "merge" else 1):
                    sources.append(source(sources))
            if kind == "split":
                event["targets"] = [target() for _ in range(draw(st.integers(2, 4)))]
            elif kind in ("birth", "merge") or (kind == "persist" and draw(st.booleans())):
                event["targets"] = [target()]
            elif kind == "persist":
                produced.append(event["sources"][0])
            if kind == "birth":
                event["size"] = draw(st.integers(1, 4))
            if kind != "death" and draw(st.booleans()):
                event["rate"] = draw(_RATES)
            events.append(event)
        alive = free + produced
    return plant_spec_from_records({
        "seed": 0,
        "docs_per_window": 1,
        "windows": [{"start": f"2020-{m:02d}-01", "end": f"2020-{m + 1:02d}-01"} for m in range(1, n_windows + 1)],
        "communities": [
            {"name": pool[i], "size": draw(st.integers(1, 6)), "rate": draw(st.floats(0.01, 1.0))}
            for i in range(n_communities)
        ],
        "events": events,
    })


def _planted_or_error(plant, spec):
    try:
        return plant(spec)
    except SynthError as exc:
        return type(exc), str(exc)


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(evolving_plant_specs())
def test_plant_matches_two_pass_reference(spec):
    got = _planted_or_error(_plant, spec)
    expected = _planted_or_error(plant_reference, spec)
    if isinstance(expected[0], type):
        assert got == expected
        return
    (states, truth), (expected_states, expected_truth) = got, expected
    assert states == expected_states
    assert truth.assignments == expected_truth.assignments
    assert truth.pair_events == expected_truth.pair_events
    assert truth.convergence == expected_truth.convergence
    assert truth.novelty == expected_truth.novelty
    assert truth == expected_truth


# ---------------------------------------------------------------- recovery


def test_noiseless_corpus_recovers_planted_structure():
    records = {
        "seed": 5,
        "docs_per_window": 80,
        "noise_rate": 0.0,
        "windows": [
            {"start": "2021-01-01", "end": "2021-02-01"},
            {"start": "2021-02-01", "end": "2021-03-01"},
        ],
        "communities": [
            {"name": "red", "size": 5, "rate": 1.0},
            {"name": "blue", "size": 5, "rate": 1.0},
            {"name": "green", "size": 4, "rate": 1.0},
        ],
        "events": [
            {"kind": "merge", "pair": 0, "sources": ["red", "blue"],
             "targets": ["purple"], "mixing": 1.0, "rate": 1.0},
            {"kind": "birth", "pair": 0, "targets": ["mint"], "size": 4, "rate": 1.0},
        ],
    }
    spec = plant_spec_from_records(records)
    corpus, truth = generate_corpus(spec)

    partitions = []
    for w_index, window in enumerate(spec.windows):
        graph = build_cooccurrence(window_filter(corpus, window), EMPTY_LEX, field="tags")
        partition = louvain(graph)
        planted = {}
        for term, community in truth.assignments[w_index].items():
            planted.setdefault(community, set()).add(term)
        found = {frozenset(block) for block in partition.clusters()}
        assert found == {frozenset(members) for members in planted.values()}
        partitions.append(partition)

    report = transition_report(partitions[0], partitions[1], tau=0.1)
    members_t1 = {cid: set(block) for cid, block in enumerate(partitions[1].clusters())}
    planted_t1 = {}
    for term, community in truth.assignments[1].items():
        planted_t1.setdefault(community, set()).add(term)
    name_of = {cid: next(n for n, m in planted_t1.items() if m == members)
               for cid, members in members_t1.items()}

    kinds = sorted(e.kind for e in report.events)
    assert kinds == ["birth", "merge", "persist"]
    for event in report.events:
        if event.kind == "merge":
            assert name_of[event.targets[0]] == "purple"
            assert event.supports == (0.5, 0.5)
        elif event.kind == "birth":
            assert name_of[event.targets[0]] == "mint"
    measured_ci = {name_of[cid]: value for cid, value in report.convergence.items()}
    assert measured_ci == truth.convergence[0]

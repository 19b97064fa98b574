import datetime as dt
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import extract_terms_reference

from techflux import synth
from techflux.corpus import Document
from techflux.errors import LexiconError
from techflux.lexicon import (
    TermLexicon,
    TermPattern,
    _literal_prefix,
    compile_lexicon,
    compile_pattern,
    extract_terms,
    lexicon_from_records,
)

DATE = dt.date(2020, 1, 1)


def doc(text):
    return Document(id="d", date=DATE, text=text)


def lex(*records):
    return lexicon_from_records(list(records))


def test_basic_extraction():
    lexicon = lex({"canonical": "machine learning", "patterns": ["machine[- ]?learning"]})
    assert extract_terms(doc("Intro to Machine Learning today"), lexicon) == {"machine learning"}


def test_set_semantics_dedups_repeats():
    lexicon = lex({"canonical": "machine learning", "patterns": ["machine learning"]})
    assert extract_terms(doc("machine learning and Machine Learning"), lexicon) == {"machine learning"}


def test_inflection_pattern():
    lexicon = lex({"canonical": "internet of things", "patterns": ["internets? of things?"]})
    assert extract_terms(doc("the internets of thing debate"), lexicon) == {"internet of things"}


def test_documented_plural_pattern():
    lexicon = lex({"canonical": "3d printing", "patterns": ["3[- ]?d print(ing|er)s?"]})
    assert extract_terms(doc("new 3D printers arrived"), lexicon) == {"3d printing"}
    assert extract_terms(doc("3-d printing is fun"), lexicon) == {"3d printing"}


def test_word_boundaries_prevent_substring_hits():
    lexicon = lex({"canonical": "ai", "patterns": ["ai"]})
    assert extract_terms(doc("we maintain the servers"), lexicon) == set()
    assert extract_terms(doc("AI wins"), lexicon) == {"ai"}


def test_case_insensitive_and_casefolded():
    lexicon = lex({"canonical": "iot", "patterns": ["iot"]})
    assert extract_terms(doc("IoT"), lexicon) == {"iot"}
    assert extract_terms(doc("IOT"), lexicon) == {"iot"}


def test_empty_text_gives_empty_set():
    lexicon = lex({"canonical": "ai", "patterns": ["ai"]})
    assert extract_terms(doc(""), lexicon) == set()


def test_empty_lexicon_is_valid():
    lexicon = lexicon_from_records([])
    assert len(lexicon) == 0
    assert extract_terms(doc("anything ai here"), lexicon) == set()


def test_output_subset_of_canonicals():
    lexicon = lex(
        {"canonical": "ai", "patterns": ["ai"]},
        {"canonical": "blockchain", "patterns": ["block[- ]?chains?"]},
    )
    found = extract_terms(doc("ai and block-chains and more"), lexicon)
    assert found <= lexicon.canonical_terms
    assert found == {"ai", "blockchain"}


def test_monotone_under_added_entry():
    base = [{"canonical": "ai", "patterns": ["ai"]}]
    text = doc("ai and robots doing robotics")
    before = extract_terms(text, lexicon_from_records(base))
    extended = lexicon_from_records(base + [{"canonical": "robotics", "patterns": ["robot(ics)?s?"]}])
    after = extract_terms(text, extended)
    assert before <= after


def test_noncompiling_pattern_names_entry_and_pattern():
    with pytest.raises(LexiconError, match=r"'ai'.*'\(\['"):
        lex({"canonical": "ai", "patterns": ["(["]})


def test_self_test_rejects_pattern_missing_canonical():
    with pytest.raises(LexiconError, match="self-test"):
        lex({"canonical": "artificial intelligence", "patterns": ["deep nets"]})


@pytest.mark.parametrize("pattern", ["", "x?", "drones?|", r"\w*"])
def test_pattern_matching_the_empty_string_rejected(pattern):
    # self-tested alone, each would pass and then fire in every document with a word
    message = f"entry 'drone': pattern {pattern!r} matches the empty string"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        lex({"canonical": "ai", "patterns": ["ai"]}, {"canonical": "drone", "patterns": ["drones?", pattern]})


def test_duplicate_canonical_rejected():
    with pytest.raises(LexiconError, match="duplicate"):
        lex({"canonical": "ai", "patterns": ["ai"]}, {"canonical": "AI", "patterns": ["ai"]})


def test_entry_needs_pattern_list():
    with pytest.raises(LexiconError, match="at least one pattern"):
        lex({"canonical": "ai", "patterns": []})
    with pytest.raises(LexiconError, match="'patterns'"):
        lex({"canonical": "ai"})


@pytest.mark.parametrize("canonical", [None, 5, ["ai"]])
def test_canonical_must_be_a_string(canonical):
    message = f"lexicon: entry 1: 'canonical' must be a string, got {canonical!r}"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        lex({"canonical": "ai", "patterns": ["ai"]}, {"canonical": canonical, "patterns": ["none", "5"]})


def test_canonical_normalized_to_lowercase():
    lexicon = lex({"canonical": "Machine  Learning", "patterns": ["machine learning"]})
    assert lexicon.canonical_terms == {"machine learning"}


def test_compile_lexicon_from_file(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps([{"canonical": "5g", "patterns": ["5[- ]?g"]}]))
    lexicon = compile_lexicon(path)
    assert extract_terms(doc("the 5G rollout"), lexicon) == {"5g"}


def test_compile_lexicon_missing_file():
    with pytest.raises(LexiconError, match="not found"):
        compile_lexicon("/nonexistent/lex.json")


def test_compile_lexicon_bad_json(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text("{not json")
    with pytest.raises(LexiconError, match="invalid JSON"):
        compile_lexicon(path)


def test_unicode_casefold_matching():
    # canonical is casefolded at compile time, same as tag normalization,
    # so text hits and tag spellings land on the same node name
    lexicon = lex({"canonical": "straße", "patterns": ["strasse"]})
    assert lexicon.canonical_terms == {"strasse"}
    assert extract_terms(doc("die STRASSE dort"), lexicon) == {"strasse"}


@pytest.mark.parametrize("pattern, literal", [
    ("machine[- ]?learning", "machine"),
    ("internets? of things?", "internet"),
    ("3[- ]?d print(ing|er)s?", "3"),
    (r"c00\-000", "c00-000"),
    (r"c\+\+", "c++"),
    (r"node\.js", "node.js"),
    ("Ab+c", "ab"),
    ("ab{1,2}", "a"),
    ("ab*c", "a"),
    ("a(b|c)d", "a"),
    ("_x", "_x"),
    (r"\bai\b", ""),
    ("(?:x|y)", ""),
    ("ab|cd", ""),
    ("a[|]b|c", ""),
    (r"\-a", ""),
    ("a?b", ""),
    ("été", ""),
])
def test_literal_prefix(pattern, literal):
    assert _literal_prefix(compile_pattern(pattern)) == literal


def test_non_ascii_letter_stands_for_ascii_one():
    lexicon = lex({"canonical": "iot", "patterns": ["iot"]})
    text = doc("ıot")  # dotless i matches i case-insensitively
    assert extract_terms(text, lexicon) == extract_terms_reference(text, lexicon) == {"iot"}


def test_only_dotless_i_folds_onto_ascii():
    # every character a case-folded text can hold, against every ASCII one
    folded = "".join(map(chr, [*range(0xD800), *range(0xE000, 0x110000)])).casefold()
    twins = {c for c in re.findall(r"[\x00-\x7f]", folded, re.IGNORECASE) if not c.isascii()}
    assert twins == {"\u0131"}


def test_synth_lexicon_is_fully_indexed():
    spec = synth.plant_spec_from_records({
        "seed": 1,
        "docs_per_window": 10,
        "windows": [
            {"start": "2021-01-01", "end": "2021-02-01"},
            {"start": "2021-02-01", "end": "2021-03-01"},
        ],
        "communities": [{"name": "red", "size": 4, "rate": 1.0}, {"name": "blue", "size": 3, "rate": 1.0}],
        "events": [{"kind": "birth", "pair": 0, "targets": ["mint"], "size": 3}],
    })
    _, truth = synth.generate_corpus(spec)
    lexicon = lexicon_from_records(synth.lexicon_records(truth))
    assert lexicon._always == ()
    indexed = {i for hits in lexicon._index.values() for _, i in hits}
    assert indexed == set(range(len(lexicon)))


_TEXT_CHARS = list("aiskAISK01_ -.—’ıſKİßé")
_SEPARATORS = ["", " ", "-", ".", "—", "’"]


@st.composite
def lexicons_with_texts(draw):
    # texts are made of pattern matches, vocabulary words and odd characters,
    # so that hits and near misses are common; the lexicon is built from
    # TermPattern directly, because random patterns need not match a canonical form
    vocab = draw(st.lists(st.text("aisk01_", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    word = st.sampled_from(vocab)
    piece = st.one_of(
        word,
        st.just(r"\-"),
        st.just(" "),
        st.just("s?"),
        st.just("[- ]?"),
        word.map(lambda w: w + "+"),
        st.tuples(word, st.sampled_from(["{1,2}", "{0,2}"])).map("".join),
        st.tuples(st.sampled_from(["(?:", "("]), word, word).map(lambda g: f"{g[0]}{g[1]}|{g[2]})"),
    )
    # most patterns start with a word, so that most entries are indexed
    lead = st.one_of(word, word.map(lambda w: w + "+"), word, piece)
    branch = st.builds(lambda first, rest: first + "".join(rest), lead, st.lists(piece, max_size=3))
    # a leading \b or a top-level | in about one pattern in eight each
    pattern = st.builds(
        lambda k, first, second: (r"\b" if k == 7 else "") + first + (f"|{second}" if k == 6 else ""),
        st.integers(0, 7), branch, branch,
    )
    entries = []
    for i in range(draw(st.integers(1, 6))):
        patterns = tuple(draw(st.lists(pattern, min_size=1, max_size=2)))
        compiled = tuple(compile_pattern(p) for p in patterns)
        entries.append(TermPattern(canonical=f"t{i}", patterns=patterns, compiled=compiled))
    matches = st.sampled_from([p for entry in entries for p in entry.patterns]).flatmap(
        lambda p: st.from_regex(re.compile(p, re.IGNORECASE), fullmatch=True)
    )
    fragment = st.one_of(
        matches,
        matches.map(lambda m: m.replace("i", "ı")),  # dotless i still matches i
        word,
        st.sampled_from(["ı", "ſ", "K", "İ", "ß", "é"]),
        st.text(_TEXT_CHARS, max_size=3),
    )
    text = st.lists(st.tuples(fragment, st.sampled_from(_SEPARATORS)), max_size=8).map(
        lambda parts: "".join(f + sep for f, sep in parts)
    )
    return TermLexicon(entries=tuple(entries)), draw(st.lists(text, min_size=2, max_size=6))


@settings(deadline=None)
@given(lexicons_with_texts())
def test_extract_terms_matches_per_pattern_oracle(case):
    lexicon, texts = case
    for text in texts:
        assert extract_terms(doc(text), lexicon) == extract_terms_reference(doc(text), lexicon)

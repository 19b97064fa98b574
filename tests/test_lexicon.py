import datetime as dt
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import extract_terms_reference

from techflux import synth
from techflux.corpus import Document, normalize_tag
from techflux.errors import LexiconError
from techflux.lexicon import (
    _LITERAL_RUN,
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
    assert len(lexicon.entries) == 0
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
    message = f"lexicon: entry 'drone': pattern {pattern!r} matches the empty string"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        lex({"canonical": "ai", "patterns": ["ai"]}, {"canonical": "drone", "patterns": ["drones?", pattern]})


def test_bad_pattern_in_a_lexicon_file_names_the_file(tmp_path):
    path = tmp_path / "terms.json"
    path.write_text(json.dumps([{"canonical": "ai", "patterns": ["deep nets"]}]))
    message = "terms.json: entry 'ai': pattern 'deep nets' fails self-test (does not match the canonical form)"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        compile_lexicon(path)


def test_duplicate_canonical_rejected():
    with pytest.raises(LexiconError, match="duplicate"):
        lex({"canonical": "ai", "patterns": ["ai"]}, {"canonical": "AI", "patterns": ["ai"]})


def test_duplicate_canonical_in_a_lexicon_file_names_the_file(tmp_path):
    path = tmp_path / "terms.json"
    path.write_text(json.dumps([{"canonical": "ai", "patterns": ["ai"]}, {"canonical": "AI", "patterns": ["a[i]"]}]))
    with pytest.raises(LexiconError, match=r"^terms\.json: duplicate canonical term: 'ai'$"):
        compile_lexicon(path)


# the words Python 3.11 and later use; 3.10 warns with a DeprecationWarning,
# then compiles these with the flag applied to the whole pattern, or fails on (?a);
# a flag at the start of the pattern is not at the start of its wrapper
@pytest.mark.filterwarnings("ignore:Flags not at the start:DeprecationWarning")
@pytest.mark.parametrize("pattern", [
    "ai(?x) chip", "ai chip(?s)", "ai(?m) chip", "ai(?a) chip", "ai(?i) chip", "ai(?u) chip", "(?i)ai chip", "(?u)ai chip",
])
def test_inline_global_flags_are_refused_on_every_version(pattern):
    message = f"lexicon: entry 'ai chip': pattern {pattern!r} does not compile: global flags not at the start of the expression"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}"):
        lex({"canonical": "ai chip", "patterns": ["ai chip", pattern]})


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
    assert _literal_prefix(pattern)[0] == literal


# the literal run as first written, with negated classes that run to U+10FFFF
_LITERAL_RUN_ORACLE = re.compile(r"(?:(?:[^\\.^$*+?{}\[\]()|\x80-\U0010ffff]|\\[^0-9A-Za-z\x80-\U0010ffff])(?![?*{]))*")


@given(st.text(st.one_of(
    st.sampled_from("\\.^$*+?{}[]()|-_ aZ09\t\n\x00\x7f\x80éı中\U0001f600"),
    st.characters(max_codepoint=0x7F),
    st.characters(),
)))
def test_literal_run_matches_its_negated_class_form(pattern):
    assert _LITERAL_RUN.match(pattern).group() == _LITERAL_RUN_ORACLE.match(pattern).group()


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
    # every generated pattern is a literal, so the scan alone decides every
    # term: no pattern is searched in every document, none is confirmed
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
    extract_terms(doc("mint"), lexicon)
    _, implied, always = lexicon._tables
    assert always == ()
    assert all(called == () for terms_called in implied.values() for _, called in terms_called)
    assert len(implied) == len(lexicon.entries)


# the four letters that IGNORECASE matches to ASCII ones, two combining
# marks, ß (folded to ss) and é
_ODD_CHARS = ["\u0131", "\u017f", "\u212a", "\u0130", "\u0301", "\u0307", "\u00df", "\u00e9"]
_TEXT_CHARS = list("aiskAISK01_ -.+#\u2014\u2019") + _ODD_CHARS
_SEPARATORS = ["", " ", "-", ".", "\u2014", "\u2019"]


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
    # most patterns start with a word, so that most have a literal prefix
    lead = st.one_of(word, word.map(lambda w: w + "+"), word, piece)
    branch = st.builds(lambda first, rest: first + "".join(rest), lead, st.lists(piece, max_size=3))
    # a leading \b or a top-level | in about one pattern in eight each
    pattern = st.builds(
        lambda k, first, second: (r"\b" if k == 7 else "") + first + (f"|{second}" if k == 6 else ""),
        st.integers(0, 7), branch, branch,
    )
    # literal patterns: words joined by separators, each literal often
    # extending an earlier one (ai, ai chip, ai-chip), and some ending in a
    # non-word character (c++, c#)
    literals = [draw(word)]
    for _ in range(draw(st.integers(0, 5))):
        base = draw(st.sampled_from(literals + vocab))
        literals.append(base + draw(st.sampled_from([" ", "-", ".", ""])) + draw(word))
    literals = [text + draw(st.sampled_from(["", "", "+", "++", "#", "."])) for text in literals]
    literal = st.sampled_from(literals).flatmap(
        lambda text: st.sampled_from([re.escape(text), text.replace(".", r"\.").replace("+", r"\+")])
    )
    entries = []
    for i in range(draw(st.integers(1, 6))):
        # entries mix literal and regex patterns
        patterns = tuple(draw(st.lists(st.one_of(literal, literal, pattern), min_size=1, max_size=3)))
        entries.append(TermPattern(canonical=f"t{i}", patterns=patterns))
    matches = st.sampled_from([p for entry in entries for p in entry.patterns]).flatmap(
        lambda p: st.from_regex(re.compile(p, re.IGNORECASE), fullmatch=True)
    )
    fragment = st.one_of(
        matches,
        matches.map(lambda m: m.replace("i", "\u0131")),  # dotless i still matches i
        st.tuples(matches, st.sampled_from(_ODD_CHARS)).map("".join),  # a mark or letter right after a match
        st.tuples(st.sampled_from(_ODD_CHARS), matches).map("".join),
        st.lists(word, min_size=2, max_size=4).map(" ".join),  # overlapping literals (a b, b c)
        word,
        st.sampled_from(_ODD_CHARS),
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


# pieces that can unbalance a group, put a | outside the wrapper's group,
# or place a global flag anywhere
_GRAMMAR = ["ai", "chip", "a", "i", "s?", " ", r"\-", "(?:", "(", ")", ")|(?:", r"\)", "[)]", "|", "(?i)", "(?u)"]
_GRAMMAR_WORDS = ["ai", "AI", "chip", "chips", "microchip", "aichip", "ai-chip", "ai)", "a", "i"]


@settings(deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_GRAMMAR), min_size=1, max_size=6).map("".join), min_size=1, max_size=3),
    st.lists(st.lists(st.sampled_from(_GRAMMAR_WORDS), max_size=5).map(" ".join), min_size=1, max_size=4),
)
def test_a_lexicon_is_refused_or_agrees_with_the_unwrapped_oracle(patterns, texts):
    try:
        lexicon = TermLexicon(entries=tuple(TermPattern(f"t{i}", (p,)) for i, p in enumerate(patterns)))
    except LexiconError as exc:
        assert "does not compile" in str(exc)
        return
    for text in texts:
        assert extract_terms(doc(text), lexicon) == extract_terms_reference(doc(text), lexicon)


_LITERAL_ENTRIES = [
    {"canonical": "ai", "patterns": ["ai"]},
    {"canonical": "ai chip", "patterns": ["ai chip"]},
    {"canonical": "ai-chip", "patterns": [r"ai\-chip"]},
    {"canonical": "machine learning", "patterns": ["machine learning"]},
    {"canonical": "learning systems", "patterns": [r"learning\ systems"]},
    # a literal that ends in a non-word character needs a word character after it
    {"canonical": "c++11", "patterns": [r"c\+\+"]},
    {"canonical": "c#7", "patterns": ["c#"]},
    {"canonical": "chip design", "patterns": ["chip design", "chips? designs?"]},
]


@pytest.mark.parametrize("text, terms", [
    ("AI chips", {"ai"}),
    ("an ai chip", {"ai", "ai chip"}),
    ("ai-chip vendors", {"ai", "ai-chip"}),
    ("ai chipset", {"ai"}),
    ("machine learning systems", {"machine learning", "learning systems"}),
    ("C++11 and C#7", {"c++11", "c#7"}),
    ("c++ and c# and c+1", set()),
    ("ai chip designs", {"ai", "ai chip", "chip design"}),
    ("\u0131\u0301 ai\u0307 chip", {"ai"}),
    ("a\u0131 chip\u0301", {"ai", "ai chip"}),
    ("\u0130a ma\u0131chine learning", set()),
])
def test_literals_that_are_prefixes_or_overlap(text, terms):
    lexicon = lex(*_LITERAL_ENTRIES)
    assert extract_terms(doc(text), lexicon) == extract_terms_reference(doc(text), lexicon) == terms


def test_a_literal_lexicon_compiles_one_regex(monkeypatch):
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args[0]) or compile_(*args))
    lexicon = lex(*_LITERAL_ENTRIES[:-1])
    assert compiled == []  # the scan is built by the first extraction
    assert extract_terms(doc("machine learning systems"), lexicon) == {"machine learning", "learning systems"}
    assert len(compiled) == 1
    assert extract_terms(doc("learning systems"), lexicon) == {"learning systems"}
    assert len(compiled) == 1


def test_a_lexicon_built_directly_checks_its_patterns_before_any_extraction():
    message = "entry 'ml': pattern 'ml(' does not compile: missing ), unterminated subpattern at position 2"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        TermLexicon(entries=(TermPattern("ai", ("ai",)), TermPattern("ml", ("ml(",))))
    with pytest.raises(LexiconError, match="duplicate canonical term: 'ai'"):
        TermLexicon(entries=(TermPattern("ai", ("ai",)), TermPattern("ai", ("a[i]",))))


def test_literals_nested_past_the_trie_depth():
    # each literal extends the one before, one branch point of the trie per
    # literal; nested 600 deep, the scan would overflow the recursion of re's parser
    names = [" ".join(["a"] * n) for n in range(1, 601)]
    lexicon = lex(*({"canonical": name, "patterns": [name]} for name in names))
    for n in (1, 63, 64, 65, 600):
        text = " ".join(["A"] * n)
        assert extract_terms(doc(text), lexicon) == set(names[:n])
        assert extract_terms(doc(text + "x"), lexicon) == set(names[:n - 1])


@pytest.mark.parametrize("pattern, whole", [
    (r"c00\-000", True),
    (r"c\+\+", True),
    ("c#", True),
    (r"ai\ chip", True),
    ("ai chip", True),
    ("a\\\\b", True),
    ("machine[- ]?learning", False),
    ("Ab+c", False),
    ("ai?", False),
    ("ai\\", False),
    ("aié", False),
    (r"\bai\b", False),
])
def test_whole_literal(pattern, whole):
    assert _literal_prefix(pattern)[1] == whole


_CANONICAL_CHARS = list("aisk01_ -+#.") + _ODD_CHARS


@settings(deadline=None)
@given(
    st.lists(st.sampled_from(["a", "i", "s", "k", "ai", "_", "1", " ", "-", "+", "#", "."]), min_size=1, max_size=4).map("".join),
    st.text(_CANONICAL_CHARS, min_size=1, max_size=8),
)
def test_literal_self_test_matches_the_compiled_search(text, raw_canonical):
    pattern = re.escape(text)
    canonical = normalize_tag(raw_canonical)
    assume(canonical and _literal_prefix(pattern)[1])
    passes = compile_pattern(pattern).search(canonical) is not None
    try:
        lex({"canonical": raw_canonical, "patterns": [pattern]})
    except LexiconError as exc:
        assert not passes and "fails self-test" in str(exc)
    else:
        assert passes

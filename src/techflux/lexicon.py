r"""Technology term lexicon: pattern checks and one-scan term extraction.

The lexicon file is a JSON array of ``{"canonical": str, "patterns": [str]}``
entries. Patterns are meant to cover inflections (singular/plural, spelling
variants) of one canonical term. A pattern matches where ``compile_pattern``
matches: wrapped with word boundaries and compiled case-insensitively, so
e.g. a pattern ``ai`` will not fire inside "maintain".

Pattern dialect: Python `re`, restricted by convention to constructs common
to mainstream engines -- character classes, alternation, optional/repeat
quantifiers, non-capturing groups. Backreferences are not supported.

Extraction scans each document once, with one regex for the whole lexicon.
A pattern with no top-level ``|`` may start with an ASCII literal ``L``
whose first character is a word character; every match of the pattern then
starts where a word starts and the text continues with ``L``. ``L`` is read
off the pattern string: plain characters and escaped punctuation, up to the
first metacharacter, class, group or ``\`` + alphanumeric, without a
character that a ``?``, ``*`` or ``{`` makes optional. A pattern that is
all ``L`` is a literal pattern: it is never compiled on its own, and its
self-test is a string check.

The scan is ``\b(?=(<trie of every L>)(\w?))``, so at every word start it
reports the longest ``L`` that the text continues with, overlapping matches
included, and whether a word character follows. All that this string ``S``
implies is worked out when the lexicon is built: a shorter literal ``P`` of
``S`` holds where ``S`` has a word boundary after ``P``; the literal equal to
``S`` holds where the following character makes one; and a pattern whose
``L`` starts ``S`` is a candidate, confirmed by its own compiled search. A
pattern with no ``L`` (``\bai\b``, ``(?:x|y)``) is searched in every
document. Case-insensitive matching lets four non-ASCII letters stand for
ASCII ones (``ı`` and ``İ`` match ``i``, ``ſ`` matches ``s``, the Kelvin
sign matches ``k``). Case folding leaves only ``ı``, so a scanned string
with ``ı`` read as ``i`` is one of the trie's.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

from .corpus import Document, normalize_tag
from .errors import LexiconError
from .fileio import read_json


@dataclass(frozen=True)
class TermPattern:
    """One canonical term plus the patterns that detect it."""

    canonical: str
    patterns: tuple[str, ...]


_FLAGS = re.IGNORECASE | re.UNICODE
_BOUNDARY = re.compile(r"\b")
# plain ASCII characters and escaped ASCII punctuation, each not made
# optional by a ?, * or { after it
_LITERAL_RUN = re.compile(r"(?:(?:[^\\.^$*+?{}\[\]()|\x80-\U0010ffff]|\\[^0-9A-Za-z\x80-\U0010ffff])(?![?*{]))*")
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
# sre_parse recurses once per nested group; strings below this many branch
# points of the trie go into one flat alternation instead
_MAX_NESTING = 64


def _class_end(pattern: str, i: int) -> int:
    """Index just past the ``]`` that closes the class opened at pattern[i]."""
    i += 1
    if pattern[i:i + 1] == "^":
        i += 1
    if pattern[i:i + 1] == "]":
        i += 1
    while i < len(pattern) and pattern[i] != "]":
        i += 2 if pattern[i] == "\\" else 1
    return i + 1


def _has_top_level_bar(pattern: str) -> bool:
    depth = 0
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "[":
            i = _class_end(pattern, i)
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth <= 0:  # below 0 only in a hand-built a)|(?:b
            return True
        i += 1
    return False


def _literal_prefix(pattern: str) -> tuple[str, bool]:
    """Lowercased ASCII text that starts every match of a lexicon pattern, and whether it is the whole pattern.

    The text is empty when none starting with a word character can be read
    off the pattern; the pattern is then searched in every document.
    """
    if "|" in pattern and _has_top_level_bar(pattern):
        return "", False
    run = _LITERAL_RUN.match(pattern).group()
    literal = _ESCAPED.sub(lambda m: m[1], run).lower()
    if not literal or not _is_word(literal[0]):
        return "", False
    return literal, len(run) == len(pattern)


def _is_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _literal_in(literal: str, text: str) -> bool:
    r"""Whether ``\b(?:literal)\b`` matches a case-folded text case-insensitively."""
    plain = text.replace("\u0131", "i")
    start = plain.find(literal)
    while start >= 0:
        if _BOUNDARY.match(text, start) and _BOUNDARY.match(text, start + len(literal)):
            return True
        start = plain.find(literal, start + 1)
    return False


def _trie_regex(strings: list[str], depth: int = 0) -> str:
    """A regex matching the longest of the sorted, distinct strings ("" among them) at its start."""
    if depth == _MAX_NESTING:
        return "(?:" + "|".join(map(re.escape, sorted(strings, key=len, reverse=True))) + ")"
    optional = strings[0] == ""
    branches = []
    for head, group in groupby(strings[1:] if optional else strings, key=lambda s: s[0]):
        tails = [s[1:] for s in group]
        if len(tails) == 1:
            branches.append(re.escape(head + tails[0]))
            continue
        stem = os.path.commonprefix(tails)
        branches.append(re.escape(head + stem) + _trie_regex([t[len(stem):] for t in tails], depth + 1))
    body = "|".join(branches)
    if optional:
        return f"(?:{body})?"
    return f"(?:{body})" if len(branches) > 1 else body


@dataclass(frozen=True)
class TermLexicon:
    entries: tuple[TermPattern, ...]
    # built in __post_init__: the scan, each scanned string -> (terms it
    # implies, (canonical, compiled) searches it calls for), first without
    # and then with a word character after it, and the searches every
    # document needs
    _scan: re.Pattern | None = field(init=False, repr=False, compare=False)
    _implied: dict[str, tuple[tuple[frozenset[str], tuple], ...]] = field(init=False, repr=False, compare=False)
    _always: tuple[tuple[str, re.Pattern], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.canonical in seen:
                raise LexiconError(f"duplicate canonical term: {entry.canonical!r}")
            seen.add(entry.canonical)
        literals: dict[str, list[str]] = {}
        searches: dict[str, list[tuple[str, re.Pattern]]] = {}
        always = []
        for entry in self.entries:
            for pattern in entry.patterns:
                literal, whole = _literal_prefix(pattern)
                if whole:
                    literals.setdefault(literal, []).append(entry.canonical)
                    continue
                rx = compile_pattern(pattern)
                # Python 3.10 applies an inline (?x) or (?a) anywhere in the
                # pattern to all of it, which can change what L matches
                if literal and rx.flags == _FLAGS:
                    searches.setdefault(literal, []).append((entry.canonical, rx))
                else:
                    always.append((entry.canonical, rx))
        strings = literals.keys() | searches.keys()
        implied = {}
        for s in strings:
            bounded, called = [], []
            for k in range(1, len(s)):
                if s[:k] in strings:
                    called += searches.get(s[:k], ())
                    if _is_word(s[k - 1]) != _is_word(s[k]):
                        bounded += literals.get(s[:k], ())
            called += searches.get(s, ())
            own = literals.get(s, [])
            implied[s] = tuple(
                (frozenset(bounded + own if _is_word(s[-1]) != word_after else bounded), tuple(called))
                for word_after in (False, True)
            )
        scan = None
        if implied:
            scan = re.compile(rf"\b(?=({_trie_regex(sorted(implied))})(\w?))", _FLAGS)
        object.__setattr__(self, "_scan", scan)
        object.__setattr__(self, "_implied", implied)
        object.__setattr__(self, "_always", tuple(always))

    @property
    def canonical_terms(self) -> frozenset[str]:
        return frozenset(entry.canonical for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def compile_pattern(pattern: str) -> re.Pattern:
    """A lexicon pattern wrapped in word boundaries, compiled case-insensitively."""
    return re.compile(rf"\b(?:{pattern})\b", _FLAGS)


def _compile_entry(canonical: str, patterns: list[str], where: str) -> TermPattern:
    canonical = normalize_tag(canonical)
    if not canonical:
        raise LexiconError(f"{where}: entry with empty canonical term")
    if not patterns:
        raise LexiconError(f"{where}: entry {canonical!r}: needs at least one pattern")
    for pattern in patterns:
        literal, whole = _literal_prefix(pattern)
        if whole:
            # compiles, and cannot match the empty string
            passes = _literal_in(literal, canonical)
        else:
            try:
                rx = compile_pattern(pattern)
            except re.error as exc:
                raise LexiconError(f"{where}: entry {canonical!r}: pattern {pattern!r} does not compile: {exc}") from None
            # an empty match at the end of a word: such a pattern fires in every document with a word
            if rx.match("a", 1):
                raise LexiconError(f"{where}: entry {canonical!r}: pattern {pattern!r} matches the empty string")
            passes = rx.search(canonical) is not None
        if not passes:
            raise LexiconError(f"{where}: entry {canonical!r}: pattern {pattern!r} fails self-test (does not match the canonical form)")
    return TermPattern(canonical=canonical, patterns=tuple(patterns))


def compile_lexicon(path: str | Path) -> TermLexicon:
    """Load and compile a lexicon file, self-testing every pattern."""
    path = Path(path)
    return lexicon_from_records(read_json(path, LexiconError, "lexicon file"), where=path.name)


def lexicon_from_records(raw: object, where: str = "lexicon") -> TermLexicon:
    """Build a lexicon from already-parsed ``[{"canonical", "patterns"}]`` records."""
    if not isinstance(raw, list):
        raise LexiconError(f"{where}: expected a JSON array of entries")
    entries = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict) or "canonical" not in rec:
            raise LexiconError(f"{where}: entry {i} needs a 'canonical' field")
        if not isinstance(rec["canonical"], str):
            raise LexiconError(f"{where}: entry {i}: 'canonical' must be a string, got {rec['canonical']!r}")
        patterns = rec.get("patterns")
        if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
            raise LexiconError(f"{where}: entry {rec['canonical']!r}: 'patterns' must be a list of strings")
        entries.append(_compile_entry(rec["canonical"], patterns, where))
    return TermLexicon(entries=tuple(entries))


def extract_terms(doc: Document, lexicon: TermLexicon) -> set[str]:
    """Canonical terms whose any pattern matches the document text.

    Set semantics: within-document repetition is discarded. Matching runs on
    the case-folded text, so extraction is invariant under case changes.
    """
    text = doc.text.casefold()
    if not text:
        return set()
    found: set[str] = set()
    searches = set(lexicon._always)
    if lexicon._scan is not None:
        for scanned, after in lexicon._scan.findall(text):
            terms, called = lexicon._implied[scanned.replace("\u0131", "i")][after != ""]
            found |= terms
            searches.update(called)
    for canonical, rx in searches:
        if canonical not in found and rx.search(text):
            found.add(canonical)
    return found

r"""Technology term lexicon: pattern checks and one-scan term extraction.

The lexicon file is a JSON array of ``{"canonical": str, "patterns": [str]}``
entries. Patterns are meant to cover inflections (singular/plural, spelling
variants) of one canonical term. A pattern matches where ``compile_pattern``
matches: wrapped with word boundaries and compiled case-insensitively, so
e.g. a pattern ``ai`` will not fire inside "maintain".

Pattern dialect: Python `re`, restricted by convention to constructs common
to mainstream engines -- character classes, alternation, optional/repeat
quantifiers, non-capturing groups. Backreferences and inline global flags
(``(?x)``) are not supported.

``TermLexicon`` reads each pattern once, when it is built: its literal prefix
``L`` (below) and, unless it is all ``L``, its compiled search. It refuses a
duplicate canonical or a pattern that does not compile, on its own or wrapped;
``lexicon_from_records`` also self-tests every pattern on that reading.

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
included, and whether a word character follows. What a scanned string ``S``
implies: a shorter literal ``P`` of ``S`` holds where ``S`` has a word
boundary after ``P``; the literal equal to ``S`` holds where the following
character makes one; and a pattern whose ``L`` starts ``S`` is a candidate,
confirmed by its own compiled search. A pattern with no ``L`` (``\bai\b``,
``(?:x|y)``) is searched in every document. The scan and these tables are
built by the first extraction, so a lexicon that extracts nothing (a
tags-only run) never builds them. Case-insensitive matching lets four
non-ASCII letters stand for ASCII ones (``ı`` and ``İ`` match ``i``, ``ſ``
matches ``s``, the Kelvin sign matches ``k``). Case folding leaves only
``ı``, so a scanned string with ``ı`` read as ``i`` is one of the trie's.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from functools import cached_property
from itertools import groupby
from pathlib import Path

from .corpus import Document, normalize_tag
from .errors import LexiconError
from .fileio import read_json
from .records import Checked

# one canonical term (str) plus the patterns (tuple of str) that detect it
TermPattern = namedtuple("TermPattern", "canonical patterns")


_FLAGS = re.IGNORECASE | re.UNICODE
_BOUNDARY = re.compile(r"\b")
# plain ASCII characters and escaped ASCII punctuation, each not made
# optional by a ?, * or { after it
_LITERAL_RUN = re.compile(r"(?:(?:(?![\\.^$*+?{}\[\]()|])[\x00-\x7f]|\\(?![0-9A-Za-z])[\x00-\x7f])(?![?*{]))*")
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
        elif ch == "|" and depth == 0:
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


# no __slots__: the cached_property tables live in the instance __dict__
class TermLexicon(Checked, namedtuple("TermLexicon", "entries")):
    def __new__(cls, entries: tuple[TermPattern, ...]) -> TermLexicon:
        seen: set[str] = set()
        for entry in entries:
            if entry.canonical in seen:
                raise LexiconError(f"duplicate canonical term: {entry.canonical!r}")
            seen.add(entry.canonical)
        lexicon = tuple.__new__(cls, (entries,))
        lexicon._patterns  # a pattern that does not compile fails here, not at the first extraction
        return lexicon

    # per pattern: (canonical, pattern, literal prefix, compiled search or None if all literal)
    @cached_property
    def _patterns(self) -> tuple[tuple[str, str, str, re.Pattern | None], ...]:
        read = []
        for entry in self.entries:
            for pattern in entry.patterns:
                literal, whole = _literal_prefix(pattern)
                # compiled on its own first, so that an unbalanced ) cannot close the wrapper's group; under
                # re.ASCII any global flag shows (a (?u) as ValueError) where Python 3.10 only warns of it
                try:
                    if not whole and re.compile(pattern, re.ASCII).flags != re.ASCII:
                        raise ValueError
                    rx = None if whole else compile_pattern(pattern)
                except (re.error, ValueError, DeprecationWarning, OverflowError, RecursionError) as exc:
                    flags = isinstance(exc, (ValueError, DeprecationWarning))
                    reason = "global flags not at the start of the expression" if flags else exc
                    raise LexiconError(f"entry {entry.canonical!r}: pattern {pattern!r} does not compile: {reason}") from None
                read.append((entry.canonical, pattern, literal, rx))
        return tuple(read)

    # built by the first extraction: the scan, each scanned string -> (terms
    # it implies, (canonical, compiled) searches it calls for), first without and
    # then with a word character after it, and the searches every document needs
    @cached_property
    def _tables(self) -> tuple[re.Pattern | None, dict[str, tuple[tuple[frozenset[str], tuple], ...]], tuple]:
        literals: dict[str, list[str]] = {}
        searches: dict[str, list[tuple[str, re.Pattern]]] = {}
        always = []
        for canonical, _, literal, rx in self._patterns:
            if rx is None:
                literals.setdefault(literal, []).append(canonical)
            elif literal:
                searches.setdefault(literal, []).append((canonical, rx))
            else:
                always.append((canonical, rx))
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
        return scan, implied, tuple(always)

    @cached_property
    def canonical_terms(self) -> frozenset[str]:
        return frozenset(entry.canonical for entry in self.entries)

    def __len__(self) -> int:
        """The number of entries; tuple indexing and iteration still see the one field."""
        return len(self.entries)


def compile_pattern(pattern: str) -> re.Pattern:
    """A lexicon pattern wrapped in word boundaries, compiled case-insensitively."""
    return re.compile(rf"\b(?:{pattern})\b", _FLAGS)


def compile_lexicon(path: str | Path) -> TermLexicon:
    """Load and compile a lexicon file, self-testing every pattern."""
    return lexicon_from_records(read_json(path, LexiconError, "lexicon file"), where=Path(path).name)


def lexicon_from_records(raw: object, where: str = "lexicon") -> TermLexicon:
    """Build a lexicon from already-parsed ``[{"canonical", "patterns"}]`` records; every error names ``where``."""
    try:
        if not isinstance(raw, list):
            raise LexiconError("expected a JSON array of entries")
        entries = []
        for i, rec in enumerate(raw):
            if not isinstance(rec, dict) or "canonical" not in rec:
                raise LexiconError(f"entry {i} needs a 'canonical' field")
            if not isinstance(rec["canonical"], str):
                raise LexiconError(f"entry {i}: 'canonical' must be a string, got {rec['canonical']!r}")
            patterns = rec.get("patterns")
            if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
                raise LexiconError(f"entry {rec['canonical']!r}: 'patterns' must be a list of strings")
            canonical = normalize_tag(rec["canonical"])
            if not canonical:
                raise LexiconError("entry with empty canonical term")
            if not patterns:
                raise LexiconError(f"entry {canonical!r}: needs at least one pattern")
            entries.append(TermPattern(canonical=canonical, patterns=tuple(patterns)))
        lexicon = TermLexicon(entries=tuple(entries))
        for canonical, pattern, literal, rx in lexicon._patterns:
            # an empty match at the end of a word fires in every document with a word; a literal has none
            if rx is not None and rx.match("a", 1):
                raise LexiconError(f"entry {canonical!r}: pattern {pattern!r} matches the empty string")
            if not (_literal_in(literal, canonical) if rx is None else rx.search(canonical)):
                raise LexiconError(f"entry {canonical!r}: pattern {pattern!r} fails self-test (does not match the canonical form)")
    except LexiconError as exc:
        raise LexiconError(f"{where}: {exc}") from None
    return lexicon


def extract_terms(doc: Document, lexicon: TermLexicon) -> set[str]:
    """Canonical terms whose any pattern matches the document text.

    Set semantics: within-document repetition is discarded. Matching runs on
    the case-folded text, so extraction is invariant under case changes.
    """
    text = doc.text.casefold()
    if not text:
        return set()
    scan, implied, always = lexicon._tables
    found: set[str] = set()
    searches = set(always)
    if scan is not None:
        for scanned, after in scan.findall(text):
            terms, called = implied[scanned.replace("\u0131", "i")][after != ""]
            found |= terms
            searches.update(called)
    for canonical, rx in searches:
        if canonical not in found and rx.search(text):
            found.add(canonical)
    return found

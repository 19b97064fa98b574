r"""Technology term lexicon: compiled regex matchers and term extraction.

The lexicon file is a JSON array of ``{"canonical": str, "patterns": [str]}``
entries. Patterns are meant to cover inflections (singular/plural, spelling
variants) of one canonical term. The compiler wraps every pattern with word
boundaries and compiles it case-insensitively, so e.g. a pattern ``ai`` will
not fire inside "maintain".

Pattern dialect: Python `re`, restricted by convention to constructs common
to mainstream engines -- character classes, alternation, optional/repeat
quantifiers, non-capturing groups. Backreferences are not supported.

Extraction does not run every pattern on every document. When a pattern has
no top-level ``|`` and starts with an ASCII literal ``L`` whose first
character is a word character, each of its matches starts where a ``\w+``
token of the text starts, and the text continues with ``L`` from there. The
lexicon therefore keeps an index, built once with the lexicon, from the
first word run of each such ``L`` to its entries. A document runs only the
entries whose ``L`` it contains at a token start, and confirms each with its
compiled patterns, so the result is the same set the per-pattern search
gives. ``L`` is read off the pattern string: plain characters and escaped
punctuation, up to the first metacharacter, class, group or ``\`` + alphanumeric,
without a character that a ``?``, ``*`` or ``{`` makes optional. An entry
with any pattern that has no such ``L`` (``\bai\b``, ``(?:x|y)``) is a
candidate in every document. Case-insensitive matching lets four non-ASCII
letters stand for ASCII ones (``ı`` and ``İ`` match ``i``, ``ſ`` matches
``s``, the Kelvin sign matches ``k``); after case folding only ``ı`` is
left, so the index reads the text with ``ı`` as ``i``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Document, normalize_tag
from .errors import LexiconError
from .fileio import read_json


@dataclass(frozen=True)
class TermPattern:
    """One canonical term plus the compiled patterns that detect it."""

    canonical: str
    patterns: tuple[str, ...]
    compiled: tuple[re.Pattern, ...]


_TOKEN = re.compile(r"\w+")
_WRAPPED = re.compile(r"\\b\(\?:(.*)\)\\b", re.DOTALL)
_ASCII_WORD_RUN = re.compile(r"\w+", re.ASCII)
_METACHARS = frozenset(".^$*+?{}[]()|")


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
        elif ch == "|" and depth <= 0:  # below 0 only in a hand-built \b(?:a)|(?:b)\b
            return True
        i += 1
    return False


def _literal_prefix(rx: re.Pattern) -> str:
    """Lowercased ASCII text that starts every match of a compiled lexicon pattern.

    Empty when no such text starting with a word character can be read off
    the pattern; the entry is then a candidate in every document.
    """
    wrapped = _WRAPPED.fullmatch(rx.pattern)
    if wrapped is None or rx.flags & re.VERBOSE:
        return ""
    pattern = wrapped.group(1)
    if _has_top_level_bar(pattern):
        return ""
    chars = []
    i = 0
    while i < len(pattern):
        ch, step = pattern[i], 1
        if ch == "\\":
            ch, step = pattern[i + 1], 2
            if ch.isalnum():
                break
        elif ch in _METACHARS:
            break
        if not ch.isascii() or pattern[i + step:i + step + 1] in ("?", "*", "{"):
            break
        chars.append(ch)
        i += step
    literal = "".join(chars).lower()
    return literal if _ASCII_WORD_RUN.match(literal) else ""


@dataclass(frozen=True)
class TermLexicon:
    entries: tuple[TermPattern, ...]
    # built in __post_init__: first word run of a literal prefix -> (prefix,
    # entry index) pairs, the sorted key lengths, and the unindexed entries
    _index: dict[str, tuple[tuple[str, int], ...]] = field(init=False, repr=False, compare=False)
    _key_lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _always: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.canonical in seen:
                raise LexiconError(f"duplicate canonical term: {entry.canonical!r}")
            seen.add(entry.canonical)
        index: dict[str, list[tuple[str, int]]] = {}
        always = []
        for i, entry in enumerate(self.entries):
            literals = [_literal_prefix(rx) for rx in entry.compiled]
            if not all(literals):
                always.append(i)
                continue
            for literal in dict.fromkeys(literals):
                key = _ASCII_WORD_RUN.match(literal).group()
                index.setdefault(key, []).append((literal, i))
        object.__setattr__(self, "_index", {key: tuple(hits) for key, hits in index.items()})
        object.__setattr__(self, "_key_lengths", tuple(sorted({len(key) for key in index})))
        object.__setattr__(self, "_always", tuple(always))

    def _candidates(self, text: str) -> list[TermPattern]:
        """Entries that may match the case-folded text, in lexicon order."""
        # same length and token starts; ı is the one case-folded letter that
        # IGNORECASE matches to an ASCII one
        text = text.replace("\u0131", "i")
        hits = set(self._always)
        for m in _TOKEN.finditer(text):
            token, start = m.group(), m.start()
            for length in self._key_lengths:
                if length > len(token):
                    break
                for literal, i in self._index.get(token[:length], ()):
                    if text.startswith(literal, start):
                        hits.add(i)
        return [self.entries[i] for i in sorted(hits)]

    @property
    def canonical_terms(self) -> frozenset[str]:
        return frozenset(entry.canonical for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def compile_pattern(pattern: str) -> re.Pattern:
    """A lexicon pattern wrapped in word boundaries, compiled case-insensitively."""
    return re.compile(rf"\b(?:{pattern})\b", re.IGNORECASE | re.UNICODE)


def _compile_entry(canonical: str, patterns: list[str]) -> TermPattern:
    canonical = normalize_tag(canonical)
    if not canonical:
        raise LexiconError("lexicon entry with empty canonical term")
    if not patterns:
        raise LexiconError(f"entry {canonical!r}: needs at least one pattern")
    compiled = []
    for pattern in patterns:
        try:
            rx = compile_pattern(pattern)
        except re.error as exc:
            raise LexiconError(f"entry {canonical!r}: pattern {pattern!r} does not compile: {exc}") from None
        # an empty match at the end of a word: such a pattern fires in every document with a word
        if rx.match("a", 1):
            raise LexiconError(f"entry {canonical!r}: pattern {pattern!r} matches the empty string")
        if rx.search(canonical) is None:
            raise LexiconError(f"entry {canonical!r}: pattern {pattern!r} fails self-test (does not match the canonical form)")
        compiled.append(rx)
    return TermPattern(canonical=canonical, patterns=tuple(patterns), compiled=tuple(compiled))


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
        entries.append(_compile_entry(rec["canonical"], patterns))
    return TermLexicon(entries=tuple(entries))


def extract_terms(doc: Document, lexicon: TermLexicon) -> set[str]:
    """Canonical terms whose any pattern matches the document text.

    Set semantics: within-document repetition is discarded. Matching runs on
    the case-folded text, so extraction is invariant under case changes.
    """
    text = doc.text.casefold()
    if not text:
        return set()
    found = set()
    for entry in lexicon._candidates(text):
        for rx in entry.compiled:
            if rx.search(text):
                found.add(entry.canonical)
                break
    return found

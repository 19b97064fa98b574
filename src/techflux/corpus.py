"""Document collections: loading, validation, serialization, time-windowing.

A corpus is an immutable, ordered list of dated documents. Two on-disk
formats are supported:

* JSONL: one object per line with fields ``id`` (nonempty string or
  integer), ``date`` ("YYYY-MM-DD"), ``text`` (string or null), ``tags``
  (array of strings, or null); any other JSON type is refused.
* CSV: header ``id,date,text,tags`` with ``;``-separated tags, UTF-8,
  RFC-4180 quoting.

A JSONL load holds the file's whole text in memory and walks its lines
once. A line that is one object and no more, with no surrogate escape, is
parsed in that walk; any other line (blank, padded, unparsable) is read by
the per-line path, which raises the error a line-by-line read raises, in
line order. CSV is read row by row. One builder turns every record, JSONL
or CSV, into a Document: a regular record (a nonempty string id and date,
a string text and a list of tags) skips the field checks that any other
record goes through.

Tags are normalized on load: Unicode case-fold, trim, internal whitespace
collapsed to single spaces, duplicates dropped (first occurrence wins).
Dates are ``YYYY-MM-DD``, optionally with a time of day (see ``parse_date``),
which is checked and truncated to the day.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import re
from collections import namedtuple
from pathlib import Path

from .errors import CorpusError
from .fileio import _SURROGATE_ESCAPE, atomic_write_text, has_lone_surrogate, open_text, read_json, read_text, write_csv
from .records import Checked


def normalize_tag(raw: str) -> str:
    """Case-fold, trim, and collapse internal whitespace to single spaces."""
    return " ".join(raw.casefold().split())


# What may follow the date: "T" or a space, HH:MM[:SS[.ffffff]], then an
# optional UTC offset, "Z" or +HH:MM / -HH:MM. Compiled on first use, so
# inputs with plain dates never pay for it.
_TIME_OF_DAY = r"[T ]([0-9]{2}):([0-9]{2})(?::([0-9]{2})(?:\.[0-9]{1,6})?)?(?:Z|[+-]([0-9]{2}):([0-9]{2}))?"


def parse_date(raw: str) -> dt.date:
    """Parse a YYYY-MM-DD date, optionally followed by a time of day, which is checked and dropped.

    The grammar is pinned here, not left to ``fromisoformat``, whose accepted
    forms widen from Python 3.11 on (basic and week dates, any character
    between date and time); so one input reads the same on every version.
    """
    raw = raw.strip()
    if len(raw) >= 10 and raw[4] == "-" and raw[7] == "-":
        try:
            # with dashes at 4 and 7, the only form fromisoformat takes is YYYY-MM-DD
            day = dt.date.fromisoformat(raw[:10])
        except ValueError:
            pass
        else:
            if len(raw) == 10:
                return day
            time = re.compile(_TIME_OF_DAY).fullmatch(raw, 10)
            if time is not None:
                hour, minute, second, offset_hour, offset_minute = (int(g or 0) for g in time.groups())
                if hour < 24 and minute < 60 and second < 60 and offset_hour < 24 and offset_minute < 60:
                    return day
    raise CorpusError(f"invalid ISO-8601 date: {raw!r}")


class Document(Checked, namedtuple("Document", "id date text tags")):
    """One dated article with free text and author-assigned tags."""

    __slots__ = ()

    def __new__(cls, id: str, date: dt.date, text: str = "", tags: tuple[str, ...] = ()) -> Document:
        if not id:
            raise CorpusError("document id must be nonempty")
        if not isinstance(date, dt.date):
            raise CorpusError(f"document {id!r}: date must be a date, got {type(date).__name__}")
        return tuple.__new__(cls, (id, date, text, tags))


class TimeWindow(Checked, namedtuple("TimeWindow", "start end label")):
    """Half-open date interval [start, end)."""

    __slots__ = ()

    def __new__(cls, start: dt.date, end: dt.date, label: str = "") -> TimeWindow:
        window = tuple.__new__(cls, (start, end, label))
        if start >= end:
            raise CorpusError(f"window {window.describe()}: start must precede end")
        return window

    def describe(self) -> str:
        return self.label or f"[{self.start.isoformat()},{self.end.isoformat()})"

    def contains(self, date: dt.date) -> bool:
        return self.start <= date < self.end

    @classmethod
    def parse(cls, spec: str, label: str = "") -> "TimeWindow":
        """Parse "START:END" or "START/END", each side a date as in a windows file."""
        # a time of day has colons too, so the one cut that leaves two dates wins
        sep = "/" if "/" in spec else ":"
        cuts = [i for i, ch in enumerate(spec) if ch == sep]
        windows = []
        for i in cuts:
            try:
                windows.append(cls(parse_date(spec[:i]), parse_date(spec[i + 1:]), label))
            except CorpusError:
                if len(cuts) == 1:  # the only cut: its own error is the precise one
                    raise
        if len(windows) != 1:
            raise CorpusError(f"window spec must be START:END or START/END with one valid cut, got {spec!r}")
        return windows[0]


class Corpus(Checked, namedtuple("Corpus", "documents")):
    """Immutable ordered document collection."""

    __slots__ = ()

    def __new__(cls, documents: tuple[Document, ...] = ()) -> Corpus:
        if len({doc.id for doc in documents}) < len(documents):
            seen: set[str] = set()
            for doc in documents:  # name the first id met again
                if doc.id in seen:
                    raise CorpusError(f"duplicate document id: {doc.id!r}")
                seen.add(doc.id)
        return tuple.__new__(cls, (documents,))

    def __len__(self) -> int:
        """The number of documents; tuple indexing and iteration still see the one field."""
        return len(self.documents)


def _make_document(record: dict, where: str, names: dict[str, str], dates: dict[str, dt.date]) -> Document:
    """The Document of one parsed corpus record; raises CorpusError, naming where, for a record that is not one.

    A load passes one names dict (raw tag -> normalized tag) and one dates
    dict (raw date -> day) for all its records, which repeat a few hundred
    distinct tags and dates many times over; a bad tag or date is never
    stored, so its error names its own record.
    """
    doc_id, raw_date, text, tags = record.get("id"), record.get("date"), record.get("text"), record.get("tags")
    # a regular record (nonempty string id and date, string text, list of tags) needs none of the field checks
    if not (type(doc_id) is str and doc_id and type(raw_date) is str and raw_date
            and type(text) is str and type(tags) is list):
        for field_name in ("id", "date"):
            if record.get(field_name) in (None, ""):
                raise CorpusError(f"{where}: missing field {field_name!r}")
        if "text" not in record and "tags" not in record:
            raise CorpusError(f"{where}: record needs at least one of 'text'/'tags'")
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise CorpusError(f"{where}: field 'id' must be a nonempty string or an integer, got {doc_id!r}")
        if text is not None and not isinstance(text, str):
            raise CorpusError(f"{where}: field 'text' must be a string or null, got {text!r}")
        if tags is None:
            tags = []
        elif not isinstance(tags, (list, tuple)):
            raise CorpusError(f"{where}: field 'tags' must be a list")
        doc_id, raw_date, text = str(doc_id), str(raw_date), text or ""
    normalized = {}  # dict keys: duplicates dropped, first occurrence wins
    try:
        for raw in tags:
            tag = names.get(raw)
            if tag is None:
                tag = names[raw] = normalize_tag(raw)
            if tag:
                normalized[tag] = None
    except (AttributeError, TypeError):  # a JSON value other than a string has no casefold, or no hash
        raise CorpusError(f"{where}: field 'tags' must hold only strings, got {raw!r}") from None
    date = dates.get(raw_date)
    if date is None:
        try:
            date = dates[raw_date] = parse_date(raw_date)
        except CorpusError as exc:
            raise CorpusError(f"{where}: field 'date': {exc}") from None
    # every check of Document.__new__ has passed above
    return tuple.__new__(Document, (doc_id, date, text, tuple(normalized)))


def _split_lines(text: str) -> tuple[list[str], list[str]]:
    """The lines of text, each without its end, and their ends, as file iteration with newline="" cuts them.

    Unlike str.splitlines, this cuts at none of U+2028, U+0085 or \x0c,
    which JSON keeps raw inside strings.
    """
    if "\r" in text:
        pieces = re.split(r"(\r\n?|\n)", text)
        lines, ends = pieces[::2], pieces[1::2]
    else:
        lines = text.split("\n")
        ends = ["\n"] * (len(lines) - 1)
    if lines[-1]:
        ends.append("")  # the last line has no end
    else:
        lines.pop()
    return lines, ends


def _line_document(line: str, where: str, names: dict[str, str], dates: dict[str, dt.date]) -> Document | None:
    """The document of one JSONL line, read with its end, or None for a blank line; raises on anything else."""
    if not line.strip():
        return None
    try:
        record = json.loads(line)
        lone = has_lone_surrogate(line, record)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{where}: invalid JSON ({exc.msg})") from None
    except ValueError:  # an integer over Python's digit limit for int(str)
        raise CorpusError(f"{where}: invalid JSON (integer too long)") from None
    except RecursionError:
        raise CorpusError(f"{where}: invalid JSON (nested too deeply)") from None
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: record must be a JSON object")
    if lone:
        raise CorpusError(f"{where}: lone surrogate escape, not valid text")
    return _make_document(record, where, names, dates)


def _load_jsonl(path: Path) -> list[Document]:
    content = read_text(path, CorpusError, "corpus file")
    screened = _SURROGATE_ESCAPE.search(content) is None
    lines, ends = _split_lines(content)
    del content  # the lines hold the text now, so it is not held twice while documents are built
    docs, names, dates = [], {}, {}
    scan_once = json.JSONDecoder().scan_once
    name = path.name
    for lineno, line in enumerate(lines, start=1):
        # A line that is one object from its first character to its end, with
        # no surrogate escape, goes to _make_document as parsed here. Any other
        # line (blank, padded, unparsable, not one object), and any record
        # refused here, is read again by _line_document, which raises the
        # error naming its line, in line order: a line's location is only
        # formatted when an error needs it.
        if line[:1] == "{" and (screened or _SURROGATE_ESCAPE.search(line) is None):
            try:
                record, end = scan_once(line, 0)
                if end == len(line):
                    docs.append(_make_document(record, name, names, dates))
                    continue
            # a parse failure, or a record refused (CorpusError is a ValueError)
            except (StopIteration, ValueError, RecursionError):
                pass
        doc = _line_document(line + ends[lineno - 1], f"{name} line {lineno}", names, dates)
        if doc is not None:
            docs.append(doc)
    return docs


_CSV_COLUMNS = ("id", "date", "text", "tags")

# save_corpus writes texts longer than the csv module's default field limit
# (131,072 characters); this is the largest limit a C long holds everywhere
_CSV_FIELD_LIMIT = 2**31 - 1


def _load_csv(path: Path) -> list[Document]:
    docs, names, dates = [], {}, {}
    # the limit is process-wide, so it is raised for this read only
    old_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
    try:
        with open_text(path, CorpusError, "corpus file") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in _CSV_COLUMNS if c not in header]
            if missing:
                raise CorpusError(f"{path.name}: header missing column(s) {', '.join(missing)}")
            for record in reader:  # a new dict per row, so its tags are split in place
                record["tags"] = [t for t in (record["tags"] or "").split(";") if t.strip()]
                docs.append(_make_document(record, f"{path.name} line {reader.line_num}", names, dates))
    except csv.Error as exc:
        # only reading raises it, so reader exists; DictReader.line_num lags
        # on a failed row, its inner reader's does not
        raise CorpusError(f"{path.name} line {reader.reader.line_num}: malformed CSV ({exc})") from None
    finally:
        csv.field_size_limit(old_limit)
    return docs


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus from a CSV file (suffix ``.csv``, any case) or else JSONL.

    Record order is preserved; tags come back case-folded and deduplicated
    per document.
    """
    path = Path(path)
    docs = _load_csv(path) if path.suffix.lower() == ".csv" else _load_jsonl(path)
    return Corpus(documents=tuple(docs))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize a corpus, as CSV or JSONL by suffix; the output loads back to an equal Corpus."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = [_CSV_COLUMNS]
        for doc in corpus.documents:
            bad = [t for t in doc.tags if ";" in t]
            if bad:
                raise CorpusError(f"document {doc.id!r}: tag {bad[0]!r} contains ';', not representable in CSV")
            row = [doc.id, doc.date.isoformat(), doc.text, ";".join(doc.tags)]
            # the csv reader of Python 3.10 rejects NUL, so no version may write it
            nul = [column for column, value in zip(_CSV_COLUMNS, row) if "\x00" in value]
            if nul:
                raise CorpusError(f"document {doc.id!r}: {nul[0]} contains a NUL character, not representable in CSV")
            rows.append(row)
        write_csv(path, rows)
    else:
        # json.dumps(record, ensure_ascii=False) of each record, in its layout, from its string encoder
        string = json.encoder.encode_basestring
        atomic_write_text(path, "".join(
            f'{{"id": {string(d.id)}, "date": "{d.date.isoformat()}", "text": {string(d.text)}, '
            f'"tags": [{", ".join(map(string, d.tags))}]}}\n'
            for d in corpus.documents
        ))


def window_filter(corpus: Corpus, window: TimeWindow) -> Corpus:
    """Documents with start <= date < end, in original order."""
    kept = tuple(doc for doc in corpus.documents if window.contains(doc.date))
    return Corpus(documents=kept)


def window_from_record(record: object, where: str, error: type[Exception] = CorpusError) -> TimeWindow:
    """A window from a {"start", "end", "label"} record; a time of day in a date is dropped."""
    if not isinstance(record, dict) or "start" not in record or "end" not in record:
        raise error(f"{where} needs 'start' and 'end'")
    for field in ("start", "end", "label"):
        value = record.get(field, "")
        if not isinstance(value, str):
            raise error(f"{where}: {field!r} must be a string, got {value!r}")
    try:
        return TimeWindow(parse_date(record["start"]), parse_date(record["end"]), record.get("label", ""))
    except CorpusError as exc:
        raise error(f"{where}: {exc}") from None


def load_windows(path: str | Path) -> list[TimeWindow]:
    """Load a JSON array of {"start", "end", "label"} window records."""
    path = Path(path)
    raw = read_json(path, CorpusError, "windows file")
    if not isinstance(raw, list):
        raise CorpusError(f"{path.name}: expected a JSON array of window records")
    return [window_from_record(rec, f"{path.name}: window {i}") for i, rec in enumerate(raw)]

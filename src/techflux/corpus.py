"""Document collections: loading, validation, serialization, time-windowing.

A corpus is an immutable, ordered list of dated documents. Two on-disk
formats are supported:

* JSONL: one object per line with fields ``id`` (string), ``date``
  ("YYYY-MM-DD"), ``text`` (string), ``tags`` (array of strings).
* CSV: header ``id,date,text,tags`` with ``;``-separated tags, UTF-8,
  RFC-4180 quoting.

Tags are normalized on load: Unicode case-fold, trim, internal whitespace
collapsed to single spaces, duplicates dropped (first occurrence wins).
Dates with a time component are truncated to the day.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusError
from .fileio import atomic_write_text, has_lone_surrogate, open_text, read_json, write_csv


def normalize_tag(raw: str) -> str:
    """Case-fold, trim, and collapse internal whitespace to single spaces."""
    return " ".join(raw.casefold().split())


def normalize_tags(raw_tags: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """Normalize and deduplicate tags, preserving first-occurrence order."""
    seen: dict[str, None] = {}
    for raw in raw_tags:
        tag = normalize_tag(str(raw))
        if tag and tag not in seen:
            seen[tag] = None
    return tuple(seen)


def parse_date(raw: str) -> dt.date:
    """Parse an ISO-8601 date, truncating any time component to the day."""
    raw = raw.strip()
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        pass
    try:
        return dt.datetime.fromisoformat(raw).date()
    except ValueError:
        raise CorpusError(f"invalid ISO-8601 date: {raw!r}") from None


@dataclass(frozen=True)
class Document:
    """One dated article with free text and author-assigned tags."""

    id: str
    date: dt.date
    text: str = ""
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("document id must be nonempty")
        if not isinstance(self.date, dt.date):
            raise CorpusError(f"document {self.id!r}: date must be a date, got {type(self.date).__name__}")


@dataclass(frozen=True)
class TimeWindow:
    """Half-open date interval [start, end)."""

    start: dt.date
    end: dt.date
    label: str = ""

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise CorpusError(f"window {self.describe()}: start must precede end")

    def describe(self) -> str:
        return self.label or f"[{self.start.isoformat()},{self.end.isoformat()})"

    def contains(self, date: dt.date) -> bool:
        return self.start <= date < self.end

    @classmethod
    def parse(cls, spec: str, label: str = "") -> "TimeWindow":
        """Parse a "START:END" string of ISO dates."""
        parts = spec.split(":")
        if len(parts) != 2:
            raise CorpusError(f"window spec must be START:END, got {spec!r}")
        return cls(parse_date(parts[0]), parse_date(parts[1]), label)


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered document collection."""

    documents: tuple[Document, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)


def _make_document(record: dict, where: str) -> Document:
    for field_name in ("id", "date"):
        if record.get(field_name) in (None, ""):
            raise CorpusError(f"{where}: missing field {field_name!r}")
    if "text" not in record and "tags" not in record:
        raise CorpusError(f"{where}: record needs at least one of 'text'/'tags'")
    tags = record.get("tags") or []
    if not isinstance(tags, (list, tuple)):
        raise CorpusError(f"{where}: field 'tags' must be a list")
    try:
        date = parse_date(str(record["date"]))
    except CorpusError as exc:
        raise CorpusError(f"{where}: field 'date': {exc}") from None
    return Document(
        id=str(record["id"]),
        date=date,
        text=str(record.get("text") or ""),
        tags=normalize_tags(tags),
    )


def _load_jsonl(path: Path) -> list[Document]:
    docs = []
    with open_text(path, CorpusError, "corpus file") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name} line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: record must be a JSON object")
            if has_lone_surrogate(line, record):
                raise CorpusError(f"{where}: lone surrogate escape, not valid text")
            docs.append(_make_document(record, where))
    return docs


_CSV_COLUMNS = ("id", "date", "text", "tags")

# save_corpus writes texts longer than the csv module's default field limit
# (131,072 characters); this is the largest limit a C long holds everywhere
_CSV_FIELD_LIMIT = 2**31 - 1


def _load_csv(path: Path) -> list[Document]:
    docs = []
    # the limit is process-wide, so it is raised for this read only
    old_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
    try:
        with open_text(path, CorpusError, "corpus file") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in _CSV_COLUMNS if c not in header]
            if missing:
                raise CorpusError(f"{path.name}: header missing column(s) {', '.join(missing)}")
            for record in reader:
                where = f"{path.name} line {reader.line_num}"
                raw_tags = record.get("tags") or ""
                tags = [t for t in raw_tags.split(";") if t.strip()]
                docs.append(_make_document({**record, "tags": tags}, where))
    except csv.Error as exc:
        # only reading raises it, so reader exists; DictReader.line_num lags
        # on a failed row, its inner reader's does not
        raise CorpusError(f"{path.name} line {reader.reader.line_num}: malformed CSV ({exc})") from None
    finally:
        csv.field_size_limit(old_limit)
    return docs


def load_corpus(path: str | Path, format: str | None = None) -> Corpus:
    """Load a corpus from a JSONL or CSV file.

    ``format`` is inferred from the file suffix when omitted. Record order is
    preserved; tags come back case-folded and deduplicated per document.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format == "jsonl":
        docs = _load_jsonl(path)
    elif format == "csv":
        docs = _load_csv(path)
    else:
        raise CorpusError(f"unknown corpus format: {format!r} (expected jsonl or csv)")
    return Corpus(documents=tuple(docs))


def save_corpus(corpus: Corpus, path: str | Path, format: str | None = None) -> None:
    """Serialize a corpus; the output loads back to an equal Corpus."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format == "jsonl":
        records = ({"id": d.id, "date": d.date.isoformat(), "text": d.text, "tags": list(d.tags)} for d in corpus.documents)
        atomic_write_text(path, "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records))
    elif format == "csv":
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
        raise CorpusError(f"unknown corpus format: {format!r} (expected jsonl or csv)")


def window_filter(corpus: Corpus, window: TimeWindow) -> Corpus:
    """Documents with start <= date < end, in original order."""
    kept = tuple(doc for doc in corpus.documents if window.contains(doc.date))
    return Corpus(documents=kept)


def window_from_record(record: object, where: str) -> TimeWindow:
    """A window from a {"start", "end", "label"} record; a time of day in a date is dropped."""
    if not isinstance(record, dict) or "start" not in record or "end" not in record:
        raise CorpusError(f"{where} needs 'start' and 'end'")
    return TimeWindow(parse_date(str(record["start"])), parse_date(str(record["end"])), str(record.get("label", "")))


def load_windows(path: str | Path) -> list[TimeWindow]:
    """Load a JSON array of {"start", "end", "label"} window records."""
    path = Path(path)
    raw = read_json(path, CorpusError, "windows file")
    if not isinstance(raw, list):
        raise CorpusError(f"{path.name}: expected a JSON array of window records")
    return [window_from_record(rec, f"{path.name}: window {i}") for i, rec in enumerate(raw)]

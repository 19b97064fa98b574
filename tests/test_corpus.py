import csv
import datetime as dt
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techflux import corpus as corpus_module
from techflux.corpus import (
    Corpus,
    Document,
    TimeWindow,
    load_corpus,
    load_windows,
    normalize_tag,
    parse_date,
    save_corpus,
    window_filter,
)
from techflux.errors import CorpusError

from oracles import load_csv_reference, load_jsonl_reference, normalize_tags_reference


def test_normalize_tag_casefolds_and_collapses_whitespace():
    assert normalize_tag("  Machine   Learning ") == "machine learning"
    assert normalize_tag("IoT") == "iot"
    assert normalize_tag("straße") == "strasse"


def test_normalize_tags_dedups_keeping_first_occurrence(tmp_path):
    # a load keeps each normalized tag where its first raw form stands, in both formats
    raw_tags = [["AI", "ai", "Big Data", "AI "], ["big  DATA", "ml", "AI", "Ml"]]
    for path in (tmp_path / "c.jsonl", tmp_path / "c.csv"):
        if path.suffix == ".csv":
            path.write_text("id,date,text,tags\n" + "".join(f"d{i},2020-01-01,,{';'.join(tags)}\n" for i, tags in enumerate(raw_tags)),
                            encoding="utf-8")
        else:
            path.write_text("".join(json.dumps({"id": f"d{i}", "date": "2020-01-01", "tags": tags}) + "\n"
                                    for i, tags in enumerate(raw_tags)), encoding="utf-8")
        assert [doc.tags for doc in load_corpus(path).documents] == [("ai", "big data"), ("big data", "ml", "ai")]


def test_parse_date_accepts_iso_and_truncates_time():
    assert parse_date("2020-03-15") == dt.date(2020, 3, 15)
    assert parse_date("2020-03-15T10:30:00") == dt.date(2020, 3, 15)


def test_parse_date_rejects_garbage():
    with pytest.raises(CorpusError):
        parse_date("15/03/2020")
    with pytest.raises(CorpusError):
        parse_date("not a date")


@pytest.mark.parametrize("raw", [
    "2020-03-15 10:30",
    "2020-03-15T10:30:59",
    "2020-03-15T10:30:59.5",
    "2020-03-15T10:30:59.123456",
    "2020-03-15T23:59Z",
    "2020-03-15T10:30:00+02:00",
    "2020-03-15 10:30-23:59",
])
def test_parse_date_takes_each_time_of_day_form(raw):
    assert parse_date(raw) == dt.date(2020, 3, 15)


@pytest.mark.parametrize("raw", [
    "20200315",  # basic date
    "2020-W11-7",  # week date
    "2020W117",
    "2020-03-15x10:30",  # separators other than T and space
    "2020-03-15:10",
    "2020-03-15t10:30",
    "2020-03-15T10",  # hour without minutes
    "2020-03-15T1030",
    "2020-03-15T24:00",  # out of range
    "2020-03-15T10:60",
    "2020-03-15T10:30:60",
    "2020-03-15T10:30:00.1234567",
    "2020-03-15T10:30+0200",
    "2020-03-15T10:30+24:00",
    "2020-03-15T10:30z",
    "２０２０-03-15",  # non-ASCII digits
    "2020-03-15T1０:30",
])
def test_parse_date_rejects_other_forms(raw):
    with pytest.raises(CorpusError, match="invalid ISO-8601 date"):
        parse_date(raw)


def test_window_spec_takes_no_colon_between_date_and_time():
    with pytest.raises(CorpusError, match="one valid cut"):
        TimeWindow.parse("2021-01-01:10:2021-02-01")


def test_document_requires_id_and_date():
    with pytest.raises(CorpusError):
        Document(id="", date=dt.date(2020, 1, 1))
    with pytest.raises(CorpusError):
        Document(id="d1", date="2020-01-01")


def test_window_is_half_open():
    w = TimeWindow(dt.date(2020, 1, 1), dt.date(2020, 2, 1))
    assert w.contains(dt.date(2020, 1, 1))
    assert w.contains(dt.date(2020, 1, 31))
    assert not w.contains(dt.date(2020, 2, 1))
    assert not w.contains(dt.date(2019, 12, 31))


def test_window_rejects_inverted_range():
    with pytest.raises(CorpusError):
        TimeWindow(dt.date(2020, 2, 1), dt.date(2020, 1, 1))
    with pytest.raises(CorpusError):
        TimeWindow(dt.date(2020, 1, 1), dt.date(2020, 1, 1))


def test_window_parse_roundtrip():
    w = TimeWindow.parse("2019-01-01:2019-07-01", label="h1")
    assert w.start == dt.date(2019, 1, 1)
    assert w.end == dt.date(2019, 7, 1)
    assert w.describe() == "h1"
    anon = TimeWindow.parse("2019-01-01:2019-07-01")
    assert anon.describe() == "[2019-01-01,2019-07-01)"
    with pytest.raises(CorpusError):
        TimeWindow.parse("2019-01-01")


def test_corpus_rejects_duplicate_ids():
    d = Document(id="a", date=dt.date(2020, 1, 1), tags=("x",))
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(documents=(d, d))


def _sample_docs():
    return (
        Document(id="d1", date=dt.date(2019, 5, 1), text="Edge AI on devices", tags=("ai", "edge computing")),
        Document(id="d2", date=dt.date(2019, 8, 15), text="", tags=("blockchain",)),
        Document(id="d3", date=dt.date(2020, 2, 10), text="5G rollout", tags=()),
    )


def test_jsonl_roundtrip(tmp_path):
    corpus = Corpus(documents=_sample_docs())
    path = tmp_path / "sample.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.documents == corpus.documents


def test_csv_roundtrip(tmp_path):
    corpus = Corpus(documents=_sample_docs())
    path = tmp_path / "sample.csv"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.documents == corpus.documents


def test_csv_rejects_semicolon_in_tag(tmp_path):
    doc = Document(id="d", date=dt.date(2020, 1, 1), tags=("a;b",))
    with pytest.raises(CorpusError, match="';'"):
        save_corpus(Corpus(documents=(doc,)), tmp_path / "bad.csv")


# any text with a run of the characters the two formats must quote, escape
# or keep apart, and of non-ASCII ones, in the middle
_ANY = st.characters(blacklist_categories=("Cs",))
_AWKWARD = ",;\"'\n\r\t éßİı中\u2028\x00"
_TEXT = st.tuples(st.text(_ANY, max_size=8), st.text(_AWKWARD, max_size=6), st.text(_ANY, max_size=6)).map("".join)


@st.composite
def saved_corpora(draw):
    ids = draw(st.lists(_TEXT.filter(bool), max_size=4, unique=True))
    return Corpus(tuple(
        Document(
            id=doc_id,
            date=draw(st.dates()),
            text=draw(_TEXT),
            tags=normalize_tags_reference(draw(st.lists(_TEXT, max_size=3))),
        )
        for doc_id in ids
    ))


@settings(deadline=None)
@given(saved_corpora(), st.sampled_from(["jsonl", "csv"]))
def test_save_load_roundtrip_property(corpus, fmt):
    def csv_error(doc):
        if any(";" in tag for tag in doc.tags):
            return "tag .* ';'"
        nul = [column for column, value in (("id", doc.id), ("text", doc.text), ("tags", "".join(doc.tags)))
               if "\x00" in value]
        return f"{nul[0]} contains a NUL character" if nul else None

    unwritable = [(doc.id, csv_error(doc)) for doc in corpus.documents if csv_error(doc)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"corpus.{fmt}"
        if fmt == "csv" and unwritable:
            doc_id, message = unwritable[0]
            with pytest.raises(CorpusError, match=f"document {re.escape(repr(doc_id))}: {message}"):
                save_corpus(corpus, path)
            assert not path.exists()
            return
        save_corpus(corpus, path)
        assert load_corpus(path).documents == corpus.documents


# what JSON escapes or keeps: quotes, backslashes, control characters, the
# line separators JSON leaves raw, non-ASCII and astral characters
_JSON_TEXT = st.tuples(_TEXT, st.text(st.sampled_from('"\\/\b\f\x01\x1f\x7f é\U0001f600'), max_size=6)).map("".join)


@st.composite
def json_corpora(draw):
    ids = draw(st.lists(_JSON_TEXT.filter(bool), max_size=4, unique=True))
    return Corpus(tuple(
        Document(id=doc_id, date=draw(st.dates()), text=draw(_JSON_TEXT),
                 tags=normalize_tags_reference(draw(st.lists(_JSON_TEXT, max_size=3))))
        for doc_id in ids
    ))


@settings(deadline=None)
@given(json_corpora())
def test_jsonl_bytes_equal_json_dumps_per_record(corpus):
    expected = "".join(
        json.dumps({"id": d.id, "date": d.date.isoformat(), "text": d.text, "tags": list(d.tags)}, ensure_ascii=False) + "\n"
        for d in corpus.documents
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, path)
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_text_longer_than_the_csv_default_field_limit_roundtrips(tmp_path, fmt):
    long_text = "quantum, sensing; " * 8_333 + "edge AI"
    assert len(long_text) > 150_000
    corpus = Corpus(documents=(Document(id="long", date=dt.date(2020, 1, 1), text=long_text, tags=("ai",)),) + _sample_docs())
    path = tmp_path / f"long.{fmt}"
    default_limit = csv.field_size_limit()
    save_corpus(corpus, path)
    assert load_corpus(path).documents == corpus.documents
    assert csv.field_size_limit() == default_limit


def test_csv_error_names_file_and_line_and_restores_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr("techflux.corpus._CSV_FIELD_LIMIT", 100)
    path = tmp_path / "wide.csv"
    path.write_text("id,date,text,tags\nd1,2020-01-01,short,ai\nd2,2020-01-02," + "x" * 101 + ",ai\n", encoding="utf-8")
    default_limit = csv.field_size_limit()
    with pytest.raises(CorpusError, match=r"^wide\.csv line 3: malformed CSV \(field larger than field limit \(100\)\)$"):
        load_corpus(path)
    assert csv.field_size_limit() == default_limit


def test_load_normalizes_tags(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "d1", "date": "2020-01-01", "tags": ["Big  Data", "BIG DATA", "ml"]}) + "\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert corpus.documents[0].tags == ("big data", "ml")


def test_load_reports_missing_field_with_location(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "d1", "date": "2020-01-01", "tags": []}\n{"date": "2020-01-02", "tags": []}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"c\.jsonl line 2: missing field 'id'"):
        load_corpus(path)


@pytest.mark.parametrize("field,value,message", [
    ("id", {"x": 1}, "field 'id' must be a nonempty string or an integer, got {'x': 1}"),
    ("id", True, "field 'id' must be a nonempty string or an integer, got True"),
    ("id", 1.5, "field 'id' must be a nonempty string or an integer, got 1.5"),
    ("text", ["ai"], "field 'text' must be a string or null, got ['ai']"),
    ("text", 5, "field 'text' must be a string or null, got 5"),
    ("tags", [None, 5], "field 'tags' must hold only strings, got None"),
    ("tags", ["ai", 5], "field 'tags' must hold only strings, got 5"),
    ("tags", ["ai", ["ml"]], "field 'tags' must hold only strings, got ['ml']"),
    ("tags", [{"ai": 1}], "field 'tags' must hold only strings, got {'ai': 1}"),
    ("tags", "", "field 'tags' must be a list"),
    ("tags", 0, "field 'tags' must be a list"),
])
def test_load_type_checks_each_jsonl_field(tmp_path, field, value, message):
    good = {"id": "d1", "date": "2021-01-01", "text": "ai", "tags": ["ai"]}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "d2", field: value}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape('c.jsonl line 2: ' + message)}$"):
        load_corpus(path)


_RAW_TAGS = st.sampled_from(["AI", "ai", " ai ", "Big  Data", "big data", "BIG\tDATA", "", "  ", "Straße", "STRASSE", "İ", "ı"])


@settings(deadline=None)
@given(st.lists(st.lists(_RAW_TAGS, max_size=6), min_size=1, max_size=8))
def test_load_normalizes_repeated_raw_tags_one_by_one(raw_tag_lists):
    # one load normalizes each distinct raw tag once; every document must still get its own tags
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"d{i}", "date": "2021-01-01", "tags": tags}) + "\n" for i, tags in enumerate(raw_tag_lists)
        ), encoding="utf-8")
        loaded = load_corpus(path)
    assert [doc.tags for doc in loaded.documents] == [normalize_tags_reference(tags) for tags in raw_tag_lists]


# plain, with a time of day, with an offset, with surrounding spaces
_DATE_FORMS = ["2021-01-05", "2021-01-05T10:30", "2021-01-06 23:59:59.5+02:00", "2021-01-07T08:00Z", "  2021-01-05  "]


def _write_dated(path, dates):
    if path.suffix == ".csv":
        path.write_text("id,date,text,tags\n" + "".join(f'd{i},"{date}",,ai\n' for i, date in enumerate(dates)), encoding="utf-8")
    else:
        path.write_text("".join(json.dumps({"id": f"d{i}", "date": date, "tags": ["ai"]}) + "\n" for i, date in enumerate(dates)),
                        encoding="utf-8")


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_load_parses_repeated_dates_one_by_one(tmp_path, suffix):
    # one load parses each distinct raw date once; every record must still get its own date
    dates = _DATE_FORMS * 3
    path = tmp_path / f"c{suffix}"
    _write_dated(path, dates)
    assert [doc.date for doc in load_corpus(path).documents] == [parse_date(date) for date in dates]


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_a_bad_date_after_repeated_ones_names_its_own_line(tmp_path, suffix):
    # line 1 is the CSV header, so record i is on line i + 2 there and i + 1 in JSONL
    path = tmp_path / f"c{suffix}"
    _write_dated(path, _DATE_FORMS * 2 + ["2021-01-05T24:00", "2021-01-05T24:00"])
    line = len(_DATE_FORMS) * 2 + (2 if suffix == ".csv" else 1)
    message = f"c{suffix} line {line}: field 'date': invalid ISO-8601 date: '2021-01-05T24:00'"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        load_corpus(path)


def test_load_takes_an_integer_id_and_null_text_and_tags(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": 7, "date": "2021-01-01", "text": None, "tags": None}) + "\n", encoding="utf-8")
    assert load_corpus(path).documents == (Document(id="7", date=dt.date(2021, 1, 1), text="", tags=()),)


def test_load_reports_bad_json_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "d1", "date": "2020-01-01", "tags": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_load_reports_the_line_of_bytes_that_are_not_utf8(tmp_path, suffix):
    corpus = Corpus(documents=tuple(
        Document(id=f"d{i}", date=dt.date(2020, 1, 1), text="x" * 40, tags=("ai",)) for i in range(3000)
    ))
    path = tmp_path / f"c{suffix}"
    save_corpus(corpus, path)
    lines = path.read_bytes().splitlines(keepends=True)
    # past the first read buffer, so the line read when decoding fails is an earlier one
    lines[2500] = lines[2500].replace(b"x" * 40, "caf\u00e9".encode("latin-1"))
    path.write_bytes(b"".join(lines))
    with pytest.raises(CorpusError, match=rf"^c\{suffix} line 2501: not valid UTF-8$"):
        load_corpus(path)


def test_jsonl_bytes_that_are_not_utf8_are_reported_before_any_record(tmp_path):
    # the whole file is decoded before its first line is read, so a bad record
    # on line 2 does not hide bad bytes far past the first read buffer
    lines = [json.dumps({"id": f"d{i}", "date": "2020-01-01", "text": "x" * 40}).encode() for i in range(3000)]
    lines[1] = b"not json"
    lines[2500] = lines[2500].replace(b"x" * 40, "caf\u00e9".encode("latin-1"))
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CorpusError, match=r"^c\.jsonl line 2501: not valid UTF-8$"):
        load_corpus(path)


def test_load_rejects_a_lone_surrogate_and_keeps_a_pair(tmp_path):
    path = tmp_path / "c.jsonl"
    good = r'{"id": "d1", "date": "2020-01-01", "tags": ["\ud83d\ude80 launch", "\\ud800"]}'
    path.write_text(good + "\n", encoding="utf-8")
    assert load_corpus(path).documents[0].tags == ("\U0001f680 launch", "\\ud800")
    path.write_text(good + "\n" + r'{"id": "d2", "date": "2020-01-01", "tags": ["bad\ud800tag"]}' + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"^c\.jsonl line 2: lone surrogate escape, not valid text$"):
        load_corpus(path)


def test_load_reads_crlf_line_ends(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id": "d1", "date": "2020-01-01", "tags": ["ai"]}\r\n\r\n{"id": "d2", "date": "2020-01-02"}\r\n')
    with pytest.raises(CorpusError, match=r"^c\.jsonl line 3: record needs at least one of"):
        load_corpus(path)
    path.write_bytes(path.read_bytes().replace(b'"2020-01-02"}', b'"2020-01-02", "text": "x"}'))
    assert [doc.id for doc in load_corpus(path).documents] == ["d1", "d2"]


# The one-pass loader against the per-line reference. Each line is a record
# in one of these shapes, regular or not; ids from a small set repeat.
_RECORD_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
_RAW_TAG = st.one_of(_RAW_TAGS, _RECORD_TEXT)


def _dumped(record, ensure_ascii=False, **raw):
    """record as one JSON line, with each placeholder string value of raw put in unescaped."""
    line = json.dumps(record, ensure_ascii=ensure_ascii)
    for placeholder, value in raw.items():
        line = line.replace(placeholder, value)
    return line


_SHAPES = {
    "regular": lambda r: _dumped(r),
    "ascii-escaped": lambda r: _dumped(r, ensure_ascii=True),
    "surrogate pair": lambda r: _dumped({**r, "text": r["text"] + "\U0001f680"}, ensure_ascii=True),
    "raw separators in text": lambda r: _dumped({**r, "text": "a\u2028b\x85c"}),
    "raw control in text": lambda r: _dumped({**r, "text": "CTRL"}, CTRL="a\x0cb\x1cc"),
    "lone surrogate": lambda r: _dumped({**r, "text": "LONE"}, LONE="\\ud800"),
    "leading spaces": lambda r: "  " + _dumped(r),
    "trailing spaces": lambda r: _dumped(r) + " \t",
    "integer id": lambda r: _dumped({**r, "id": len(r["id"])}),
    "null text and tags": lambda r: _dumped({**r, "text": None, "tags": None}),
    "no text or tags": lambda r: _dumped({"id": r["id"], "date": r["date"]}),
    "tag not a string": lambda r: _dumped({**r, "tags": r["tags"] + [7]}),
    "bad date": lambda r: _dumped({**r, "date": "2021-02-30"}),
    "empty date": lambda r: _dumped({**r, "date": ""}),
    "truncated": lambda r: _dumped(r)[:-1],
    "two objects": lambda r: _dumped(r) + _dumped(r),
    "not an object": lambda r: _dumped([r]),
    "blank": lambda r: "",
    "whitespace": lambda r: " \t\x0c\u2028",
}


def _csv_row(record, **changes):
    """record as one CSV row without its end, each field in changes replaced; a field changed to None is left out."""
    fields = {**record, "tags": ";".join(record["tags"]), **changes}
    out = io.StringIO()
    csv.writer(out).writerow([fields[c] for c in ("id", "date", "text", "tags") if fields[c] is not None])
    return out.getvalue()[:-2]  # without the writer's "\r\n"


# the shapes of _SHAPES that a CSV row can carry: every CSV field is a string
# or missing, and UTF-8 holds no lone surrogate
_CSV_SHAPES = {
    "regular": lambda r: _csv_row(r),
    "surrogate pair": lambda r: _csv_row(r, text=r["text"] + "\U0001f680"),
    "raw separators in text": lambda r: _csv_row(r, text="a\u2028b\x85c"),
    "raw control in text": lambda r: _csv_row(r, text="a\x0cb\x1cc"),
    "leading spaces": lambda r: "  " + _csv_row(r),
    "trailing spaces": lambda r: _csv_row(r) + " \t",
    "integer id": lambda r: _csv_row(r, id=len(r["id"])),
    "null text and tags": lambda r: _csv_row(r, text="", tags=""),
    "no text or tags": lambda r: _csv_row(r, text=None, tags=None),
    "bad date": lambda r: _csv_row(r, date="2021-02-30"),
    "empty date": lambda r: _csv_row(r, date=""),
    "truncated": lambda r: _csv_row(r)[:-1],
    "two objects": lambda r: _csv_row(r) * 2,
    "blank": lambda r: "",
    "whitespace": lambda r: " \t\x0c\u2028",
}

_RECORDS = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "b", "c", "d", "e", "f", "é", "g h"]),
    "date": st.sampled_from(_DATE_FORMS),
    "text": _RECORD_TEXT,
    "tags": st.lists(_RAW_TAG, max_size=4),
})


def _drawn_file(draw, shapes, header=""):
    """The bytes of a file of header and lines, each a drawn record in a drawn shape of shapes, with a drawn line end."""
    lines = [header] if header else []
    for _ in range(draw(st.integers(0, 8))):
        # regular lines are drawn as often as all the other shapes together
        shape = draw(st.sampled_from(["regular"] * len(shapes) + list(shapes)))
        lines.append(shapes[shape](draw(_RECORDS)) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


@st.composite
def jsonl_files(draw):
    """The bytes of a JSONL file mixing regular lines with every shape the one-pass loader leaves to the per-line path."""
    return _drawn_file(draw, _SHAPES)


@st.composite
def csv_files(draw):
    """The bytes of a CSV file mixing regular rows with every shape of _CSV_SHAPES."""
    return _drawn_file(draw, _CSV_SHAPES, header="id,date,text,tags\n")


def _outcome(load, path):
    try:
        return load(path)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


@settings(deadline=None)
@given(jsonl_files())
def test_load_corpus_matches_the_per_line_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(data)
        loaded = _outcome(load_corpus, path)
        assert loaded == _outcome(load_jsonl_reference, path)
    if isinstance(loaded, Corpus):
        assert all(type(doc) is Document for doc in loaded.documents)


@settings(deadline=None)
@given(csv_files())
def test_load_corpus_matches_the_csv_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        path.write_bytes(data)
        loaded = _outcome(load_corpus, path)
        assert loaded == _outcome(load_csv_reference, path)
    if isinstance(loaded, Corpus):
        assert all(type(doc) is Document for doc in loaded.documents)


def _count_line_reads(monkeypatch):
    calls, real = [], corpus_module._line_document

    def counting(line, where, names, dates):
        calls.append(where)
        return real(line, where, names, dates)

    monkeypatch.setattr(corpus_module, "_line_document", counting)
    return calls


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_a_regular_corpus_sends_no_line_to_the_per_line_path(tmp_path, monkeypatch, line_end):
    # non-ASCII and line separators in text, raw tags that normalize alike or to nothing, repeated dates
    corpus = Corpus(tuple(
        Document(id=f"d{i}", date=dt.date(2021, 1, 1 + i % 7), text=f"caf\u00e9 {i}\u2028\x85\U0001f680",
                 tags=normalize_tags_reference(["AI", " ai ", "Big  Data", "  ", f"t{i % 5}"][: 1 + i % 5]))
        for i in range(60)
    ))
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
    calls = _count_line_reads(monkeypatch)
    assert load_corpus(path) == corpus == load_jsonl_reference(path)
    assert calls == []
    # a blank line in the middle is the one line the per-line path reads
    lines = path.read_bytes().split(line_end.encode())
    path.write_bytes(line_end.encode().join(lines[:30] + [b""] + lines[30:]))
    assert load_corpus(path) == corpus
    assert calls == ["c.jsonl line 31"]


def test_load_missing_file():
    with pytest.raises(CorpusError, match="not found"):
        load_corpus("/nonexistent/corpus.jsonl")


def test_load_csv_requires_columns(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,date\nd1,2020-01-01\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="missing column"):
        load_corpus(path)


def test_format_inferred_from_suffix(tmp_path):
    corpus = Corpus(documents=_sample_docs())
    for name, first_line in (("a.jsonl", '{"id": "d1"'), ("a.data", '{"id": "d1"'), ("a.CSV", "id,date,text,tags")):
        path = tmp_path / name
        save_corpus(corpus, path)
        assert path.read_text(encoding="utf-8").startswith(first_line)
        assert load_corpus(path).documents == corpus.documents


def test_window_filter_keeps_order_and_bounds():
    corpus = Corpus(documents=_sample_docs())
    window = TimeWindow(dt.date(2019, 1, 1), dt.date(2020, 1, 1))
    kept = window_filter(corpus, window)
    assert [d.id for d in kept.documents] == ["d1", "d2"]
    empty = window_filter(corpus, TimeWindow(dt.date(2030, 1, 1), dt.date(2031, 1, 1)))
    assert len(empty) == 0


def test_load_windows(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([
        {"start": "2019-01-01", "end": "2019-04-01", "label": "q1"},
        {"start": "2019-04-01", "end": "2019-07-01"},
    ]), encoding="utf-8")
    windows = load_windows(path)
    assert len(windows) == 2
    assert windows[0].label == "q1"
    assert windows[1].start == dt.date(2019, 4, 1)


def test_load_windows_rejects_bad_record(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([{"start": "2019-01-01"}]), encoding="utf-8")
    with pytest.raises(CorpusError, match="window 0"):
        load_windows(path)


@pytest.mark.parametrize("field, value", [("start", 20190101), ("end", None), ("label", None), ("label", 7)])
def test_load_windows_requires_string_fields(tmp_path, field, value):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([{"start": "2019-01-01", "end": "2019-04-01", field: value}]), encoding="utf-8")
    message = f"w.json: window 0: {field!r} must be a string, got {value!r}"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        load_windows(path)


def test_window_records_truncate_datetimes_to_the_day(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([{"start": "2021-01-01T00:00:00", "end": "2021-02-01T12:30:00", "label": "jan"}]), encoding="utf-8")
    assert load_windows(path) == [TimeWindow(dt.date(2021, 1, 1), dt.date(2021, 2, 1), "jan")]

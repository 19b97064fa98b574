import os
import re

import pytest

from techflux import fileio
from techflux.fileio import atomic_write_bytes, atomic_write_text, read_json, read_text, write_csv, write_json


def test_write_replaces_content_with_default_mode(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first\n")
    atomic_write_text(target, "second ✓\n")
    assert target.read_bytes() == "second ✓\n".encode("utf-8")
    umask = os.umask(0o022)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["out.txt"]


def test_mode_follows_a_strict_umask_without_touching_it(tmp_path, monkeypatch):
    old = os.umask(0o077)
    try:
        def no_umask(mask):
            raise AssertionError("umask changed during a write")

        monkeypatch.setattr(fileio.os, "umask", no_umask)
        atomic_write_text(tmp_path / "private.txt", "x\n")
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert (tmp_path / "private.txt").stat().st_mode & 0o777 == 0o600


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"data")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_writes_to_one_path_use_distinct_temp_files(tmp_path, monkeypatch):
    real_replace = os.replace
    sources = []

    def recording_replace(src, dst):
        sources.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", recording_replace)
    atomic_write_text(tmp_path / "same.csv", "a\n")
    atomic_write_text(tmp_path / "same.csv", "b\n")
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
    assert (tmp_path / "same.csv").read_text(encoding="utf-8") == "b\n"


class InputError(ValueError):
    pass


def test_read_errors_name_the_file(tmp_path):
    missing = tmp_path / "absent.txt"
    with pytest.raises(InputError, match=f"^cannot read terms file {re.escape(str(missing))}: file not found$"):
        read_text(missing, InputError, "terms file")
    with pytest.raises(InputError, match=f"^cannot read terms file {re.escape(str(tmp_path))}: Is a directory$"):
        read_text(tmp_path, InputError, "terms file")
    # far past the first read buffer, so the line is not the one being read
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"[\n" + b'"ok",\n' * 5000 + "\"caf\u00e9\"]\n".encode("latin-1"))
    with pytest.raises(InputError, match="^latin.json line 5002: not valid UTF-8$"):
        read_json(latin, InputError, "windows file")
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "a": 1,\n}\n', encoding="utf-8")
    with pytest.raises(InputError, match=r"^windows file .*broken\.json: invalid JSON \(.*, line 3\)$"):
        read_json(broken, InputError, "windows file")


@pytest.mark.parametrize("escaped,value", [
    (r'"\ud83d\ude80"', "\U0001f680"),  # a surrogate pair is one character
    (r'"\\ud800"', "\\ud800"),  # an escaped backslash, not an escape
    (r'{"\u00e9t\u00e9": 1}', {"été": 1}),
])
def test_read_json_keeps_paired_and_non_surrogate_escapes(tmp_path, escaped, value):
    path = tmp_path / "ok.json"
    path.write_text(escaped, encoding="utf-8")
    assert read_json(path, InputError, "config file") == value


@pytest.mark.parametrize("escaped", [r'["bad\ud800tag"]', r'{"\uDC00": 1}', r'"\ude80\ud83d"'])
def test_read_json_rejects_a_lone_surrogate(tmp_path, escaped):
    path = tmp_path / "lone.json"
    path.write_text(escaped, encoding="utf-8")
    with pytest.raises(InputError, match=r"^config file .*lone\.json: lone surrogate escape, not valid text$"):
        read_json(path, InputError, "config file")


def test_read_json_refuses_nesting_past_the_parsers_limit(tmp_path):
    # just below the parse's limit, the dump that checks for surrogates can still pass it
    path = tmp_path / "deep.json"
    depth = refused = 0
    while refused < 20:
        depth += 1
        path.write_text("[" * depth + r'"\ud83d\ude00"' + "]" * depth, encoding="utf-8")
        try:
            read_json(path, InputError, "config file")
        except InputError as exc:
            assert str(exc) == f"config file {path}: invalid JSON (nested too deeply)"
            refused += 1


def test_writers_go_through_the_atomic_write(tmp_path, monkeypatch):
    # tracing replaces the module-global name, so the writers must look it up
    written = {}
    monkeypatch.setattr(fileio, "atomic_write_text", lambda path, data: written.__setitem__(path.name, data))
    write_json(tmp_path / "a.json", {"term": "café", "n": [1]})
    write_csv(tmp_path / "b.csv", [("label", "r"), ("news, us", 1)])
    write_csv(tmp_path / "c.csv", [("a", 'say "hi"')], lineterminator="\n")
    assert written == {
        "a.json": '{\n  "term": "café",\n  "n": [\n    1\n  ]\n}\n',
        "b.csv": 'label,r\r\n"news, us",1\r\n',
        "c.csv": 'a,"say ""hi"""\n',
    }

import os

import pytest

from techflux import fileio
from techflux.fileio import atomic_write_bytes, atomic_write_text


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
    assert (tmp_path / "same.csv").read_text() == "b\n"

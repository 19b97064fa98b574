"""File formats: how every input is read and every output written.

Inputs are UTF-8, and a leading byte-order mark is dropped. A missing or
unreadable file, bytes that are not UTF-8, malformed JSON or a lone
surrogate escape raise the caller's error class, naming the file. Outputs
are indented UTF-8 JSON or RFC-4180 CSV, written to an exclusive randomly
named temp file in the target directory, fsynced and renamed, so a crash
leaves no half-written file. Each JSON artefact but the graph (which
``cograph`` lays out in the same text itself) is one exporter that builds
its payload and passes it to `write_json`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

# json.loads joins a high and a low surrogate escape into one character and
# keeps any other as a lone surrogate, which no UTF-8 text can hold
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89abcdefABCDEF]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


@contextmanager
def open_text(path: str | Path, error: type[Exception], what: str):
    """A UTF-8 file opened for reading past any byte-order mark; failing to read it raises ``error``, naming it as ``what``."""
    path = Path(path)
    try:
        # line ends are left as written, which the csv module needs and JSON ignores
        with path.open(encoding="utf-8-sig", newline="") as fh:
            yield fh
    except OSError as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror or str(exc)
        raise error(f"cannot read {what} {path}: {reason}") from None
    except UnicodeDecodeError:
        # read back as a surrogate, the first undecodable byte gives its line
        text = path.read_bytes().decode("utf-8", "surrogateescape")
        lineno = text.count("\n", 0, _SURROGATE.search(text).start()) + 1
        raise error(f"{path.name} line {lineno}: not valid UTF-8") from None


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The text of a UTF-8 file, under ``open_text``'s error policy."""
    with open_text(path, error, what) as fh:
        return fh.read()


def has_lone_surrogate(text: str, parsed: object) -> bool:
    """Whether ``parsed``, the value of the JSON ``text``, holds a lone surrogate."""
    # the screen of the raw text is cheap; few texts need the parsed value dumped
    return bool(_SURROGATE_ESCAPE.search(text) and _SURROGATE.search(json.dumps(parsed, ensure_ascii=False)))


def read_json(path: str | Path, error: type[Exception], what: str) -> object:
    """The JSON value of a UTF-8 file, under ``open_text``'s error policy."""
    text = read_text(path, error, what)
    try:
        payload = json.loads(text)
        lone = has_lone_surrogate(text, payload)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path}: invalid JSON ({exc.msg}, line {exc.lineno})") from None
    except ValueError:  # an integer over Python's digit limit for int(str)
        raise error(f"{what} {path}: invalid JSON (integer too long)") from None
    except RecursionError:  # of the parse, or, just below its limit, of the dump that checks surrogates
        raise error(f"{what} {path}: invalid JSON (nested too deeply)") from None
    if lone:
        raise error(f"{what} {path}: lone surrogate escape, not valid text")
    return payload


def json_text(payload: object) -> str:
    """``payload`` as 2-space-indented JSON, non-ASCII kept as is, with a final newline."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` as ``json_text`` lays it out."""
    atomic_write_text(path, json_text(payload))


def write_csv(path: str | Path, rows: Iterable[Iterable[object]], lineterminator: str = "\r\n") -> None:
    """Write CSV rows, quoting only fields that hold a comma, quote or line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator).writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _atomic_write(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 under the caller's umask, as open() gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, data: str) -> None:
    _atomic_write(path, data.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    _atomic_write(path, data)

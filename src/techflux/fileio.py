"""Atomic file writing helpers.

Every artifact the pipeline emits goes through write-temp-then-rename so a
crash never leaves a half-written file behind. The temp file gets a random
name in the target directory and is created exclusively, so concurrent
writers never share one; it is fsynced before the rename and removed if
anything fails.
"""

from __future__ import annotations

import os
from pathlib import Path


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

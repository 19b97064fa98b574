"""Two pure computations at the same time, the second one in a forked child.

``beside(here, there)`` returns ``(here(), there())``. Where a fork is safe,
that is on a system with ``os.fork`` in a process whose ``/proc/self/task``
lists one thread, ``there()`` runs in a forked child while the parent runs
``here()``. The child moves itself off its parent's CPU, if it may run on
another one, sends its result back through a pipe as ``marshal`` bytes and
exits 0, or exits 1 on any error. Both calls must be pure functions of what
the process holds at the fork, and ``there()`` must return a value that
``marshal`` can carry; then the result is the same whether a fork is taken
or not.

When no fork is taken, the fork raises OSError, the child fails or its reply
is short, the parent runs ``there()`` itself, so an error in it raises in the
caller. The child is always reaped; on an exception in the parent,
KeyboardInterrupt included, it is killed first. Under an ignored SIGCHLD the
kernel reaps the child, and only the reply tells whether it succeeded.

Two callers fork, each once per run and neither inside the other:
``synth.generate_corpus`` and ``breakcheck.cluster_windows``. Neither asks
how large its work is; this module alone decides between one process and two.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Callable


def _single_threaded() -> bool:
    """Whether the process has exactly one thread; False where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _current_cpu() -> int:
    """The CPU this single-threaded process runs on, field 39 of /proc/self/stat."""
    with open("/proc/self/stat", "rb") as stat:
        # the fields after the parenthesised command name start at field 3
        return int(stat.read().rsplit(b")", 1)[1].split()[36])


def _fork(there: Callable[[], object]):
    """Start there() in a forked child; (pid, read end of its pipe), or None without a fork."""
    if not hasattr(os, "fork") or not _single_threaded():
        return None
    parent_cpu = _current_cpu()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            # some kernels leave a forked child on its parent's CPU while another idles
            others = os.sched_getaffinity(0) - {parent_cpu}
            if others:
                os.sched_setaffinity(0, others)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(there()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def beside(here: Callable[[], object], there: Callable[[], object]) -> tuple[object, object]:
    """(here(), there()), with there() in a forked child when one is taken."""
    child = _fork(there)
    if child is None:
        return here(), there()
    pid, read_fd = child
    reply = None
    try:
        with open(read_fd, "rb") as pipe:
            mine = here()
            reply = pipe.read()
    finally:
        if reply is None:
            import signal  # only here, so that importing the CLI loads no more modules

            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # already reaped, as under an ignored SIGCHLD
                pass
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # SIGCHLD is ignored: only the reply tells
            status = None
    if status in (0, None):
        try:
            return mine, marshal.loads(reply)
        except (EOFError, ValueError):
            pass
    return mine, there()

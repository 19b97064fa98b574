"""The fallbacks of forked.beside, checked once for each of its callers.

A caller's test class subclasses ForkFallbacks and says how to run the
caller with a fork asked for, how to run it with none, and how to make its
child hang while the parent is interrupted.
"""

import marshal
import os
import signal
import time

import pytest

from techflux import forked

# From Python 3.12 a fork from a process with more threads warns; pytest runs
# with numpy's threads, so the tests that force a fork filter it.
FORK_WARNING = "ignore:This process .* is multi-threaded:DeprecationWarning"


def force_fork(monkeypatch, fork=os.fork):
    """Take the fork even with numpy's threads alive; return the list of forking pids."""
    forks = []

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(forked, "_single_threaded", lambda: True)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_nothing_left(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"), reason="needs fork and /proc")
class ForkFallbacks:
    """Every path through forked.beside gives the in-process result and leaves no child or descriptor."""

    def run(self):
        """repr of the caller's result, on work large enough to ask for a fork."""
        raise NotImplementedError

    def in_process(self):
        """repr of the caller's result on the same work, with no fork asked for."""
        raise NotImplementedError

    def hang_child_and_interrupt_parent(self, monkeypatch):
        """Patch the caller so that its child sleeps and its parent raises KeyboardInterrupt."""
        raise NotImplementedError

    def setup_method(self):
        self.expected = self.in_process()
        self.fds = sorted(os.listdir("/proc/self/fd"))

    @pytest.mark.filterwarnings(FORK_WARNING)
    def test_fork_taken(self, monkeypatch):
        forks = force_fork(monkeypatch)
        assert self.run() == self.expected
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

    def test_fork_raising_oserror(self, monkeypatch):
        def failing_fork():
            raise OSError("fork refused")

        forks = force_fork(monkeypatch, failing_fork)
        assert self.run() == self.expected
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

    def test_fork_missing(self, monkeypatch):
        monkeypatch.setattr(forked, "_single_threaded", lambda: True)
        monkeypatch.delattr(os, "fork")
        assert self.run() == self.expected
        _assert_nothing_left(self.fds)

    @pytest.mark.filterwarnings(FORK_WARNING)
    def test_child_that_fails(self, monkeypatch):
        def failing_dumps(value):
            raise ValueError("no reply")

        forks = force_fork(monkeypatch)
        # the child inherits the patch, so its reply ends in an error
        monkeypatch.setattr(marshal, "dumps", failing_dumps)
        assert self.run() == self.expected
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

    @pytest.mark.filterwarnings(FORK_WARNING)
    def test_child_with_a_short_reply(self, monkeypatch):
        dumps = marshal.dumps
        forks = force_fork(monkeypatch)
        monkeypatch.setattr(marshal, "dumps", lambda value: dumps(value)[:-1])
        assert self.run() == self.expected
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

    @pytest.mark.filterwarnings(FORK_WARNING)
    def test_child_that_exits_nonzero_after_a_complete_reply(self, monkeypatch):
        # the reply loads, but the exit status says it is not the child's result
        dumps, exit_ = marshal.dumps, os._exit
        forks = force_fork(monkeypatch)
        monkeypatch.setattr(marshal, "dumps", lambda value: dumps(type(value)()))
        monkeypatch.setattr(os, "_exit", lambda status: exit_(1))
        assert self.run() == self.expected
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

    @pytest.mark.filterwarnings(FORK_WARNING)
    def test_ignored_sigchld(self, monkeypatch):
        # the kernel reaps the child itself, so waitpid finds none
        forks = force_fork(monkeypatch)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            got = self.run()
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert got == self.expected
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

    @pytest.mark.filterwarnings(FORK_WARNING)
    def test_interrupt_kills_and_reaps_the_child(self, monkeypatch):
        forks = force_fork(monkeypatch)
        self.hang_child_and_interrupt_parent(monkeypatch)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.run()
        assert time.monotonic() - start < 30
        assert forks == [os.getpid()]
        _assert_nothing_left(self.fds)

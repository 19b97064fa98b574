"""forked.beside runs its second call in a forked child, moved off its parent's CPU."""

import os

import pytest

from techflux import forked

from forkchecks import FORK_WARNING, force_fork


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings(FORK_WARNING)
def test_beside_runs_its_second_call_in_a_child(monkeypatch):
    forks = force_fork(monkeypatch)
    here, there = forked.beside(os.getpid, os.getpid)
    assert here == os.getpid() != there
    assert forks == [os.getpid()]


def test_current_cpu_is_one_the_process_may_run_on():
    if not os.path.exists("/proc/self/stat"):
        pytest.skip("needs /proc")
    assert forked._current_cpu() in os.sched_getaffinity(0)

"""One fork at a time: a beside inside a live beside runs both calls in its own process."""

import os

import pytest

from techflux import forked
from techflux.community import louvain

from forkchecks import FORK_WARNING, force_fork
from test_community import _random_graph

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork"),
    pytest.mark.filterwarnings(FORK_WARNING),
]


def _pids():
    """A beside's (here pid, there pid)."""
    return forked.beside(os.getpid, os.getpid)


def test_a_beside_in_the_parent_half_runs_in_process(monkeypatch):
    forks = force_fork(monkeypatch)
    inner, child = forked.beside(_pids, os.getpid)
    assert inner == (os.getpid(), os.getpid())
    assert child != os.getpid()
    assert forks == [os.getpid()]


def test_a_beside_in_the_child_runs_in_process(monkeypatch):
    forks = force_fork(monkeypatch)
    # the child counts its own forks in its copy of the list
    mine, (inner, child_forks) = forked.beside(os.getpid, lambda: (_pids(), len(forks)))
    assert mine == os.getpid()
    assert inner[0] == inner[1] != os.getpid()
    assert child_forks == 1
    assert forks == [os.getpid()]


def test_louvain_after_a_beside_takes_its_descent_fork(monkeypatch):
    graph = _random_graph(3, 72)
    forks = force_fork(monkeypatch)
    forked.beside(os.getpid, os.getpid)
    with pytest.raises(KeyError):
        forked.beside(lambda: {}["missing"], os.getpid)
    louvain(graph)
    assert forks == [os.getpid()] * 3

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metricspin import model  # noqa: E402


@pytest.fixture
def render_cpus(monkeypatch):
    """Call with W: the BLAS pin, and so every map and trace, then sees W usable CPUs."""
    return lambda cpus: monkeypatch.setattr(model, "usable_cpus", lambda: cpus)


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes, one entry each; a fork in a child fails."""
    parent, made, fork = os.getpid(), [], os.fork

    def counted():
        if os.getpid() != parent:
            raise AssertionError("a render child forked")
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made

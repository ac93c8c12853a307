import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nbrw import complete_graph, k4_minus_edge, wheel_graph


@pytest.fixture
def k4e():
    return k4_minus_edge()


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def w523():
    return wheel_graph(5, 2, 3)


@pytest.fixture
def applications(monkeypatch):
    """One entry per application of B or of its reduction to the branching
    darts: each calls ``operators._sums_except`` once."""
    from nbrw import operators

    calls = []
    inner = operators._sums_except

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(operators, "_sums_except", counted)
    return calls

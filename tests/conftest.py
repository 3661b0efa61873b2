import numpy as np
import pytest
from hypothesis import strategies as st

from dolearn.admg import Admg
from dolearn.demo import bow_graph, fig3a_graph, fig4a_graph
from dolearn.scm import random_net_for


@pytest.fixture
def fig3a():
    return fig3a_graph()


@pytest.fixture
def fig4a():
    return fig4a_graph()


@pytest.fixture
def bow():
    return bow_graph()


def fig3b_graph():
    return Admg.build(
        ["X", "Z1", "Z2"], [("X", "Z1"), ("Z1", "Z2")], [("X", "Z2")]
    )


def fig4b_graph():
    return Admg.build(["W", "X", "Y"], [("X", "Y")], [("W", "X"), ("W", "Y")])


@st.composite
def admgs(draw, max_n=6, max_bidirected=3, cardinalities=(2,), min_n=1, min_bidirected=0):
    """Random small mixed graphs; directed part guaranteed acyclic by
    orienting edges along the index order."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    names = [f"V{i}" for i in range(n)]
    cards = [draw(st.sampled_from(cardinalities)) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    directed = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    bidirected = (
        draw(st.lists(st.sampled_from(pairs), unique=True,
                      min_size=min_bidirected, max_size=max_bidirected))
        if pairs else []
    )
    return Admg(
        tuple(names), tuple(cards),
        frozenset(directed), frozenset(bidirected),
    )


def realization(g: Admg, seed: int):
    return random_net_for(g, seed=seed)


def table_of(li):
    return li.table()


def max_abs_diff(a, b):
    return float(np.abs(a.aligned_to(b.names).probs - b.probs).max())

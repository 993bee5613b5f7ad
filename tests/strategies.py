"""Hypothesis strategies shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

from cmgiant import DegreeSequence, HalfEdgeGraph, Pmf


@st.composite
def pmf_dicts(draw, max_degree=8, allow_degenerate=False):
    support = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_degree),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    if not allow_degenerate and support == [2]:
        support.append(1)
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    total = sum(weights)
    return {k: w / total for k, w in zip(sorted(support), weights)}


@st.composite
def pmfs(draw, **kwargs):
    return Pmf.from_dict(draw(pmf_dicts(**kwargs)))


@st.composite
def degree_lists(draw, max_n=40, max_degree=7):
    degrees = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_degree),
            min_size=2,
            max_size=max_n,
        )
    )
    if sum(degrees) % 2 == 1:
        degrees[0] += 1
    return degrees


@st.composite
def degree_sequences(draw, **kwargs):
    return DegreeSequence(draw(degree_lists(**kwargs)))


@st.composite
def loopy_graphs(draw):
    """Small multigraphs on a uniform pairing of their half-edges: vertices of
    degree 0, and at these sizes often self-loops and multi-edges."""
    degrees = draw(st.lists(st.integers(0, 5), min_size=1, max_size=10))
    if sum(degrees) % 2:
        degrees[-1] += 1
    labels = np.array(draw(st.permutations(range(sum(degrees)))), dtype=np.int64)
    mate = np.empty(labels.size, dtype=np.int64)
    mate[labels[0::2]], mate[labels[1::2]] = labels[1::2], labels[0::2]
    return HalfEdgeGraph(np.concatenate(([0], np.cumsum(degrees))), mate)

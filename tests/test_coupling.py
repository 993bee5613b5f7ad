
import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmgiant import (
    DegreeSequence,
    Pmf,
    coupled_exploration,
    reuse_bounds,
    sample_iid_degrees,
)
from cmgiant.coupling import _bp_generations
from strategies import degree_lists

MIXTURE = Pmf.from_dict({1: 0.5, 3: 0.5})


@pytest.fixture(scope="module")
def mixture_seq():
    return sample_iid_degrees(MIXTURE, 20000, np.random.default_rng(77))


def test_single_edge_clean_run():
    seq = DegreeSequence(np.array([1, 1]))
    t = coupled_exploration(seq, 0, 10, np.random.default_rng(0))
    assert len(t.steps) == 1
    assert t.steps[0].event == "none"
    assert t.steps[0].graph_children == 0
    assert t.steps[0].bp_children == 0
    assert t.first_divergence is None
    assert t.graph_generation_sizes == (1, 1)
    assert t.bp_generation_sizes == (1, 1)
    assert t.graph_vertices == 2
    assert t.exhausted
    assert t.half_edge_reuses == 0
    assert t.vertex_reuses == 0


def test_single_edge_reuse_run():
    # with this seed the raw draw lands on the pending half-edge itself,
    # forcing a redraw; the pairing is the same but the trace records it
    seq = DegreeSequence(np.array([1, 1]))
    t = coupled_exploration(seq, 0, 10, np.random.default_rng(1))
    assert t.steps[0].event == "half_edge_reuse"
    assert t.first_divergence == 0
    assert t.half_edge_reuses == 1
    assert t.graph_generation_sizes == (1, 1)


def test_budget_one_stops_before_any_step():
    seq = DegreeSequence(np.array([3, 1, 3, 3]))
    t = coupled_exploration(seq, 0, 1, np.random.default_rng(2))
    assert t.steps == ()
    assert t.graph_vertices == 1
    assert not t.exhausted


def test_argument_validation():
    seq = DegreeSequence(np.array([1, 1]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        coupled_exploration(seq, 0, 0, rng)
    with pytest.raises(ValueError):
        coupled_exploration(seq, 5, 3, rng)
    with pytest.raises(ValueError):
        coupled_exploration(seq, -1, 3, rng)


def test_branching_side_dies_while_the_graph_goes_on():
    # step 0's raw draw is the root's own half-edge: the branching side takes
    # the degree-1 root, has no children and dies, while the redraw reaches
    # the degree-2 vertex and the graph side goes on to the third vertex
    seq = DegreeSequence(np.array([1, 1, 2]))
    t = coupled_exploration(seq, 0, 10, np.random.default_rng(14))
    assert t.steps[0].bp_children == 0
    assert t.steps[1].bp_children is None
    assert t.bp_generation_sizes == (1, 1)
    assert t.bp_next_partial == t.bp_pending == 0
    assert t.graph_generation_sizes == (1, 1, 1)


@pytest.mark.parametrize(
    "children, generations",
    [
        ([2], ((1, 2), 0, 2)),  # only the root drawn
        ([2, 1], ((1, 2), 1, 1)),  # one of two drawn, one child so far
        ([2, 1, 3], ((1, 2, 4), 0, 4)),  # the second generation just completed
        ([2, 1, 0, 1], ((1, 2, 1, 1), 0, 1)),  # the fourth generation still to draw
        ([2, 0, 0], ((1, 2), 0, 0)),  # a generation with no children: death
        ([1, 0], ((1, 1), 0, 0)),  # death in the first generation
    ],
)
def test_bp_generations_by_hand(children, generations):
    # child counts in breadth-first order, the root's first
    assert _bp_generations(children) == generations


@given(degree_lists(max_n=30), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_trace_fuzz_invariants(degrees, budget, seed):
    seq = DegreeSequence(np.array(degrees))
    rng = np.random.default_rng(seed)
    root = int(rng.integers(0, seq.n))
    t = coupled_exploration(seq, root, budget, rng)
    assert 1 <= t.graph_vertices <= max(budget, 1)
    assert sum(t.graph_generation_sizes) == t.graph_vertices
    assert t.half_edge_reuses + t.vertex_reuses <= len(t.steps)
    d_cap = seq.max_degree - 1 if seq.n > 1 else seq.max_degree
    limit = max(d_cap, int(seq.degrees[root]))
    for i, s in enumerate(t.steps):
        assert 0 <= s.graph_children <= limit
        if s.bp_children is not None:
            assert 0 <= s.bp_children <= seq.max_degree - 1
            # per-step separation of the two sides is at most the degree cap
            assert abs(s.graph_children - s.bp_children) <= seq.max_degree
        before_divergence = t.first_divergence is None or i < t.first_divergence
        if before_divergence:
            assert s.event == "none"
            assert s.bp_children == s.graph_children
    if t.first_divergence is not None:
        s = t.steps[t.first_divergence]
        assert s.event != "none" or s.graph_children != s.bp_children
    if t.exhausted and t.first_divergence is None:
        # a clean fully-explored run is a tree matched step for step
        assert t.bp_generation_sizes == t.graph_generation_sizes
        assert t.bp_next_partial == 0
        assert t.bp_pending == 0


def test_bp_children_follow_size_biased_shifted_law(mixture_seq):
    # pooled across runs, the branching offspring stream is i.i.d. from the
    # shifted law of the sequence, mean nu-hat = sum d(d-1) / sum d
    d = mixture_seq.degrees.astype(np.float64)
    nu_hat = float(np.sum(d * (d - 1)) / np.sum(d))
    draws = []
    for seed in range(40):
        rng = np.random.default_rng(300 + seed)
        root = int(rng.integers(0, mixture_seq.n))
        t = coupled_exploration(mixture_seq, root, 200, rng)
        draws.extend(s.bp_children for s in t.steps if s.bp_children is not None)
    assert len(draws) > 2000
    assert abs(np.mean(draws) - nu_hat) <= 0.1
    assert set(draws) <= {0, 2}


def test_reuse_bounds_examples():
    b = reuse_bounds(200, 10, 10)
    assert b.half_edge == pytest.approx(0.5)
    assert b.vertex == pytest.approx(5.0)
    b = reuse_bounds(10**6, 10, 100)
    assert b.half_edge == pytest.approx(0.01)
    assert b.vertex == pytest.approx(0.1)
    b = reuse_bounds(20, 3, 0)
    assert b.half_edge == 0.0
    assert b.vertex == 0.0


def test_reuse_bounds_validation():
    with pytest.raises(ValueError):
        reuse_bounds(0, 3, 5)
    with pytest.raises(ValueError):
        reuse_bounds(20, -1, 5)
    with pytest.raises(ValueError):
        reuse_bounds(20, 3, -1)


def test_mean_reuses_within_first_moment_bounds(mixture_seq):
    m = 100
    bounds = reuse_bounds(mixture_seq.total_degree, mixture_seq.max_degree, m)
    he = []
    vr = []
    for seed in range(300):
        rng = np.random.default_rng(1000 + seed)
        root = int(np.random.default_rng(seed).integers(0, mixture_seq.n))
        t = coupled_exploration(mixture_seq, root, m, rng)
        he.append(t.half_edge_reuses)
        vr.append(t.vertex_reuses)
    assert np.mean(he) <= 1.1 * bounds.half_edge
    assert np.mean(vr) <= 1.1 * bounds.vertex


def test_divergence_free_fraction(mixture_seq):
    m = 20
    bounds = reuse_bounds(mixture_seq.total_degree, mixture_seq.max_degree, m)
    free = 0
    runs = 300
    for seed in range(runs):
        rng = np.random.default_rng(5000 + seed)
        root = int(np.random.default_rng(seed).integers(0, mixture_seq.n))
        t = coupled_exploration(mixture_seq, root, m, rng)
        free += t.first_divergence is None
    assert free / runs >= 1.0 - 3.0 * (bounds.half_edge + bounds.vertex)


# Every field a trace records; repr keeps the steps and the value types.
TRACE_FIELDS = (
    "root",
    "budget",
    "steps",
    "first_divergence",
    "graph_generation_sizes",
    "bp_generation_sizes",
    "bp_next_partial",
    "bp_pending",
    "graph_vertices",
    "half_edge_reuses",
    "vertex_reuses",
    "exhausted",
)


def _fields(trace):
    return [getattr(trace, name) for name in TRACE_FIELDS]


def _single_root_runs():
    rng = np.random.default_rng(2024)
    traces = []
    for _ in range(300):
        degrees = rng.integers(1, 6, size=int(rng.integers(2, 41)))
        degrees[0] += int(degrees.sum()) % 2
        seq = DegreeSequence(degrees)
        root = int(rng.integers(0, seq.n))
        traces.append(coupled_exploration(seq, root, int(rng.integers(1, seq.n + 2)), rng))
    assert sum(t.half_edge_reuses for t in traces) > 0
    return [_fields(t) for t in traces], rng


PINNED_TRACES = {
    _single_root_runs: "15c5e9723438982467efab1a1342523ba5f323133231e4a32103eb3dc641a9d7",
}


@pytest.mark.parametrize("case", list(PINNED_TRACES), ids=lambda f: f.__name__.strip("_"))
def test_coupling_outputs_pinned(case):
    # every recorded field, step by step, and the state the runs leave the
    # generator in, so a change in any draw or its bounds shows up here
    outputs, rng = case()
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(repr(out).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == PINNED_TRACES[case]

import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from cmgiant import (
    DegreeSequence,
    HalfEdgeGraph,
    Pmf,
    RootedBall,
    boundary_pair_fraction,
    bp_ball_distribution,
    build_offspring_spec,
    canonical_ball,
    canonical_code,
    component_decomposition,
    empirical_ball_distribution,
    pair_half_edges,
    restricted_ball_distribution,
    sample_iid_degrees,
    tv_distance,
)
from cmgiant import neighborhoods, traversal
from cmgiant.neighborhoods import DEFAULT_BALL_CAP, OVERSIZE_BALL, extract_ball
from oracles import ball_census, bp_ball_census, degree_in_ball, edge_iter, rows_reference, tree_code
from strategies import degree_lists, pmf_dicts


def graph_from(degrees, mate):
    seq = DegreeSequence(np.array(degrees, dtype=np.int64))
    g = HalfEdgeGraph.from_degrees(seq, np.array(mate, dtype=np.int64))
    g.validate()
    return g


def cycle_graph(n):
    mate = np.empty(2 * n, dtype=np.int64)
    for v in range(n):
        w = (v + 1) % n
        mate[2 * v + 1] = 2 * w
        mate[2 * w] = 2 * v + 1
    return graph_from([2] * n, mate)


def ball(n, edges, stubs, radius=0, boundary=1):
    return RootedBall(n, tuple(edges), tuple(stubs), radius, boundary)


# ---------------------------------------------------------------------------
# brute-force isomorphism oracle


def root_isomorphic(b1: RootedBall, b2: RootedBall) -> bool:
    """Decide root- and stub-preserving isomorphism by trying every relabeling."""
    n = b1.num_vertices
    if n != b2.num_vertices or len(b1.edges) != len(b2.edges):
        return False
    if b1.stubs[0] != b2.stubs[0]:
        return False
    target_edges = sorted(b2.edges)
    for perm in itertools.permutations(range(1, n)):
        pos = [0] + list(perm)
        mapped = sorted(
            (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in b1.edges
        )
        if mapped != target_edges:
            continue
        stubs = [0] * n
        for v, s in enumerate(b1.stubs):
            stubs[pos[v]] = s
        if tuple(stubs) == b2.stubs:
            return True
    return False


def connected_to_root(n, edges):
    seen = {0}
    frontier = [0]
    nbr = {v: set() for v in range(n)}
    for a, b in edges:
        nbr[a].add(b)
        nbr[b].add(a)
    while frontier:
        u = frontier.pop()
        for w in nbr[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def enumerate_balls(max_n, max_edges, max_stub):
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                if not connected_to_root(n, combo):
                    continue
                for stubs in itertools.product(range(max_stub + 1), repeat=n):
                    out.append(ball(n, combo, stubs))
    return out


def cheap_invariant(b: RootedBall):
    degrees = tuple(sorted(degree_in_ball(b, v) for v in range(b.num_vertices)))
    return (
        b.num_vertices,
        len(b.edges),
        degrees,
        tuple(sorted(b.stubs)),
        b.stubs[0],
        sum(1 for a, c in b.edges if a == c),
    )


def test_codes_agree_with_exhaustive_isomorphism():
    balls = enumerate_balls(max_n=4, max_edges=4, max_stub=1)
    balls += enumerate_balls(max_n=2, max_edges=3, max_stub=2)
    groups: dict[bytes, list[RootedBall]] = {}
    for b in balls:
        groups.setdefault(canonical_code(b), []).append(b)
    assert OVERSIZE_BALL not in groups
    # same code -> isomorphic
    for members in groups.values():
        rep = members[0]
        for other in members[1:]:
            assert root_isomorphic(rep, other)
    # different codes -> not isomorphic (checked inside invariant buckets;
    # different invariants already witness non-isomorphism)
    buckets: dict[tuple, list[RootedBall]] = {}
    for code, members in groups.items():
        buckets.setdefault(cheap_invariant(members[0]), []).append(members[0])
    for reps in buckets.values():
        for b1, b2 in itertools.combinations(reps, 2):
            assert not root_isomorphic(b1, b2)


@given(
    st.integers(2, 6),
    st.data(),
)
def test_code_invariant_under_relabeling(n, data):
    # random connected ball, then a random relabeling of the non-root
    # vertices; the code may not move
    edges = []
    for v in range(1, n):
        u = data.draw(st.integers(0, v - 1))
        edges.append((u, v))
    extra = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3,
        )
    )
    edges += [(min(a, b), max(a, b)) for a, b in extra]
    stubs = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    b1 = ball(n, edges, stubs)
    perm = data.draw(st.permutations(list(range(1, n))))
    pos = [0] + list(perm)
    b2 = ball(
        n,
        [(min(pos[a], pos[x]), max(pos[a], pos[x])) for a, x in edges],
        tuple(stubs[pos.index(i)] for i in range(n)),
    )
    assert canonical_code(b1) == canonical_code(b2)


# ---------------------------------------------------------------------------
# hand-built examples


NEGATIVE_RADIUS_CALLS = {
    "boundary_counts": lambda g, cs, spec: traversal.boundary_counts(g, -1),
    "boundary_pair_fraction": lambda g, cs, spec: boundary_pair_fraction(g, cs, -1),
    "extract_ball": lambda g, cs, spec: extract_ball(g, 0, -1),
    "canonical_ball": lambda g, cs, spec: canonical_ball(g, 0, -1),
    "empirical_ball_distribution": lambda g, cs, spec: empirical_ball_distribution(g, -1),
    "restricted_ball_distribution": lambda g, cs, spec: restricted_ball_distribution(g, -1, cs),
    "bp_ball_distribution": lambda g, cs, spec: bp_ball_distribution(
        spec, -1, 10, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize("name", NEGATIVE_RADIUS_CALLS)
def test_negative_radius_is_rejected(name):
    # a path 0 - 1 - 2
    g = graph_from([1, 2, 1], [1, 0, 3, 2])
    cs = component_decomposition(g)
    spec = build_offspring_spec(Pmf.from_dict({1: 0.5, 3: 0.5}))
    with pytest.raises(ValueError, match=r"\br=-1\b"):
        NEGATIVE_RADIUS_CALLS[name](g, cs, spec)


VERTEX_CALLS = {
    "pair_distance_a": lambda g, v: traversal.pair_distance(g, v, 0),
    "pair_distance_b": lambda g, v: traversal.pair_distance(g, 0, v),
    "pair_distance_a_equals_b": lambda g, v: traversal.pair_distance(g, v, v),
    "extract_ball": lambda g, v: extract_ball(g, v, 1),
    "canonical_ball": lambda g, v: canonical_ball(g, v, 1),
}


@pytest.mark.parametrize("v", [-1, 2, 5])
@pytest.mark.parametrize("name", VERTEX_CALLS)
def test_vertex_outside_the_graph_is_rejected(name, v):
    # a single edge 0 - 1: an id outside 0 .. n-1 is refused, rather than
    # read as a disconnected vertex or as a one-vertex ball
    g = graph_from([1, 1], [1, 0])
    with pytest.raises(ValueError, match=rf"={v}\b.*\bn=2\b"):
        VERTEX_CALLS[name](g, v)


CAP_CALLS = {
    "extract_ball": lambda g, cs, spec, cap: extract_ball(g, 0, 1, cap),
    "canonical_ball": lambda g, cs, spec, cap: canonical_ball(g, 0, 1, cap),
    "empirical_ball_distribution": lambda g, cs, spec, cap: empirical_ball_distribution(g, 1, cap),
    "restricted_ball_distribution": lambda g, cs, spec, cap: restricted_ball_distribution(g, 1, cs, cap),
    "bp_ball_distribution": lambda g, cs, spec, cap: bp_ball_distribution(
        spec, 1, 10, np.random.default_rng(0), cap
    ),
}


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("name", CAP_CALLS)
def test_cap_below_one_is_rejected(name, cap):
    # no ball fits a cap below one vertex, the root: both sides refuse it
    # rather than code every ball exactly or every tree as oversize
    g = graph_from([1, 2, 1], [1, 0, 3, 2])
    cs = component_decomposition(g)
    spec = build_offspring_spec(Pmf.from_dict({1: 0.5, 3: 0.5}))
    with pytest.raises(ValueError, match=rf"\bcap={cap}\b"):
        CAP_CALLS[name](g, cs, spec, cap)


@pytest.mark.parametrize("samples", [0, -3])
def test_bp_census_rejects_samples_below_one(samples):
    # a census of no trees would be a law of mass 0; nothing is drawn
    spec = build_offspring_spec(Pmf.from_dict({1: 0.5, 3: 0.5}))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"\bsamples={samples}\b"):
        bp_ball_distribution(spec, 2, samples, rng)
    assert rng.bit_generator.state == state


def test_star_and_path_get_distinct_codes():
    star = ball(4, [(0, 1), (0, 2), (0, 3)], (0, 0, 0, 0))
    path = ball(4, [(0, 1), (1, 2), (2, 3)], (0, 0, 0, 0))
    assert canonical_code(star) != canonical_code(path)


def test_root_placement_matters():
    from_end = ball(3, [(0, 1), (1, 2)], (0, 0, 0))
    from_middle = ball(3, [(0, 1), (0, 2)], (0, 0, 0))
    assert canonical_code(from_end) != canonical_code(from_middle)


def test_stub_marks_matter():
    bare = ball(2, [(0, 1)], (0, 0))
    marked = ball(2, [(0, 1)], (0, 1))
    assert canonical_code(bare) != canonical_code(marked)


def test_multiplicity_matters():
    single = ball(2, [(0, 1)], (0, 0))
    double = ball(2, [(0, 1), (0, 1)], (0, 0))
    assert canonical_code(single) != canonical_code(double)


def test_disconnected_ball_rejected():
    with pytest.raises(ValueError):
        canonical_code(ball(2, [], (0, 0)))


@pytest.mark.parametrize("leaves", [9, 10, 11, 12])
def test_large_stars_get_exact_codes(leaves):
    # a star is fixed up to isomorphism by the root's stubs and the multiset
    # of leaf stubs; codes must follow exactly that, past CLASS_CAP leaves
    rng = np.random.default_rng(leaves)
    edges = [(0, i) for i in range(1, leaves + 1)]
    leaf_stubs = [[0] * leaves, [0] * (leaves - 1) + [1], [1] * leaves]
    leaf_stubs += [rng.integers(0, 3, size=leaves).tolist() for _ in range(20)]
    codes: dict[tuple, bytes] = {}
    for root_stubs in (0, 2):
        for marks in leaf_stubs:
            code = canonical_code(ball(leaves + 1, edges, (root_stubs, *marks)))
            assert code != OVERSIZE_BALL
            shuffled = rng.permutation(marks).tolist()
            permuted = ball(leaves + 1, edges, (root_stubs, *shuffled))
            assert canonical_code(permuted) == code
            assert codes.setdefault((root_stubs, tuple(sorted(marks))), code) == code
    assert len(set(codes.values())) == len(codes)


def test_large_symmetric_core_class_is_oversize():
    # nine vertices each joined to the root by a double edge stay in the
    # core and form one class of nine, past CLASS_CAP
    edges = [(0, i) for i in range(1, 10) for _ in range(2)]
    code = canonical_code(ball(10, edges, (0,) * 10))
    assert code == OVERSIZE_BALL


def relabeled(b: RootedBall, pos: list[int]) -> RootedBall:
    """The same ball with vertex v renamed pos[v]."""
    stubs = [0] * b.num_vertices
    for v, s in enumerate(b.stubs):
        stubs[pos[v]] = s
    edges = [(min(pos[a], pos[x]), max(pos[a], pos[x])) for a, x in b.edges]
    return ball(b.num_vertices, edges, stubs)


@given(st.data())
def test_code_invariant_with_pendant_trees_on_a_core(data):
    # a stem from the root to a cycle, self-loops or a multi-edge, then
    # random stub-labelled trees hung anywhere, up to 14 vertices in all
    stem = data.draw(st.integers(0, 2))
    edges = [(v, v + 1) for v in range(stem)]
    n = stem + 1
    kind = data.draw(st.sampled_from(["cycle", "loop", "multi"]))
    if kind == "cycle":
        length = data.draw(st.integers(3, 5))
        ring = [stem] + list(range(n, n + length - 1))
        n += length - 1
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    elif kind == "loop":
        edges += [(stem, stem)] * data.draw(st.integers(1, 2))
    else:
        edges += [(stem, n)] * data.draw(st.integers(2, 3))
        n += 1
    for v in range(n, data.draw(st.integers(n, 14))):
        edges.append((data.draw(st.integers(0, v - 1)), v))
        n += 1
    stubs = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    b = ball(n, [(min(a, x), max(a, x)) for a, x in edges], stubs)
    code = canonical_code(b)
    assert code.startswith(b"G")
    perm = data.draw(st.permutations(list(range(1, n))))
    assert canonical_code(relabeled(b, [0] + list(perm))) == code


@given(st.integers(1, 14), st.data())
def test_tree_codes_match_the_branching_process_encoder(n, data):
    # bp_ball_distribution encodes its breadth-first child lists directly;
    # canonical_code must give the same bytes for the same tree under any
    # labelling of the graph side
    parent = [-1] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    stubs = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    tree = ball(n, [(parent[v], v) for v in range(1, n)], stubs)
    perm = data.draw(st.permutations(list(range(1, n))))
    expected = b"T" + tree_code(children, stubs)
    assert canonical_code(tree) == expected
    assert canonical_code(relabeled(tree, [0] + list(perm))) == expected


@st.composite
def ragged_rows(draw):
    """Rows over shared sorted runs, as _rank_rows takes them: each row is a
    run with the entry at its skip offset left out, or the whole run when the
    skip is past its end or there are no skips at all."""
    big = draw(st.sampled_from([3, 60, 2**20, 2**40]))
    entry = st.sampled_from([0, 1, 2, big // 2, big])
    runs = draw(st.lists(st.lists(entry, max_size=12).map(sorted), min_size=1, max_size=8))
    starts = np.cumsum([0] + [len(run) for run in runs])
    picks = draw(st.lists(st.tuples(st.integers(0, len(runs) - 1), st.integers(0, 13)), max_size=40))
    skipping = draw(st.booleans())
    base = np.array([starts[i] for i, _ in picks], dtype=np.int64)
    length = np.array([len(runs[i]) - (skipping and s < len(runs[i])) for i, s in picks], dtype=np.int64)
    skip = np.array([s for _, s in picks], dtype=np.int64) if skipping else None
    vals = np.array([x for run in runs for x in run], dtype=np.int64)
    return vals, base, length, skip


@given(ragged_rows())
@example((np.array([0]), np.array([0, 0]), np.array([0, 1]), np.array([0, 1])))  # packed: the rows [] and [0]
@example(  # byte strings: in radix 2**32 the numeral of [0, 0, 1] would wrap to that of [0, 0, 0]
    (np.array([0, 0, 0, 0, 0, 1, 2**32 - 1]), np.array([0, 3, 6]), np.array([3, 3, 1]), None)
)
def test_rows_rank_like_the_column_by_column_reference(rows):
    # zero-length rows, a skip at every offset and entries up to 2**40, whose
    # rows take packed numerals or byte strings, against one np.unique per column
    vals, base, length, skip = rows
    classes, rep = neighborhoods._rank_rows(vals, base, length, skip)
    expected = rows_reference(vals, base, length, skip)
    pairs = set(zip(classes.tolist(), expected.tolist()))
    assert len(pairs) == len(set(classes.tolist())) == len(set(expected.tolist()))

    def row(i):
        s = len(vals) if skip is None else int(skip[i])
        return [int(vals[base[i] + j + (j >= s)]) for j in range(length[i])]

    # rep holds one row of each class, equal to every row of the class
    assert len(rep) == len(pairs)
    for i, c in enumerate(classes.tolist()):
        assert classes[rep[c]] == c
        assert row(int(rep[c])) == row(i)


def test_rows_rank_long_rows_alone(monkeypatch):
    # one row of 1000 entries among 10,000 rows of one: each row length is
    # ranked by one call over its own rows, so the long row's byte string is
    # sorted alone and the calls see one key per row
    vals = np.arange(2000, dtype=np.int64)
    base = np.arange(10_001) % 2000
    length = np.ones(10_001, dtype=np.int64)
    length[5000] = 1000
    keys = []
    rank, unique = neighborhoods._rank, np.unique

    def counted(ranking):
        def call(a, **kw):
            keys.append(np.size(a))
            return ranking(a, **kw)

        return call

    monkeypatch.setattr(neighborhoods, "_rank", counted(rank))
    monkeypatch.setattr(np, "unique", counted(unique))
    classes, rep = neighborhoods._rank_rows(vals, base, length)
    monkeypatch.undo()
    assert sorted(keys) == [1, 10_000]  # one call per length, 10,001 keys in all
    expected = rows_reference(vals, base, length)
    assert len(set(zip(classes.tolist(), expected.tolist()))) == len(set(expected.tolist()))
    assert rep[classes[5000]] == 5000  # the long row is alone in its class, so it holds it


@st.composite
def level_runs(draw):
    """Unsorted runs of classes and rows over them, as _rank_level takes
    them: each row is a run, less one of its entries when skipping."""
    pool = draw(st.sampled_from([[0], [0, 1, 2], [0, 3, 9], list(range(70))]))
    runs = draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), min_size=1, max_size=10))
    skipping = draw(st.booleans())
    picks = [i for i, run in enumerate(runs) if run or not skipping]
    rows = draw(st.lists(st.sampled_from(picks), max_size=30)) if picks else []
    skip = [draw(st.integers(0, len(runs[i]) - 1)) for i in rows] if skipping else None
    return runs, rows, skip


def wide_runs(radix: int, top: int) -> tuple:
    # top one-class runs and one run of radix - 1 zeros: radix**top keys
    return [[c] for c in range(top)] + [[0] * (radix - 1)], None, None


def check_level_against_reference(runs, rows, skip) -> None:
    """Rank a level with _rank_level and check it against rows_reference:
    the same partition, and a class's children are the multiset of each of
    its rows. rows index runs (None for every run); skip[i] is an offset
    into row i's run (None for no skips)."""
    counts = np.array([len(run) for run in runs], dtype=np.int64)
    vals = np.array([c for run in runs for c in run], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    picked = list(range(len(runs))) if rows is None else rows
    at = None if skip is None else np.array([starts[i] + s for i, s in zip(picked, skip)], dtype=np.int64)
    classes, children = neighborhoods._rank_level(
        vals, counts, None if rows is None else np.array(rows, dtype=np.int64), at
    )
    expected_rows = [sorted(runs[i]) for i in picked]
    if skip is not None:
        for row, i, s in zip(expected_rows, picked, skip):
            row.remove(runs[i][s])
    # the reference ranks sorted runs: every run sorted, each skip at its value
    sorted_vals = np.array([c for run in runs for c in sorted(run)], dtype=np.int64)
    offsets = None if skip is None else [sorted(runs[i]).index(runs[i][s]) for i, s in zip(picked, skip)]
    expected = rows_reference(
        sorted_vals,
        starts[picked],
        [len(row) for row in expected_rows],
        None if skip is None else np.array(offsets, dtype=np.int64),
    )
    classes = classes.tolist()
    assert len(set(zip(classes, expected.tolist()))) == len(set(classes)) == len(children)
    assert len(children) == len(set(expected.tolist()))
    for c, row in zip(classes, expected_rows):
        assert sorted(children[c]) == row


@given(level_runs())
@example(wide_runs(2, 61))  # 2**61: power sums
@example(wide_runs(3, 39))  # 3**39, just below 2**62: power sums
@example(wide_runs(2, 62))  # 2**62: sorted runs, ranked by length
@example(wide_runs(4, 31))  # 4**31 = 2**62: sorted runs, ranked by length
@example(([[2, 0, 2, 0], [0, 2, 2, 0], [2]], [0, 1, 1, 0, 2], [0, 1, 2, 3, 0]))
def test_level_rows_rank_like_the_column_by_column_reference(level):
    # the power sums of unsorted runs, or the sorted runs' rows when the
    # sums would reach 2**62, give the partition of the reference ranking
    runs, rows, skip = level
    top = len({c for run in runs for c in run})
    radix = max(map(len, runs)) + 1
    with mock.patch.object(neighborhoods, "_sorted_runs", wraps=neighborhoods._sorted_runs) as wide:
        check_level_against_reference(runs, rows, skip)
    assert wide.called == (radix**top >= 2**62)


def test_level_rows_of_one_run_are_ranked_once_per_skipped_class():
    # 1,000 rows each skip one entry of a run of 1,000 entries in 3 classes;
    # 7 one-class runs more make 1001**10 >= 2**62, so the level is wide.
    # Rows of the run that skip equal classes are equal, so _rank_rows gets
    # at most one of them per class, not 1,000 rows of 999 entries
    runs = [[k % 3 for k in range(1000)]] + [[c] for c in range(3, 10)]
    with mock.patch.object(neighborhoods, "_rank_rows", wraps=neighborhoods._rank_rows) as rank_rows:
        check_level_against_reference(runs, [0] * 1000, list(range(1000)))
    (_, base, _, _), _ = rank_rows.call_args
    assert rank_rows.call_count == 1 and np.count_nonzero(base == 0) <= 3


@given(
    st.sampled_from([0, 1, 5, 100, 2**40, 2**62 - 1]).flatmap(
        lambda top: st.lists(st.integers(0, top), max_size=60).map(lambda k: np.array(k, dtype=np.int64))
    )
)
@example(np.array([], dtype=np.int64))  # a batch whose every tree is oversize
@example(np.array([0]))
@example(np.array([2**62 - 1]))
@example(np.array([neighborhoods._RANK_SLACK] * 2))  # the widest table of two keys
@example(np.array([neighborhoods._RANK_SLACK + 2] * 2))  # one past it: sorted
def test_rank_rows_like_np_unique(key):
    # the presence table ranks keys below key.size + _RANK_SLACK, np.unique
    # the wider ones; both number classes as np.unique's inverse does
    table = key.size > 0 and key.max() < key.size + neighborhoods._RANK_SLACK
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        cls, first = neighborhoods._rank(key)
    assert unique.called != table
    values, inverse = np.unique(key, return_inverse=True)
    assert cls.dtype == first.dtype == np.int64
    assert np.array_equal(cls, inverse) and first.size == values.size
    assert np.array_equal(key[first], values)


def test_extract_ball_radius_zero():
    g = cycle_graph(5)
    b, overflow = extract_ball(g, 2, 0)
    assert not overflow
    assert b.num_vertices == 1
    assert b.edges == ()
    assert b.stubs == (2,)
    assert b.boundary_size == 1


def test_extract_ball_self_loop():
    g = graph_from([2], [1, 0])
    b, _ = extract_ball(g, 0, 1)
    assert b.num_vertices == 1
    assert b.edges == ((0, 0),)
    assert b.stubs == (0,)
    assert b.boundary_size == 0
    b0, _ = extract_ball(g, 0, 0)
    # the loop stays inside even a radius-0 ball, leaving no stubs
    assert b0.edges == ((0, 0),)
    assert b0.stubs == (0,)


def test_extract_ball_on_cycle_radius_one():
    g = cycle_graph(4)
    b, _ = extract_ball(g, 1, 1)
    assert b.num_vertices == 3
    assert sorted(b.edges) == [(0, 1), (0, 2)]
    assert b.stubs == (0, 1, 1)
    assert b.boundary_size == 2


def test_extract_ball_cap_overflow():
    g = cycle_graph(10)
    _, overflow = extract_ball(g, 0, 4, cap=3)
    assert overflow
    _, code = canonical_ball(g, 0, 4, cap=3)
    assert code == OVERSIZE_BALL


@given(degree_lists(max_n=20), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_extract_ball_fuzz_degrees_add_up(degrees, r, seed):
    seq = DegreeSequence(np.array(degrees))
    g = pair_half_edges(seq, np.random.default_rng(seed))
    v = int(np.random.default_rng(seed + 1).integers(0, g.n))
    b, overflow = extract_ball(g, v, r)
    assert not overflow
    # inside-degree plus stubs reproduces the true degree of every member
    dist_sorted = []
    for u in range(b.num_vertices):
        total = degree_in_ball(b, u) + b.stubs[u]
        dist_sorted.append(total)
    # the root is vertex 0 of the ball
    assert dist_sorted[0] == int(seq.degrees[v])
    assert all(t >= 1 for t in dist_sorted)
    assert b.radius == r
    assert b.boundary_size <= b.num_vertices


def ball_from_edge_list(g, v, r, cap):
    """The radius-r ball of v rebuilt from edge_iter(g), with the overflow flag.

    Vertices are numbered in breadth-first discovery order over each
    vertex's half-edges, as extract_ball numbers them.
    """
    dist = {v: 0}
    order = [v]
    for u in order:
        if dist[u] < r:
            for w in g.owner[g.mate[g.offsets[u]:g.offsets[u + 1]]].tolist():
                if w not in dist:
                    dist[w] = dist[u] + 1
                    order.append(w)
    overflow = len(order) > cap
    order = order[:cap]
    local = {u: i for i, u in enumerate(order)}
    edges = []
    inside = [0] * len(order)
    for a, b in edge_iter(g):
        if a in local and b in local:
            la, lb = sorted((local[a], local[b]))
            edges.append((la, lb))
            inside[la] += 1
            inside[lb] += 1
    degrees = g.degrees()
    ball = RootedBall(
        num_vertices=len(order),
        edges=tuple(sorted(edges)),
        stubs=tuple(int(degrees[u]) - inside[i] for i, u in enumerate(order)),
        radius=r,
        boundary_size=sum(dist[u] == r for u in order),
    )
    return ball, overflow


@given(
    degree_lists(max_n=12, max_degree=5),
    st.integers(0, 3),
    st.integers(1, 14),
    st.integers(0, 2**32 - 1),
)
def test_extract_ball_matches_edge_list_rebuild(degrees, r, cap, seed):
    # few vertices of degree up to 5 make self-loops and multi-edges common
    g = pair_half_edges(DegreeSequence(np.array(degrees)), np.random.default_rng(seed))
    for v in range(g.n):
        assert extract_ball(g, v, r, cap) == ball_from_edge_list(g, v, r, cap)


def test_extract_ball_keeps_loops_and_multi_edges():
    # vertex 0: a self-loop and a double edge to 1; vertex 1: one more edge to 2
    g = graph_from([4, 3, 1], [1, 0, 4, 5, 2, 3, 7, 6])
    ball, overflow = extract_ball(g, 0, 2)
    assert not overflow
    assert ball.edges == ((0, 0), (0, 1), (0, 1), (1, 2))
    assert ball.stubs == (0, 0, 0)
    assert extract_ball(g, 0, 2) == ball_from_edge_list(g, 0, 2, 10)


def test_empirical_distribution_perfect_matching():
    seq = DegreeSequence(np.ones(50, dtype=np.int64))
    g = pair_half_edges(seq, np.random.default_rng(5))
    dist = empirical_ball_distribution(g, 1)
    assert len(dist) == 1
    (code, mass), = dist.items()
    assert mass == 1.0
    assert code == canonical_code(ball(2, [(0, 1)], (0, 0)))


def test_empirical_distribution_cycle():
    g = cycle_graph(4)
    dist = empirical_ball_distribution(g, 1)
    expected = canonical_code(ball(3, [(0, 1), (0, 2)], (0, 1, 1)))
    assert dist == {expected: 1.0}


def test_empirical_radius_zero_census_matches_degrees():
    # reconstruct the expected radius-0 code for every vertex straight from
    # the matching and compare census to census
    seq = DegreeSequence(np.array([1, 3, 2, 3, 1, 2]))
    g = pair_half_edges(seq, np.random.default_rng(9))
    counts: dict[bytes, float] = {}
    for v in range(g.n):
        loops = 0
        for x in range(g.offsets[v], g.offsets[v + 1]):
            y = int(g.mate[x])
            if g.owner[y] == v and x < y:
                loops += 1
        d = int(seq.degrees[v])
        expected = canonical_code(
            ball(1, [(0, 0)] * loops, (d - 2 * loops,))
        )
        counts[expected] = counts.get(expected, 0.0) + 1 / g.n
    dist = empirical_ball_distribution(g, 0)
    assert set(dist) == set(counts)
    for code in counts:
        assert dist[code] == pytest.approx(counts[code])


def test_restricted_distribution_splits_exactly(mixture_graph, mixture_components):
    _, g = mixture_graph
    split = restricted_ball_distribution(g, 1, mixture_components)
    full = empirical_ball_distribution(g, 1)
    keys = set(split.giant) | set(split.non_giant)
    assert keys == set(full)
    for code in keys:
        merged = split.giant.get(code, 0.0) + split.non_giant.get(code, 0.0)
        assert merged == pytest.approx(full[code], abs=1e-12)
    gmax_frac = float(mixture_components.sizes[0] / g.n)
    assert sum(split.giant.values()) == pytest.approx(gmax_frac)


@given(
    st.one_of(degree_lists(max_n=12, max_degree=5), degree_lists(max_n=60, max_degree=3)),
    st.integers(0, 3),
    st.integers(1, 14),
    st.integers(1, 200),
    st.integers(0, 2**32 - 1),
)
def test_census_matches_per_root_oracle(degrees, r, cap, budget, seed):
    # few vertices of degree up to 5 give cyclic roots (self-loops,
    # multi-edges, cycles) and tree roots past the cap; sparser graphs of up
    # to 60 vertices give tree balls of radius 2 and 3 below the cap; a small
    # walk budget splits the tree test into many chunks of roots. One graph
    # object is censused at r, then at every smaller radius, which reads the
    # tree test cached at r when that test covered every root and tests the
    # roots within the cap again otherwise, then at r + 1, which replaces
    # the cache when it covers every root, then at r under a larger cap
    g = pair_half_edges(DegreeSequence(np.array(degrees)), np.random.default_rng(seed))
    cs = component_decomposition(g)
    for radius, c in [*((s, cap) for s in range(r, -1, -1)), (r + 1, cap), (r, cap + 7)]:
        with mock.patch.object(traversal, "_WALK_BUDGET", budget):
            emp = empirical_ball_distribution(g, radius, cap=c)
            split = restricted_ball_distribution(g, radius, cs, cap=c)
        expected = ball_census(g, radius, c)
        assert emp == expected
        assert list(emp) == list(expected)
        assert (split.giant, split.non_giant) == ball_census(g, radius, c, cs.labels)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_census_matches_per_root_oracle_on_a_sparse_graph(mixture_pmf, r):
    # almost every ball is a tree, with leaves of every degree at every depth
    rng = np.random.default_rng(7)
    g = pair_half_edges(sample_iid_degrees(mixture_pmf, 3000, rng), rng)
    assert empirical_ball_distribution(g, r) == ball_census(g, r, DEFAULT_BALL_CAP)


def test_smaller_radii_read_the_tree_test_of_every_root(mixture_pmf):
    # on {1, 3} every root has at most 10 walks of length 2 or less, so the
    # tree test at r=2 covers every root and serves r=1 and r=0 under any cap
    rng = np.random.default_rng(11)
    g = pair_half_edges(sample_iid_degrees(mixture_pmf, 3000, rng), rng)
    empirical_ball_distribution(g, 2)
    censuses = []
    with mock.patch.object(traversal, "_walk_keys", wraps=traversal._walk_keys) as walk_keys:
        for r, cap in [(1, DEFAULT_BALL_CAP), (0, DEFAULT_BALL_CAP), (1, 3)]:
            censuses.append((r, cap, empirical_ball_distribution(g, r, cap=cap)))
    assert not walk_keys.called
    for r, cap, emp in censuses:
        assert emp == ball_census(g, r, cap)


def hub_graph() -> HalfEdgeGraph:
    """A degree-40 hub among 300 vertices of degree 1 or 3."""
    rng = np.random.default_rng(1)
    degrees = np.concatenate(([40], rng.choice([1, 3], 300)))  # an even sum
    return pair_half_edges(DegreeSequence(degrees), rng)


def test_smaller_radius_tests_again_after_a_root_over_the_cap():
    # under cap 30 the hub is over the cap at r=2, so that tree test caches
    # nothing and the census at r=1 enumerates its own roots
    g = hub_graph()
    empirical_ball_distribution(g, 2, cap=30)
    with mock.patch.object(traversal, "_walk_keys", wraps=traversal._walk_keys) as walk_keys:
        emp = empirical_ball_distribution(g, 1, cap=30)
    assert walk_keys.called
    assert emp == ball_census(g, 1, 30)


def test_census_with_a_hub_folds_wide_rows_like_the_oracle():
    # at r=3 the root level's rows hold 35 distinct half-edge classes, too
    # many for power sums in radix 41, so that level sorts its runs and
    # ranks its rows one length at a time
    g = hub_graph()
    with mock.patch.object(neighborhoods, "_sorted_runs", wraps=neighborhoods._sorted_runs) as wide:
        emp = empirical_ball_distribution(g, 3)
    assert wide.called
    expected = ball_census(g, 3, DEFAULT_BALL_CAP)
    assert emp == expected
    assert list(emp) == list(expected)


def test_census_with_a_hub_names_reached_rows_once(monkeypatch):
    # on the hub graph at r=3, _encode builds the AHU string of each class
    # that the top classes reach exactly once, and of no other class: naming
    # every class of every level would name strings no ball needs, and near
    # hubs those are huge
    g = hub_graph()
    ahu, encode = neighborhoods._ahu, neighborhoods._encode
    named: list[bytes] = []
    runs = []

    def counted_ahu(stubs, child_codes):
        named.append(ahu(stubs, child_codes))
        return named[-1]

    def counted_encode(levels, top):
        runs.append((levels, top))
        monkeypatch.setattr(neighborhoods, "_ahu", counted_ahu)
        try:
            return encode(levels, top)
        finally:
            monkeypatch.setattr(neighborhoods, "_ahu", ahu)

    monkeypatch.setattr(neighborhoods, "_encode", counted_encode)
    emp = empirical_ball_distribution(g, 3)
    monkeypatch.undo()
    assert emp == ball_census(g, 3, DEFAULT_BALL_CAP)
    ((levels, top),) = runs
    # the reached classes of each level, from the leaf values up
    reached = [set(top.tolist())]
    for children in reversed(levels):
        reached.append({w for c in reached[-1] for w in children[c]})
    reached.reverse()
    assert len(named) == sum(len(level) for level in reached)
    at = 0
    for level in reached:  # one string per class, level by level from the leaves
        assert len(set(named[at : at + len(level)])) == len(level)
        at += len(level)
    assert sum(map(len, reached[1:])) < sum(map(len, levels))  # some classes go unnamed


def test_census_routes_every_kind_of_root():
    # vertex 0 is alone with a self-loop; vertex 1 is the centre of a star
    # with leaves 2..6, a tree ball of 6 vertices at radius 1
    g = graph_from([2, 5, 1, 1, 1, 1, 1], [1, 0, 7, 8, 9, 10, 11, 2, 3, 4, 5, 6])
    dist = empirical_ball_distribution(g, 1, cap=5)
    assert dist == ball_census(g, 1, 5)
    assert dist[OVERSIZE_BALL] == pytest.approx(1 / 7)
    assert sorted(code[:1] for code in dist) == [b"!", b"G", b"T"]
    assert OVERSIZE_BALL not in empirical_ball_distribution(g, 1, cap=6)


# ---------------------------------------------------------------------------
# branching-process side


def test_bp_radius_zero_reproduces_root_law():
    pmf = Pmf.from_dict({1: 0.5, 3: 0.5})
    spec = build_offspring_spec(pmf)
    dist = bp_ball_distribution(spec, 0, 40000, np.random.default_rng(3))
    for k, p in pmf.as_dict().items():
        code = canonical_code(ball(1, [], (k,)))
        assert dist[code] == pytest.approx(p, abs=0.02)


def test_bp_three_regular_is_deterministic_to_depth_two():
    spec = build_offspring_spec(Pmf.from_dict({3: 1.0}))
    dist = bp_ball_distribution(spec, 2, 500, np.random.default_rng(4))
    assert len(dist) == 1
    (code, mass), = dist.items()
    assert mass == 1.0
    # root, 3 children, 6 grandchildren each holding 2 stubs
    edges = [(0, 1), (0, 2), (0, 3)]
    grand = 4
    for child in (1, 2, 3):
        edges += [(child, grand), (child, grand + 1)]
        grand += 2
    stubs = (0,) * 4 + (2,) * 6
    assert code == canonical_code(ball(10, edges, stubs))


def test_bp_and_matching_agree_for_degree_one():
    spec = build_offspring_spec(Pmf.from_dict({1: 1.0}))
    bp = bp_ball_distribution(spec, 1, 200, np.random.default_rng(5))
    seq = DegreeSequence(np.ones(10, dtype=np.int64))
    g = pair_half_edges(seq, np.random.default_rng(6))
    emp = empirical_ball_distribution(g, 1)
    assert bp == emp == {canonical_code(ball(2, [(0, 1)], (0, 0))): 1.0}


def test_bp_matches_three_regular_graph_at_radius_one():
    spec = build_offspring_spec(Pmf.from_dict({3: 1.0}))
    seq = DegreeSequence(np.full(2000, 3, dtype=np.int64))
    g = pair_half_edges(seq, np.random.default_rng(7))
    emp = empirical_ball_distribution(g, 1)
    bp = bp_ball_distribution(spec, 1, 20000, np.random.default_rng(8))
    assert tv_distance(emp, bp) < 0.1


def test_bp_cap_yields_oversize():
    spec = build_offspring_spec(Pmf.from_dict({3: 1.0}))
    dist = bp_ball_distribution(spec, 6, 50, np.random.default_rng(9), cap=20)
    assert dist == {OVERSIZE_BALL: 1.0}
    # every tree of this law has 1 + 3 (1 + 2 + ... + 2**(r-1)) nodes within
    # depth r, the most any tree of it can have: at that cap every tree fits
    # and the census counts none, one below it every tree is oversize
    for r in range(4):
        nodes = 1 + 3 * (2**r - 1)
        fit = bp_ball_distribution(spec, r, 50, np.random.default_rng(9), cap=nodes)
        assert len(fit) == 1 and OVERSIZE_BALL not in fit
        if nodes > 1:
            over = bp_ball_distribution(spec, r, 50, np.random.default_rng(9), cap=nodes - 1)
            assert over == {OVERSIZE_BALL: 1.0}


DENSE = {1: 0.4, 4: 0.3, 10: 0.3}


def bp_digest(dist) -> str:
    pairs = sorted(dist.items())
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


@pytest.mark.parametrize(
    "law, r, samples, seed, cap, digest",
    [
        # about 3.5e5 child draws over a dozen batches, the last one partial
        (DENSE, 2, 10_000, 11, 1000, "8910a3f30b81f21fd87168c6fe38758a90244390e129fc052eb28209a230a098"),
        # two dozen batches of about 1e4 trees each
        ({1: 0.5, 3: 0.5}, 1, 2**18 + 5000, 12, 1000, "8219d596d5aae9c429dc02a114bcaef40a780c70d41c7ab8cf9e127da7c89b2d"),
        # about a third of the trees overflow the cap, the rest do not
        (DENSE, 2, 3000, 13, 40, "037937529f92694d6e789bbd83f9d61094d8a3e9704dc2c9bea4f2c37475b32a"),
        # no child draws at all
        (DENSE, 0, 5000, 14, 1000, "d50e2895872e46e12a4d9dcfa0b349eb198890bfa49ed108737053e9dc230596"),
        # degree-10 roots overflow at the root and take no child draw
        (DENSE, 1, 5000, 15, 5, "c2e8a6c83d16e6a8dc0215377f2d7e78832d44de49115c00ca81f2b3c3cc5ee9"),
        # local_conv's size: three batches at r=1, five at r=2
        ({1: 0.5, 3: 0.5}, 1, 25_000, 16, 1000, "b5ce4976c2baf87dde6f838ee52ea4ed2bab7ed24cd57bc64c299b40717105ef"),
        ({1: 0.5, 3: 0.5}, 2, 25_000, 16, 1000, "ebb267daf18378dafe88c2f5f77c4c8f936a6b2949663465f329c095c730f0ff"),
    ],
    ids=[
        "dense_batches", "sparse_batches", "partial_cap",
        "radius_zero", "root_overflow", "local_conv_r1", "local_conv_r2",
    ],
)
def test_bp_stream_is_pinned(law, r, samples, seed, cap, digest):
    # digests recorded from the level-by-level census of library 0.5.0
    spec = build_offspring_spec(Pmf.from_dict(law))
    dist = bp_ball_distribution(spec, r, samples, np.random.default_rng(seed), cap=cap)
    assert bp_digest(dist) == digest


@given(
    pmf_dicts(),
    st.integers(0, 3),
    st.integers(1, 40),
    st.integers(1, 300),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
def test_bp_census_matches_per_tree_oracle(law, r, cap, samples, batch_nodes, seed):
    # batches of a few nodes split the trees anywhere, down to one tree a
    # batch; the generator must end where the per-tree census leaves it
    spec = build_offspring_spec(Pmf.from_dict(law))
    ref, mine = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(neighborhoods, "_BATCH_NODES", batch_nodes):
        batch = neighborhoods._batch_trees(spec, r, cap)
        dist = bp_ball_distribution(spec, r, samples, mine, cap=cap)
    expected = bp_ball_census(spec, r, samples, ref, cap, batch)
    assert dist == expected
    assert list(dist) == list(expected)
    assert mine.random() == ref.random()


def radius_one_law(law: dict) -> dict:
    """Exact radius-1 class masses: P_root(c) times the multinomial law of
    the c children's stub counts under the shifted law."""
    spec = build_offspring_spec(Pmf.from_dict(law))
    shifted = spec.shifted_pmf.as_dict()
    exact = {}
    for c, p in spec.root_pmf.as_dict().items():
        for stubs in itertools.combinations_with_replacement(sorted(shifted), c):
            mass = p * math.factorial(c)
            for s in set(stubs):
                mass *= shifted[s] ** stubs.count(s) / math.factorial(stubs.count(s))
            children = [list(range(1, c + 1))] + [[] for _ in stubs]
            exact[b"T" + tree_code(children, (0, *stubs))] = mass
    return exact


def within_binomial_bound(mass: float, p: float, samples: int, z: float = 6.0) -> bool:
    """Whether mass * samples lies in neither binomial tail beyond that of z
    standard normal deviations: exact tails, so rare classes are tested too."""
    k = round(mass * samples)
    tail = stats.norm.sf(z)
    return stats.binom.cdf(k, samples, p) >= tail and stats.binom.sf(k - 1, samples, p) >= tail


@pytest.mark.parametrize("law", [{1: 0.5, 3: 0.5}, DENSE], ids=["sparse", "dense"])
def test_bp_radius_one_classes_follow_the_exact_law(law):
    samples = 100_000
    exact = radius_one_law(law)
    assert math.fsum(exact.values()) == pytest.approx(1.0)
    spec = build_offspring_spec(Pmf.from_dict(law))
    dist = bp_ball_distribution(spec, 1, samples, np.random.default_rng(17))
    assert set(dist) <= set(exact)
    for code, p in exact.items():
        assert within_binomial_bound(dist.get(code, 0.0), p, samples), code


def test_bp_oversize_mass_follows_the_exact_law():
    # at r=2 a tree has 1 + c + (the sum of its c children's shifted draws)
    # nodes; cap=40 makes about a third of the DENSE trees oversize
    spec = build_offspring_spec(Pmf.from_dict(DENSE))
    shifted = np.zeros(max(spec.shifted_pmf.support) + 1)
    for k, q in spec.shifted_pmf.as_dict().items():
        shifted[k] = q
    exact = 0.0
    for c, p in spec.root_pmf.as_dict().items():
        grand = np.array([1.0])
        for _ in range(c):
            grand = np.convolve(grand, shifted)
        exact += p * grand[max(0, 40 - c) :].sum()
    assert exact == pytest.approx(0.354172, abs=1e-6)
    samples = 50_000
    dist = bp_ball_distribution(spec, 2, samples, np.random.default_rng(18), cap=40)
    assert within_binomial_bound(dist[OVERSIZE_BALL], exact, samples)


def test_tv_against_bp_shrinks_with_n(mixture_pmf, mixture_spec):
    bp = bp_ball_distribution(mixture_spec, 2, 200000, np.random.default_rng(10))
    gaps = []
    for n in (1000, 10000):
        seq_rng = np.random.default_rng(100 + n)
        from cmgiant import sample_iid_degrees

        seq = sample_iid_degrees(mixture_pmf, n, seq_rng)
        g = pair_half_edges(seq, seq_rng)
        emp = empirical_ball_distribution(g, 2)
        gaps.append(tv_distance(emp, bp))
    assert gaps[1] < gaps[0]


# ---------------------------------------------------------------------------
# helpers


def test_tv_distance_basics():
    a = b"a"
    b_ = b"b"
    assert tv_distance({a: 1.0}, {a: 1.0}) == 0.0
    assert tv_distance({a: 1.0}, {b_: 1.0}) == 1.0
    assert tv_distance({a: 1.0}, {a: 0.5, b_: 0.5}) == 0.5

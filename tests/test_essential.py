import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola import essential
from systola.errors import CapacityError, DimensionError, ParameterError
from systola.essential import _heuristic
from systola.gf2 import _bits

from oracles import (brute_cover_trivial_over, graph_girth, reference_heuristic,
                     simple_cycles)


def test_forest_criterion_cases():
    k7 = sy.gen_named("complete-7")
    assert sy.is_inessential_graph(k7, {1, 2})            # a single edge
    assert sy.is_inessential_graph(k7, {1})               # a point
    assert not sy.is_inessential_graph(k7, {1, 2, 3})     # induces a triangle
    path = sy.build_complex([[1, 2], [2, 3], [3, 4]])
    assert sy.is_inessential_graph(path, {1, 2, 3, 4})
    two_points = sy.build_complex([[1, 2], [3, 4]])
    assert sy.is_inessential_graph(two_points, {1, 3})


def test_forest_step_table_is_built_once_per_complex(monkeypatch):
    built = []
    real = essential._forest_steps
    monkeypatch.setattr(essential, "_forest_steps", lambda X: built.append(X) or real(X))
    X = sy.build_complex([[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [5, 6], [6, 4], [7, 8]])
    adj = X.adjacency()
    subsets = [set(W) for k in range(len(X.vertices) + 1)
               for W in itertools.combinations(X.vertices, k)]
    first = [sy.is_inessential_graph(X, W) for W in subsets]
    assert len(built) == 1
    second = [sy.is_inessential_graph(X, W) for W in subsets]
    assert first == second == [not simple_cycles(adj, W) for W in subsets]
    assert sy.combinatorial_essentiality(X, 2).essential is False
    assert built == [X]


def test_forest_criterion_rejects_higher_dimension(rp2):
    with pytest.raises(DimensionError):
        sy.is_inessential_graph(rp2, {1, 2})


def test_k7_is_3_essential():
    verdict = sy.combinatorial_essentiality(sy.gen_named("complete-7"), 3)
    assert verdict.essential is True
    assert verdict.method == "exhaustive" and verdict.exhaustive_complete
    assert verdict.witness is None


def test_k5_is_2_essential():
    verdict = sy.combinatorial_essentiality(sy.gen_named("complete-5"), 2)
    assert verdict.essential is True


def test_k7_is_not_4_essential():
    verdict = sy.combinatorial_essentiality(sy.gen_named("complete-7"), 4)
    assert verdict.essential is False
    witness = verdict.witness
    assert witness.covered() == frozenset(range(1, 8))
    assert len(witness) <= 4
    k7 = sy.gen_named("complete-7")
    assert all(sy.is_inessential_graph(k7, b) for b in witness.blocks)


def test_odd_complete_graphs_essentiality_boundary():
    for n in (1, 2, 3, 4, 5, 6):
        k = sy.gen_named(f"complete-{2 * n + 1}")
        assert sy.combinatorial_essentiality(k, n).essential is True
        assert sy.combinatorial_essentiality(k, n + 1).essential is False


def test_exhaustive_search_tests_each_distinct_block_once(monkeypatch):
    k13 = sy.gen_named("complete-13")
    tested = []
    real = sy.essential.potential_is_consistent

    def recording(steps, block):
        tested.append(block)
        return real(steps, block)

    monkeypatch.setattr(sy.essential, "potential_is_consistent", recording)
    # K13 is 6-essential: without the shared verdicts the search would
    # make 178,132 block tests of these 363 blocks
    verdict = sy.combinatorial_essentiality(k13, 6)
    assert verdict.essential is True
    assert len(tested) == len(set(tested)) == verdict.block_tests == 363


def test_block_tests_count_the_heuristic_calls(monkeypatch):
    Q, xi = sy.quotient(sy.gen_symmetric_sphere(3, 5))
    cover = sy.build_cover(Q, xi, 2)
    calls = []
    real = sy.essential.is_pi_inessential

    def counting(C, W):
        calls.append(W)
        return real(C, W)

    monkeypatch.setattr(sy.essential, "is_pi_inessential", counting)
    v = sy.combinatorial_essentiality(Q, 4, cover=cover, mode="heuristic",
                                      budget_ms=600_000, seed=0)
    # the witness re-check tests each block once more, outside the count;
    # before it every call is a new block (a verdict kept per label would
    # make 231 calls on these 182 blocks)
    searched = calls[:-len(v.witness)]
    assert v.block_tests == len(searched) == len(set(searched)) == 182
    assert calls[-len(v.witness):] == list(v.witness.blocks)


def test_monotonicity_in_n():
    k7 = sy.gen_named("complete-7")
    for m in (1, 2, 3):
        assert sy.combinatorial_essentiality(k7, m).essential is True


def test_tree_is_not_1_essential():
    tree = sy.build_complex([[1, 2], [2, 3], [2, 4]])
    verdict = sy.combinatorial_essentiality(tree, 1)
    assert verdict.essential is False
    assert verdict.witness.blocks == (frozenset({1, 2, 3, 4}),)


def test_cycle_is_1_essential_but_not_2():
    cyc = sy.gen_polygon(5)
    assert sy.combinatorial_essentiality(cyc, 1).essential is True
    assert sy.combinatorial_essentiality(cyc, 2).essential is False


def test_even_cycles_meet_the_recursion_bound_exactly():
    # the even s-cycle is 1-essential with s = b(1, s/2) vertices, one
    # below the displayed closed form essential_vertex_lower_bound(1, s)
    for s in (4, 6, 8):
        cyc = sy.gen_polygon(s)
        verdict = sy.combinatorial_essentiality(cyc, 1)
        assert verdict.essential is True and verdict.exhaustive_complete
        r = s // 2 - 1
        assert cyc.num_vertices == sy.essential_ball_bounds(1, r + 1, r).value(1, r + 1) == s


def test_cover_relative_essentiality_of_rp2(rp2, rp2_class):
    cover = sy.build_cover(rp2, rp2_class, 2)
    assert sy.combinatorial_essentiality(rp2, 1, cover=cover).essential is True
    assert sy.combinatorial_essentiality(rp2, 2, cover=cover).essential is True
    verdict = sy.combinatorial_essentiality(rp2, 3, cover=cover)
    assert verdict.essential is False
    assert all(sy.is_pi_inessential(cover, b) for b in verdict.witness.blocks)


@pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
def test_cover_argument_is_checked_before_it_is_read(rp2, rp2_class, mode):
    for bad in ("nope", 3, object()):
        with pytest.raises(ParameterError, match="cover must be a Cover instance"):
            sy.combinatorial_essentiality(rp2, 2, cover=bad, mode=mode)
    five = sy.gen_polygon(5)
    other = sy.build_cover(five, sy.Cochain1(five, {(0, 1): 1}), 2)
    with pytest.raises(ParameterError, match="cover does not cover this complex"):
        sy.combinatorial_essentiality(rp2, 2, cover=other, mode=mode)


def test_cover_relative_search_makes_no_scipy_call(rp2, rp2_class, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("block tests must not call scipy")

    monkeypatch.setattr(sy.covers, "connected_components", forbidden)
    monkeypatch.setattr(sy.covers, "dijkstra", forbidden)
    cover = sy.build_cover(rp2, rp2_class, 2)
    assert [sy.combinatorial_essentiality(rp2, n, cover=cover).status
            for n in (1, 2, 3)] == ["essential", "essential", "not-essential"]
    P = sy.gen_polygon(7)
    cover = sy.build_cover(P, sy.Cochain1(P, {(0, 1): 1}, sy.RING_Z), 3)
    assert [sy.combinatorial_essentiality(P, n, cover=cover).status
            for n in (1, 2)] == ["essential", "not-essential"]
    assert sy.combinatorial_essentiality(
        P, 2, cover=cover, mode="heuristic", seed=1).status == "not-essential"


def test_higher_dimension_without_cover_rejected(rp2):
    with pytest.raises(ParameterError):
        sy.combinatorial_essentiality(rp2, 2)


def test_capacity_error_beyond_fourteen_vertices():
    big = sy.gen_named("complete-15")
    with pytest.raises(CapacityError):
        sy.combinatorial_essentiality(big, 2)


def test_both_modes_split_the_empty_complex_into_no_blocks():
    empty = sy.SimplicialComplex([])
    for mode in ("exhaustive", "heuristic"):
        v = sy.combinatorial_essentiality(empty, 2, mode=mode)
        assert (v.essential, v.witness, v.block_tests) == (False, sy.VertexPartition(()), 0)
        assert v.status == "not-essential"


def test_heuristic_finds_witness_but_never_claims_essential():
    k7 = sy.gen_named("complete-7")
    found = sy.combinatorial_essentiality(k7, 4, mode="heuristic", seed=1)
    assert found.essential is False
    assert all(sy.is_inessential_graph(k7, b) for b in found.witness.blocks)
    blocked = sy.combinatorial_essentiality(k7, 3, mode="heuristic",
                                            budget_ms=150, seed=1)
    assert blocked.essential is None
    assert blocked.status == "not-disproved"
    assert not blocked.exhaustive_complete


def test_budget_below_one_ms_rejected():
    k7 = sy.gen_named("complete-7")
    for budget in (0, -1, 0.5, 2.5, True, "5", None):
        for mode in ("heuristic", "exhaustive"):
            with pytest.raises(ParameterError, match="budget"):
                sy.combinatorial_essentiality(k7, 4, mode=mode, budget_ms=budget)


def test_non_integer_n_rejected():
    k7 = sy.gen_named("complete-7")
    for bad in (0, True, False, 2.5, 2.0, "2", None):
        with pytest.raises(ParameterError, match="n must be an integer"):
            sy.combinatorial_essentiality(k7, bad)
    v = sy.combinatorial_essentiality(k7, np.int64(4), mode="heuristic",
                                      budget_ms=np.int32(1000), seed=1)
    assert v.status == "not-essential" and len(v.witness) <= 4
    assert sy.combinatorial_essentiality(k7, np.int64(3)).essential is True


def test_n_above_the_vertex_count_is_the_vertex_count():
    k7 = sy.gen_named("complete-7")
    for mode in ("heuristic", "exhaustive"):
        huge = sy.combinatorial_essentiality(k7, 10 ** 11, mode=mode, seed=1)
        seven = sy.combinatorial_essentiality(k7, 7, mode=mode, seed=1)
        assert huge.status == "not-essential"
        assert huge.witness.blocks == seven.witness.blocks


def test_heuristic_determinism_same_seed():
    k7 = sy.gen_named("complete-7")
    a = sy.combinatorial_essentiality(k7, 4, mode="heuristic", seed=9)
    b = sy.combinatorial_essentiality(k7, 4, mode="heuristic", seed=9)
    assert a.witness.blocks == b.witness.blocks


# Seeded heuristic witnesses, pinned so that a change in the order of its
# random draws shows; the RP^3 ones as each vertex's block index.
_RP3_S5_WITNESSES = (
    "0100230301000300100113223001310330020230002100002223102312031302221130013110131312320",
    "0010122231202300130100002200221313221020310002010102022311020323202010333031211230231",
    "0120110111223231002322111101112202213020220232222122331323321123230100001310110200203",
)


def test_heuristic_witnesses_are_pinned():
    k7 = sy.gen_named("complete-7")
    for seed, blocks in ((1, [[1, 5], [2, 4], [3], [6, 7]]),
                         (9, [[1], [2, 7], [3, 6], [4, 5]])):
        v = sy.combinatorial_essentiality(k7, 4, mode="heuristic", seed=seed)
        assert [sorted(b) for b in v.witness.blocks] == blocks
    Q, xi = sy.quotient(sy.gen_symmetric_sphere(3, 5))
    cover = sy.build_cover(Q, xi, 2)
    for seed, labels in enumerate(_RP3_S5_WITNESSES):
        v = sy.combinatorial_essentiality(Q, 4, cover=cover, mode="heuristic",
                                          budget_ms=600_000, seed=seed)
        blocks = v.witness.blocks
        assert "".join(str(next(i for i, b in enumerate(blocks) if x in b))
                       for x in Q.vertices) == labels


class _CountingRandom(random.Random):
    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def randrange(self, *args):
        self.draws.append(super().randrange(*args))
        return self.draws[-1]


def test_heuristic_retests_only_the_two_blocks_a_move_touches():
    k7 = sy.gen_named("complete-7")
    vertices = k7.vertices
    m = len(vertices)
    rng = _CountingRandom(1)
    asked = {}  # move number -> the blocks asked about before that move
    verdicts = {}

    def passes(mask):
        asked.setdefault(len(rng.draws) - m, set()).add(mask)
        if mask not in verdicts:
            verdicts[mask] = sy.is_inessential_graph(k7, {vertices[i] for i in _bits(mask)})
        return verdicts[mask]

    # K7 is 3-essential, so the one round runs all its 4m moves
    assert _heuristic(m, 3, passes, rng, time.monotonic() + 600, max_rounds=1) is None
    moves = len(rng.draws) - m  # one randrange per initial label, then one per move
    assert moves == 4 * m
    assert all(len(asked[k] - asked[k - 1]) <= 2 for k in range(1, moves))
    assert len(verdicts) <= len(set(rng.draws[:m])) + 2 * moves


@st.composite
def _search_cases(draw):
    """A graph on at most 8 vertices, or a complex with the triangles on
    which a drawn Z2 or Z3 cocycle closes up plus its cover, and n <= 3."""
    k = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(k), 2))
    density = draw(st.integers(1, 10))
    edges = [e for e in pairs if draw(st.integers(1, 10)) <= density]
    faces = [list(e) for e in edges] + [[v] for v in range(k)]
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return sy.build_complex(faces), None, n
    fiber = draw(st.sampled_from((2, 3)))
    ring = sy.RING_Z2 if fiber == 2 else sy.RING_Z
    vals = {e: draw(st.integers(0, fiber - 1)) for e in sorted(edges)}
    sums = {t: vals[t[:2]] + vals[t[1:]] - vals[t[::2]]
            for t in itertools.combinations(range(k), 3) if {t[:2], t[1:], t[::2]} <= vals.keys()}
    closed = [t for t, d in sums.items() if (d % 2 if ring == sy.RING_Z2 else d) == 0]
    faces += [list(t) for t in draw(st.lists(st.sampled_from(closed), unique=True))] if closed else []
    X = sy.build_complex(faces)
    return X, sy.build_cover(X, sy.Cochain1(X, vals, ring), fiber), n


def _first_witness_by_brute_force(vertices, n, trivial):
    """The first partition, in the order of restricted-growth strings with
    labels below n, whose every block passes ``trivial``; None if none does."""
    for labels in itertools.product(range(n), repeat=len(vertices)):
        if any(a > max(labels[:i], default=-1) + 1 for i, a in enumerate(labels)):
            continue
        blocks = tuple(frozenset(v for v, a in zip(vertices, labels) if a == j)
                       for j in range(max(labels) + 1))
        if all(trivial(b) for b in blocks):
            return blocks
    return None


def _brute_block_test(X, cover):
    """The brute-force block oracle of a search case, run once per block."""
    adj = X.adjacency()
    verdicts = {}

    def trivial(block):
        if block not in verdicts:
            verdicts[block] = (not simple_cycles(adj, block) if cover is None
                               else brute_cover_trivial_over(cover, block))
        return verdicts[block]

    return trivial


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_search_cases(), st.data())
def test_exhaustive_search_agrees_with_brute_force_partitions(case, data):
    X, cover, n = case
    adj = X.adjacency()
    trivial = _brute_block_test(X, cover)
    expected = _first_witness_by_brute_force(list(X.vertices), n, trivial)
    v = sy.combinatorial_essentiality(X, n, cover=cover)
    assert v.essential == (expected is None)
    assert (v.witness.blocks if v.witness else None) == expected
    if cover is None:
        W = data.draw(st.sets(st.sampled_from(X.vertices)))
        assert sy.is_inessential_graph(X, W) == (not simple_cycles(adj, W))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_search_cases())
def test_heuristic_agrees_with_the_reference_heuristic(case):
    X, cover, n = case
    vertices = X.vertices
    trivial = _brute_block_test(X, cover)

    def passes(mask):
        return trivial(frozenset(vertices[i] for i in _bits(mask)))

    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        deadline = time.monotonic() + 600
        found = _heuristic(len(vertices), n, passes, ours, deadline, max_rounds=2)
        expected = reference_heuristic(list(vertices), n, trivial, theirs, deadline, max_rounds=2)
        assert (None if found is None else
                [frozenset(vertices[i] for i in _bits(mask)) for mask in found]) == expected
        assert ours.getstate() == theirs.getstate()


def test_vertex_count_consistency_with_systole_bound():
    # exhaustively certified essential graphs obey the vertex lower bound
    # evaluated at their girth (the graph edge-path systole)
    for name, n in (("complete-5", 2), ("complete-7", 3), ("polygon-7", 1)):
        X = sy.gen_named(name)
        assert sy.combinatorial_essentiality(X, n).essential is True
        girth = graph_girth(X)
        assert X.num_vertices >= sy.essential_vertex_bound_chain(n, girth)[1]


def test_cover_certified_essentiality_meets_vertex_bound(rp2, rp2_class):
    cover = sy.build_cover(rp2, rp2_class, 2)
    assert sy.combinatorial_essentiality(rp2, 2, cover=cover).essential is True
    sys_val = sy.cover_systole(cover)
    assert rp2.num_vertices >= sy.essential_vertex_bound_chain(2, sys_val)[1]


def test_subdivision_vertex_lower_bound_values():
    assert [sy.subdivision_vertex_lower_bound(n) for n in (1, 2, 3)] == [3, 6, 10]
    with pytest.raises(ParameterError):
        sy.subdivision_vertex_lower_bound(0)


def test_partition_validation():
    with pytest.raises(ParameterError):
        sy.VertexPartition((frozenset({1}), frozenset()))
    with pytest.raises(ParameterError):
        sy.VertexPartition((frozenset({1, 2}), frozenset({2, 3})))


def test_verdict_witness_consistency():
    with pytest.raises(ParameterError):
        sy.EssentialityVerdict(True, sy.VertexPartition((frozenset({1}),)),
                               "exhaustive", True)

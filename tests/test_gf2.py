import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from systola import gf2
from systola.errors import CapacityError

from oracles import ReferenceContraction, brute_in_span, brute_kernel_basis, brute_rref

BITS = 12


def _flat(supports):
    """Supports as ``in_span`` takes them: their weights and their
    coordinates one after another."""
    return [len(s) for s in supports], [i for s in supports for i in s]


def test_in_span():
    weights, coords = _flat([gf2._bits(v) for v in (0b0011, 0b0110)])
    assert gf2.in_span(weights, coords, gf2._bits(0b0101))
    assert not gf2.in_span(weights, coords, gf2._bits(0b1000))
    assert gf2.in_span(weights, coords, gf2._bits(0))
    assert gf2.in_span([], [], []) and not gf2.in_span([], [], [3])


def test_rref_pivots_unique():
    rows = brute_rref([0b111, 0b011, 0b110])
    pivots = [r & -r for r in rows]
    assert len(set(pivots)) == len(rows)
    for r in rows:
        for other in rows:
            if other is not r:
                assert not (other & (r & -r))


def test_kernel_basis_orthogonal_to_constraints():
    rng = random.Random(7)
    n = 12
    constraints = [rng.getrandbits(n) for _ in range(6)]
    kernel = gf2.kernel_basis(constraints, n)
    assert len(kernel) == n - len(brute_rref(constraints))
    for vec in kernel:
        for c in constraints:
            assert bin(vec & c).count("1") % 2 == 0


def test_kernel_of_zero_constraints_is_everything():
    assert len(gf2.kernel_basis([], 5)) == 5


def test_determinism():
    rows = [0b1100, 0b1010, 0b0110]
    assert brute_rref(rows) == brute_rref(list(rows))
    e1, e2 = gf2.Echelon(), gf2.Echelon()
    for r in rows:
        e1.insert(r)
        e2.insert(r)
    assert e1.rows == e2.rows


# Weight 0, 1 and 2 are the contracted cases; dense vectors go to elimination.
_index = st.integers(0, BITS - 1)
_vector = st.one_of(
    st.just(0),
    _index.map(lambda i: 1 << i),
    st.tuples(_index, _index).map(lambda p: 1 << p[0] | 1 << p[1]),
    st.integers(0, (1 << BITS) - 1),
)


@st.composite
def _vector_lists(draw):
    vectors = draw(st.lists(_vector, max_size=16))
    if vectors:
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=4))
    return draw(st.permutations(vectors))


@st.composite
def _span_queries(draw):
    vectors = draw(_vector_lists())
    if vectors and draw(st.booleans()):
        target = 0
        for v, pick in zip(vectors, draw(st.lists(st.booleans(), min_size=len(vectors),
                                                  max_size=len(vectors)))):
            if pick:
                target ^= v
        target ^= draw(st.sampled_from([0, 0, 0] + [1 << i for i in range(BITS)]))
    else:
        target = draw(_vector)
    return vectors, target


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_span_queries())
def test_in_span_matches_plain_elimination(query):
    vectors, target = query
    weights, coords = _flat([gf2._bits(v) for v in vectors])
    assert gf2.in_span(weights, coords, gf2._bits(target)) == brute_in_span(vectors, target)


@st.composite
def _peel_cases(draw):
    """Supports of weight 0 to 5 over coordinates 1..BITS, coordinates
    repeated within and across supports, and some coordinates grounded
    before the peel."""
    supports = draw(st.lists(st.lists(st.integers(1, BITS), max_size=5), max_size=14))
    grounded = draw(st.lists(st.integers(1, BITS), max_size=3))
    return supports, grounded


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_peel_cases())
def test_peel_matches_the_sequential_contraction(case):
    supports, grounded = case
    parent = np.arange(BITS + 1)
    parent[grounded] = 0
    weights, coords = _flat(supports)
    ids, roots = gf2.peel(parent, np.repeat(np.arange(len(supports)), weights), coords)
    ref = ReferenceContraction(grounded)
    rest = ref.peel(supports)
    coordinates = range(1, BITS + 1)
    assert {i for i in coordinates if parent[i] == 0} == \
        {i for i in coordinates if ref.find(i) == ref.GROUND}
    classes, ref_classes = {}, {}
    for i in coordinates:
        classes.setdefault(parent[i], set()).add(i)
        ref_classes.setdefault(ref.find(i), set()).add(i)
    assert all(min(members) == r for r, members in classes.items() if r)
    assert sorted(map(sorted, classes.values())) == sorted(map(sorted, ref_classes.values()))
    # the same supports are left, each the same projection: named by the
    # least member of each class, its array root
    least = {r: min(members) for r, members in ref_classes.items()}
    assert [set(v.tolist()) for v in np.split(roots, np.flatnonzero(np.diff(ids)) + 1)
            if len(v)] == [{least[r] for r in s} for s in rest]
    assert (np.diff(ids) >= 0).all() and all(len(s) >= 3 for s in rest)


def test_peel_refuses_keys_past_2_63():
    with pytest.raises(CapacityError):
        gf2.peel(np.arange(4), [2 ** 62], [1])


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_vector_lists(), st.integers(0, BITS + 2))
def test_kernel_basis_matches_reduced_echelon_oracle(constraints, n_cols):
    # n_cols below BITS leaves constraint bits at or above n_cols
    assert gf2.kernel_basis(constraints, n_cols) == brute_kernel_basis(constraints, n_cols)

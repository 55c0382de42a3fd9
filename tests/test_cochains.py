import functools
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola.cochains import coboundary, vertex_coboundary
from systola.errors import CocycleError, DimensionError, DomainError, ParameterError

from oracles import (brute_class_is_nonzero, brute_cup_power, brute_is_cocycle,
                     brute_restriction_is_zero, kruskal_forest, parity_class_is_nonzero,
                     reference_h1_basis)


def _random_cochain(X, rng, ring=sy.RING_Z2):
    edges = sorted(X.faces(1))
    vals = {e: rng.randrange(2) for e in edges}
    return sy.Cochain1(X, vals, ring)


def test_zero_cochain_is_cocycle(rp2):
    assert sy.is_cocycle(sy.Cochain1(rp2, {}))


def test_any_assignment_on_cycle_is_cocycle():
    X = sy.build_complex([[1, 2], [2, 3], [1, 3]])
    assert sy.is_cocycle(sy.Cochain1(X, {(1, 2): 1, (1, 3): 1}))


def test_single_edge_on_full_simplex_is_not_cocycle():
    X = sy.build_complex([[1, 2, 3]])
    assert not sy.is_cocycle(sy.Cochain1(X, {(1, 2): 1}))


def _random_cochain_case(rng):
    """A complex of random faces of up to five vertices (so mixed facet
    widths), labelled by ints or by tuples whose order differs from the
    ints', and a vertex coboundary on it over Z2 or Z, with values that may
    be negative or beyond int64, then changed on up to two edges."""
    count = rng.randint(3, 8)
    facets = [rng.sample(range(count), rng.randint(1, min(5, count)))
              for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.3:
        facets = [[(v % 3, v) for v in f] for f in facets]
    X = sy.build_complex(facets)
    ring = rng.choice([sy.RING_Z2, sy.RING_Z])
    scale = rng.choice([1, 1, 2 ** 61, 2 ** 70])
    g = {v: rng.randint(-3, 3) * scale for v in X.vertices}
    values = dict(vertex_coboundary(X, g, ring).values)
    edges = sorted(X.faces(1))
    step = 1 if ring == sy.RING_Z2 else scale
    for _ in range(rng.choice([0, 1, 2]) if edges else 0):
        e = rng.choice(edges)
        values[e] = values.get(e, 0) + rng.choice([-2, -1, 1, 2]) * step
    return sy.Cochain1(X, values, ring)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_is_cocycle_agrees_with_the_triangle_loop(seed):
    c = _random_cochain_case(random.Random(seed))
    assert sy.is_cocycle(c) == brute_is_cocycle(c)


@pytest.mark.parametrize("values, oracle", [
    ({(1, 2): 2 ** 62, (2, 3): 2 ** 62, (1, 3): -2 ** 63}, False),  # wraps to 0 in int64
    ({(1, 2): 2 ** 70}, False),  # beyond int64
    ({(1, 2): 2 ** 70, (2, 3): -1, (1, 3): 2 ** 70 - 1}, True),
    ({(1, 2): 2 ** 61 - 1, (2, 3): 2 ** 61 - 1, (1, 3): 2 ** 62 - 2}, True),
])
def test_integer_cocycle_check_is_exact(values, oracle):
    c = sy.Cochain1(sy.build_complex([(1, 2, 3)]), values, sy.RING_Z)
    assert brute_is_cocycle(c) is oracle
    assert sy.is_cocycle(c) is oracle


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_edge_values_follow_the_sorted_edges(seed):
    """edge_values()[i] is the value on the i-th sorted edge, over Z2 and Z,
    with values of 2**61 or more, on complexes with isolated vertices or no
    edges at all, labelled by ints or by tuples."""
    rng = random.Random(seed)
    count = rng.randint(1, 7)
    facets = [rng.sample(range(count), rng.randint(1, min(4, count)))
              for _ in range(rng.randint(1, 6))]
    facets += [[count + i] for i in range(rng.randint(0, 2))]  # isolated vertices
    if rng.random() < 0.2:
        facets = [[v] for v in range(count)]  # no edges
    if rng.random() < 0.3:
        facets = [[(v % 3, v) for v in f] for f in facets]
    X = sy.build_complex(facets)
    ring = rng.choice([sy.RING_Z2, sy.RING_Z])
    scale = rng.choice([1, 2 ** 61, 2 ** 70])
    edges = sorted(X.faces(1))
    values = {(e if rng.random() < 0.5 else e[::-1]): rng.randint(-3, 3) * scale
              for e in edges if rng.random() < 0.7}
    c = sy.Cochain1(X, values, ring)
    vec = c.edge_values()
    assert len(vec) == len(X.edge_keys()) == len(edges)
    assert vec.tolist() == [c.value(*e) for e in edges]
    big = any(abs(v) >= 2 ** 61 for v in c.values.values())
    assert vec.dtype == (object if big else np.int64) and not vec.flags.writeable


def test_an_edge_given_twice_keeps_its_last_nonzero_value():
    X = sy.build_complex([(1, 2, 3)])
    for values, kept in [({(1, 2): 1, (2, 1): 0}, 1), ({(1, 2): 0, (2, 1): 5}, 5),
                         ({(1, 2): 3, (2, 1): 5}, 5)]:
        c = sy.Cochain1(X, values, sy.RING_Z)
        assert c.values == {(1, 2): kept}
        assert c.edge_values().tolist() == [kept, 0, 0]


@pytest.mark.parametrize("ring", [sy.RING_Z2, sy.RING_Z])
def test_int32_rows_check_a_cocycle_exactly_past_2_31(ring):
    # a strip of triangles (i, i+1, i+2): its edge keys a·V + b pass 2**31
    V = 50_000
    i = np.arange(V - 2, dtype=np.int32)
    X = sy.SimplicialComplex._from_index_rows([np.column_stack([i, i + 1, i + 2])], V)
    assert X.facet_rows()[0].dtype == np.int32 and X.edge_keys()[-1] >= 2 ** 31
    top = (V - 3, V - 1)
    assert not sy.is_cocycle(sy.Cochain1(X, {top: 1}, ring))
    # the coboundary of the last vertex
    assert sy.is_cocycle(sy.Cochain1(X, {top: 1, (V - 2, V - 1): 1}, ring))


@pytest.mark.parametrize("n, s", [(n, s) for n in range(2, 5) for s in range(3, 9)])
def test_one_edge_change_breaks_every_grid_cocycle(n, s):
    # for n >= 2 every edge of the quotient lies in a triangle
    Q, xi = sy.quotient(sy.gen_symmetric_sphere(n, s))
    assert sy.is_cocycle(xi)
    edges = sorted(Q.faces(1))
    for e in {edges[0], edges[-1], *random.Random(10 * n + s).sample(edges, 3)}:
        values = dict(xi.values)
        values[e] = 1 - values.get(e, 0)
        assert not sy.is_cocycle(sy.Cochain1(Q, values))


def test_value_on_non_edge_rejected():
    X = sy.build_complex([[1, 2], [2, 3]])
    with pytest.raises(DomainError):
        sy.Cochain1(X, {(1, 3): 1})


@pytest.mark.parametrize("ring", [sy.RING_Z2, sy.RING_Z])
def test_cochain_values_must_be_integers(ring):
    X = sy.build_complex([[1, 2], [2, 3], [1, 3]])
    for bad in (1.7, 2.5, "1", True, False, None):
        with pytest.raises(ParameterError):
            sy.Cochain1(X, {(1, 2): bad}, ring)
    want = 1 if ring == sy.RING_Z2 else 3
    assert sy.Cochain1(X, {(1, 2): np.int64(3)}, ring).value(1, 2) == want
    c = sy.Cochain1(X, {(1, 2): -3, (2, 3): 2}, ring)
    assert c.values == ({(1, 2): 1} if ring == sy.RING_Z2 else {(1, 2): -3, (2, 3): 2})
    assert all(type(v) is int for v in c.values.values())


def test_integer_cocycle_orientation():
    X = sy.build_complex([[1, 2], [2, 3], [1, 3]])
    c = sy.Cochain1(X, {(1, 2): 3}, sy.RING_Z)
    assert c.value(1, 2) == 3 and c.value(2, 1) == -3


def test_h1_of_contractible_complex_is_empty():
    assert sy.h1_basis(sy.build_complex([[1, 2, 3]])) == []


def test_h1_dimensions_match_surface_euler(rp2, torus7):
    # closed surfaces: dim H^1(Z2) = 2 - Euler characteristic
    assert len(sy.h1_basis(rp2)) == 2 - rp2.euler_characteristic() == 1
    assert len(sy.h1_basis(torus7)) == 2 - torus7.euler_characteristic() == 2


# sha256 of the sorted edge support of each h1_basis member, in order, as
# computed when kernel_basis still read its vectors off a full RREF
H1_DIGESTS = {
    "rp2-six": "1500994943b5ead7f7cae3665a4f273c222f8d7df48a0b7fc0992799099f5423",
    "torus-seven": "2d5a2eb4d72a86ca4b9144b5eb087158372b8dc6ca1e80072c260cc0ae261d51",
    (3, 8): "21cdcc32464d29ca6f0e72d2f826cb0bc757963b7cc55937b5285a47561a088f",
    (4, 4): "14fc063d75dc0b5dcab2abacfb299940bb6fe93efd3c06dea345bb3cd0894e65",
    (2, 6): "01380a7c641f271e69bdfe627f59fb11cbab767db9feea0e179f77ef761a68b4",
    (3, 5): "babae86baaecb6e0bd6331d32d0097df262ede01c11d92e5f84a537173d4ba6e",
    (4, 5): "519ffb397fd38e9610f5bcc9626f712311d8174420cc6388badecdab2217f253",
}


@pytest.mark.parametrize("key", list(H1_DIGESTS), ids=str)
def test_h1_basis_output_is_pinned(key):
    X = sy.gen_named(key) if isinstance(key, str) else sy.gen_projective_space(*key)[0]
    h = hashlib.sha256()
    for c in sy.h1_basis(X):
        h.update(repr(sorted(c.values)).encode())
        h.update(b"\0")
    assert h.hexdigest() == H1_DIGESTS[key]


@functools.cache
def _closed_complexes():
    return (sy.gen_named("rp2-six"), sy.gen_named("torus-seven"),
            sy.gen_projective_space(2, 4)[0], sy.gen_projective_space(3, 3)[0])


def _random_complex(rng):
    """Either a random thinning of a small closed surface or 3-manifold,
    some facets broken into their ridges (so peeling leaves triangles for
    the elimination), or up to three vertex-disjoint blocks of random faces
    of dimension at most 3, with isolated vertices and closed polygons.
    Labels may start at -1."""
    if rng.random() < 0.3:
        keep = rng.choice([0.5, 0.8, 0.95, 1.0])
        facets = []
        for f in rng.choice(_closed_complexes()).facets:
            if rng.random() < keep:
                ridges = [f[:i] + f[i + 1:] for i in range(len(f)) if rng.random() < 0.7]
                facets += ridges if rng.random() < 0.1 else [f]
        return sy.build_complex(facets or [(0,)])
    facets = []
    lo = rng.choice([-1, 0, 5])
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 8)
        verts = list(range(lo, lo + k))
        for _ in range(rng.randint(1, 14)):
            facets.append(rng.sample(verts, rng.randint(1, min(4, k))))
        if k >= 3 and rng.random() < 0.3:
            facets += [(verts[i], verts[(i + 1) % k]) for i in range(k)]
        lo += k
    return sy.build_complex(facets)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_h1_basis_equals_full_elimination(seed):
    X = _random_complex(random.Random(seed))
    assert sy.h1_basis(X) == reference_h1_basis(X)


@pytest.mark.parametrize("facets", [
    [(i, (i + 1) % 7) for i in range(7)],
    [(i, (i + 1) % 4) for i in range(4)] + [(10 + i, 10 + (i + 1) % 5) for i in range(5)] + [(20,)],
    list(sy.gen_complete_graph(7).facets),
    [(1, 2, 3), (3, 4), (4, 5), (5, 1), (-1,), (7, 8)],
], ids=["polygon", "two-polygons-and-a-point", "K7", "triangle-with-handle"])
def test_h1_basis_on_graphs_and_disconnected_complexes(facets):
    # on a graph every edge off the spanning forest is free
    X = sy.build_complex(facets)
    basis = sy.h1_basis(X)
    assert basis == reference_h1_basis(X)
    if X.dim == 1:
        rank = len(X.faces(1)) - X.num_vertices + len(X.components())
        assert len(basis) == rank


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_boruvka_forest_is_kruskals(seed):
    """On graphs with several components and isolated vertices, edges in
    key order or shuffled: the Borůvka forest keeps the edges that Kruskal
    keeps from the highest index down."""
    rng = random.Random(seed)
    nv = rng.randint(1, 14)
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)
             if rng.random() < rng.choice([0.1, 0.3, 0.7])]
    if rng.random() < 0.5:
        rng.shuffle(pairs)
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    tree = sy.cochains._spanning_forest(edges[:, 0], edges[:, 1], nv)
    assert set(np.flatnonzero(tree).tolist()) == kruskal_forest(pairs, nv)


def test_h1_basis_members_are_noncoboundary_cocycles(rp2, torus7):
    for X in (rp2, torus7):
        for c in sy.h1_basis(X):
            assert sy.is_cocycle(c)
            assert not sy.restriction_is_zero(c, X.vertices)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_coboundary_squared_is_zero(seed):
    rng = random.Random(seed)
    X = sy.gen_named("rp2-six")
    g = {v: rng.randrange(2) for v in X.vertices}
    dg = vertex_coboundary(X, g)
    assert sy.is_cocycle(dg)
    assert coboundary(sy.CochainK(X, 1, list(dg.values))).is_zero()


def test_coboundary_squared_vanishes_in_degree_two():
    # needs a complex with 3-faces for the degree 1 -> 2 -> 3 composite
    Q, _, _ = sy.gen_projective_space(3, 3)
    rng = random.Random(5)
    for _ in range(10):
        support = [e for e in Q.faces(1) if rng.randrange(2)]
        dc = coboundary(sy.CochainK(Q, 1, support))
        assert coboundary(dc).is_zero()


def test_cup_of_zero_classes_is_zero(rp2):
    z = sy.Cochain1(rp2, {})
    assert sy.cup_power([z, z]).is_zero()


def test_cup_single_class_is_the_class(rp2, rp2_class):
    one = sy.cup_power([rp2_class])
    assert one.degree == 1
    assert one.support == frozenset(rp2_class.values)


def test_cup_degree_error(rp2, rp2_class):
    with pytest.raises(DimensionError):
        sy.cup_power([rp2_class] * 3)


def test_cup_refuses_a_non_cocycle():
    # 1 on one edge of the filled triangle has coboundary 1 on the triangle
    tri = sy.build_complex([[0, 1, 2]])
    with pytest.raises(CocycleError):
        sy.cup_power([sy.Cochain1(tri, {(0, 1): 1})] * 2)


def test_cup_checks_each_distinct_class_once(monkeypatch, torus_classes):
    checked = []
    real = sy.cochains.is_cocycle
    monkeypatch.setattr(sy.cochains, "is_cocycle", lambda c: checked.append(c) or real(c))
    a, b = torus_classes
    sy.cup_power([a] * 2)
    assert checked == [a]
    checked.clear()
    sy.cup_power([a, b])
    assert checked == [a, b]


def test_each_cochain_is_checked_for_the_cocycle_property_once(monkeypatch):
    checked = []
    real = sy.cochains._coboundary_vanishes
    monkeypatch.setattr(sy.cochains, "_coboundary_vanishes",
                        lambda c: checked.append(c) or real(c))
    Q, xi = sy.quotient(sy.gen_symmetric_sphere(2, 4))
    sy.build_cover(Q, xi, 2)
    assert sy.class_is_nonzero(sy.cup_power([xi] * 2, Q))
    assert sy.is_cocycle(xi)
    assert checked == [xi]
    broken = sy.Cochain1(sy.build_complex([[0, 1, 2]]), {(0, 1): 1})
    for _ in range(2):
        with pytest.raises(CocycleError):
            sy.build_cover(broken.complex, broken, 2)
        with pytest.raises(CocycleError):
            sy.cup_power([broken] * 2)
    assert checked == [xi, broken]


def test_cup_square_on_rp2_is_nonzero(rp2, rp2_class):
    square = sy.cup_power([rp2_class, rp2_class])
    assert sy.class_is_nonzero(square)
    # fundamental-class pairing oracle on a closed surface: a 2-cochain is a
    # coboundary iff its total weight is even
    assert len(square.support) % 2 == 1


def test_torus_cup_pairing(torus_classes):
    a, b = torus_classes
    assert not sy.class_is_nonzero(sy.cup_power([a, a]))
    assert not sy.class_is_nonzero(sy.cup_power([b, b]))
    assert sy.class_is_nonzero(sy.cup_power([a, b]))
    assert len(sy.cup_power([a, b]).support) % 2 == 1
    assert len(sy.cup_power([a, a]).support) % 2 == 0


def test_zero_class_is_zero(rp2):
    assert not sy.class_is_nonzero(sy.CochainK(rp2, 2, []))


def test_cup_output_is_cocycle_when_higher_faces_exist():
    Q, xi, _ = sy.gen_projective_space(3, 3)
    square = sy.cup_power([xi, xi])
    assert square.degree == 2
    assert coboundary(square).is_zero()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_class_nonzero_invariant_under_coboundary_shift(seed):
    rng = random.Random(seed)
    X = sy.gen_named("rp2-six")
    xi = sy.h1_basis(X)[0]
    g = {v: rng.randrange(2) for v in X.vertices}
    shifted = xi + vertex_coboundary(X, g)
    assert sy.is_cocycle(shifted)
    before = sy.class_is_nonzero(sy.cup_power([xi, xi]))
    after = sy.class_is_nonzero(sy.cup_power([shifted, xi]))
    both = sy.class_is_nonzero(sy.cup_power([shifted, shifted]))
    assert before == after == both


def test_torus_pairing_invariant_under_coboundary_shift(torus7, torus_classes):
    rng = random.Random(2)
    a, b = torus_classes
    for _ in range(15):
        ga = {v: rng.randrange(2) for v in torus7.vertices}
        gb = {v: rng.randrange(2) for v in torus7.vertices}
        sa = a + vertex_coboundary(torus7, ga)
        sb = b + vertex_coboundary(torus7, gb)
        assert sy.class_is_nonzero(sy.cup_power([sa, sb]))
        assert not sy.class_is_nonzero(sy.cup_power([sa, sa]))


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 5) for s in range(3, 6)])
def test_top_class_is_its_parity_on_grid_quotients(n, s):
    # every grid quotient is a closed Z2-pseudomanifold with a connected dual
    # graph, so a top-degree class is nonzero iff its support is odd
    Q, xi, _ = sy.gen_projective_space(n, s)
    cup = sy.cup_power([xi] * n, Q)
    assert parity_class_is_nonzero(cup) is True
    assert sy.class_is_nonzero(cup)
    rng = random.Random(f"{n}/{s}")
    facets = sorted(Q.faces(n))
    for size in (1, 2, len(facets) // 2, len(facets) // 2 + 1):
        c = sy.CochainK(Q, n, rng.sample(facets, size))
        assert sy.class_is_nonzero(c) == parity_class_is_nonzero(c) == (size % 2 == 1)


def test_restriction_to_tree_is_zero(rp2, rp2_class):
    assert sy.restriction_is_zero(rp2_class, {1, 2})
    assert sy.restriction_is_zero(rp2_class, {3})


def test_restriction_to_whole_rp2_is_nonzero(rp2, rp2_class):
    assert not sy.restriction_is_zero(rp2_class, rp2.vertices)


def test_restriction_to_triples_of_rp2(rp2, rp2_class):
    # face triples bound a 2-face, so the cocycle condition kills the loop;
    # the ten non-face triples each carry a shortest nontrivial loop.
    from itertools import combinations
    faces = set(rp2.faces(2))
    for triple in combinations(rp2.vertices, 3):
        expected = triple in faces
        assert sy.restriction_is_zero(rp2_class, set(triple)) == expected
        assert brute_restriction_is_zero(rp2_class, set(triple)) == expected


def test_restriction_agrees_with_cycle_enumeration_on_random_subsets(rp2, torus7):
    rng = random.Random(11)
    for X in (rp2, torus7):
        for c in sy.h1_basis(X):
            for _ in range(40):
                w = {v for v in X.vertices if rng.randrange(2)}
                if not w:
                    continue
                assert sy.restriction_is_zero(c, w) == brute_restriction_is_zero(c, w)


def test_restriction_accepts_induced_subcomplex(rp2, rp2_class):
    sub = sy.induced(rp2, {1, 2, 3})
    assert sy.restriction_is_zero(rp2_class, sub)


@functools.cache
def _degree_two_cups():
    cups = {}
    for s in (3, 4, 5):
        Q, xi, _ = sy.gen_projective_space(3, s)
        cups[f"rp3-s{s}"] = sy.cup_power([xi, xi], Q)
    a, b = sy.h1_basis(sy.gen_named("torus-seven"))
    for name, pair in {"aa": [a, a], "ab": [a, b], "ba": [b, a], "bb": [b, b]}.items():
        cups[f"torus-{name}"] = sy.cup_power(pair)
    return cups


@pytest.mark.parametrize("key,nonzero", [("rp3-s3", True), ("rp3-s4", True), ("rp3-s5", True),
                                         ("torus-aa", False), ("torus-ab", True),
                                         ("torus-ba", True), ("torus-bb", False)])
def test_class_is_nonzero_matches_plain_elimination(key, nonzero):
    # xi^2 on RP^3 is below top degree, where columns of weight 3 or more
    # survive the peel and reach elimination
    c = _degree_two_cups()[key]
    X, k = c.complex, c.degree
    assert sy.class_is_nonzero(c) == brute_class_is_nonzero(c) == nonzero
    rng = random.Random(key)
    ridges = sorted(X.faces(k - 1))
    for _ in range(3):
        dg = coboundary(sy.CochainK(X, k - 1, [t for t in ridges if rng.randrange(2)]))
        assert not dg.is_zero()
        assert sy.class_is_nonzero(dg) is brute_class_is_nonzero(dg) is False
        shifted = sy.CochainK(X, k, c.support ^ dg.support)
        assert sy.class_is_nonzero(shifted) == brute_class_is_nonzero(shifted) == nonzero


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_cup_and_class_test_match_the_face_loop_and_plain_elimination(seed):
    """Products of H^1 classes, shifted by coboundaries, in every degree up
    to the top one, and cochains with random supports: the cup's support is
    the Alexander-Whitney loop over ``faces(n)`` and the verdict that of
    plain elimination."""
    rng = random.Random(seed)
    X = _random_complex(rng)
    basis = sy.h1_basis(X)
    if basis and X.dim >= 1:
        n = rng.randint(1, min(X.dim, 3))
        classes = [rng.choice(basis) for _ in range(n)]
        classes = [c + vertex_coboundary(X, {v: rng.randrange(2) for v in X.vertices})
                   if rng.random() < 0.5 else c for c in classes]
        cup = sy.cup_power(classes)
        assert cup.degree == n and cup.support == brute_cup_power(classes)
        assert sy.class_is_nonzero(cup) == brute_class_is_nonzero(cup)
    for k in range(1, X.dim + 1):
        faces = sorted(X.faces(k))
        c = sy.CochainK(X, k, [f for f in faces if rng.random() < 0.4])
        assert sy.class_is_nonzero(c) == brute_class_is_nonzero(c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31))
def test_face_rows_are_the_sorted_faces(seed):
    X = _random_complex(random.Random(seed))
    index = X.vertex_index()
    for k in range(X.dim + 2):
        rows = X.face_rows(k)
        assert rows.shape[1] == k + 1
        assert rows.tolist() == [[index[v] for v in f] for f in sorted(X.faces(k))]


def test_face_keys_rank_prefixes_instead_of_overflowing():
    # a strip of triangles (i, i+1, i+2) on V vertices and the boundary of
    # a 5-simplex on six of them, no three consecutive: a 4-sphere whose
    # row keys in base V would pass 2**63, so they rank their prefixes
    V = 50_000
    assert V ** 5 > 2 ** 63
    i = np.arange(V - 2)
    S = [0, 2, 4, V - 5, V - 3, V - 1]
    sphere = np.array([f for f in itertools.combinations(S, 5)])
    X = sy.SimplicialComplex._from_index_rows([np.column_stack([i, i + 1, i + 2]), sphere], V)
    assert X.face_rows(4).tolist() == sorted(map(list, X.faces(4)))
    assert X.face_rows(3).tolist() == sorted(map(list, X.faces(3)))
    assert X.face_rows(4).tolist() == sphere.tolist()  # combinations come sorted
    for ids, nonzero in [([4], True), ([0, 1], False), ([1, 2, 3, 4, 5], True)]:
        c = sy.CochainK(X, 4, map(tuple, sphere[ids]))
        assert sorted(c._ids.tolist()) == ids
        assert sy.class_is_nonzero(c) is brute_class_is_nonzero(c) is nonzero

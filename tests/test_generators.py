import hashlib
import time
from itertools import combinations

import numpy as np
import pytest

import systola as sy
from systola.complexes import SimplicialComplex
from systola import generators
from systola.errors import CapacityError, ParameterError, QuotientError
from systola.generators import MAX_FIXTURE_FACETS, MAX_QUOTIENT_FACETS, SymmetricComplex, \
    quotient_facet_count


def _check_symmetry(sc: SymmetricComplex):
    X, tau, lab = sc.complex, sc.involution, sc.labels
    assert set(tau) == set(X.vertices)
    for v in X.vertices:
        assert tau[tau[v]] == v and tau[v] != v
        assert lab[tau[v]] == -lab[v]
    assert len({abs(lab[v]) for v in X.vertices}) == X.num_vertices // 2
    facet_set = set(X.facets)
    for f in X.facets:
        image = tuple(sorted(tau[v] for v in f))
        assert image in facet_set
        assert image != f
    # freeness on all faces: no face may contain an antipodal pair
    edges = X.faces(1)
    for v in X.vertices:
        assert tuple(sorted((v, tau[v]))) not in edges


def test_polygon_sphere_base_case():
    sc = sy.gen_symmetric_sphere(1, 3)
    assert sc.complex.num_vertices == 6
    assert all(len(sc.complex.adjacency()[v]) == 2 for v in sc.complex.vertices)
    _check_symmetry(sc)


@pytest.mark.parametrize("n,s,expected", [(2, 3, 14), (2, 4, 26), (3, 3, 30)])
def test_sphere_vertex_recurrence(n, s, expected):
    sc = sy.gen_symmetric_sphere(n, s)
    assert sc.complex.num_vertices == expected
    assert sc.complex.num_vertices <= 2 * s ** n
    _check_symmetry(sc)


@pytest.mark.parametrize("n,s", [(1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_sphere_topology_checks(n, s):
    sc = sy.gen_symmetric_sphere(n, s)
    X = sc.complex
    assert X.dim == n
    assert X.euler_characteristic() == 1 + (-1) ** n
    assert len(X.components()) == 1
    # closed pseudomanifold: every ridge sits in exactly two facets
    from collections import Counter
    ridge_count = Counter()
    for f in X.facets:
        for i in range(len(f)):
            ridge_count[f[:i] + f[i + 1:]] += 1
    assert set(ridge_count.values()) == {2}


def test_parameter_errors():
    with pytest.raises(ParameterError):
        sy.gen_symmetric_sphere(0, 3)
    with pytest.raises(ParameterError):
        sy.gen_symmetric_sphere(2, 2)


@pytest.mark.parametrize("n, s", [(True, 4), (2.0, 4), (2, 4.0), (1, True), ("2", 4)])
def test_sphere_size_arguments_are_not_coerced(n, s):
    with pytest.raises(ParameterError):
        sy.gen_symmetric_sphere(n, s)


def test_quotient_facet_count_matches_the_built_quotients():
    for n in range(1, 4):
        for s in range(3, 9):
            Q, _ = sy.quotient(sy.gen_symmetric_sphere(n, s))
            assert len(Q.facets) == quotient_facet_count(n, s)
    assert quotient_facet_count(4, 8) == 8 * 14 * 20 * 26
    assert quotient_facet_count(5, 6) == 332_640


def test_oversized_sphere_is_refused_before_building(monkeypatch):
    monkeypatch.setattr(generators, "_polygon_sphere", None)  # nothing may be built
    assert quotient_facet_count(9, 3) > MAX_QUOTIENT_FACETS
    with pytest.raises(CapacityError, match="facets"):
        sy.gen_symmetric_sphere(9, 3)
    with pytest.raises(CapacityError):
        sy.gen_symmetric_sphere(4, 40)


def test_oversized_fixtures_are_refused_before_building(monkeypatch):
    assert 40_000 <= MAX_FIXTURE_FACETS  # the CI forest guard's polygon
    monkeypatch.setattr(generators, "SimplicialComplex", None)  # nothing may be built
    with pytest.raises(CapacityError, match=r"^the 30000000-gon would have 30,000,000 facets, "
                                            r"above the cap of 65,536$"):
        sy.gen_polygon(30_000_000)
    with pytest.raises(CapacityError, match="449,985,000 facets"):
        sy.gen_complete_graph(30_000)
    for name in (f"polygon-{MAX_FIXTURE_FACETS + 1}", "complete-363"):  # 363·362/2 = 65,703
        with pytest.raises(CapacityError, match="facets, above the cap"):
            sy.gen_named(name)


def test_fixture_caps_admit_their_limit(monkeypatch):
    monkeypatch.setattr(generators, "MAX_FIXTURE_FACETS", 10)
    assert len(sy.gen_polygon(10).facets) == 10
    assert len(sy.gen_complete_graph(5).facets) == 10
    with pytest.raises(CapacityError):
        sy.gen_polygon(11)
    with pytest.raises(CapacityError):
        sy.gen_complete_graph(6)


def test_a_huge_sphere_is_refused_before_its_count_is_multiplied_out():
    # all 10**6 factors multiplied out would take minutes; the refusal stops
    # once the running product passes the cap
    t0 = time.monotonic()
    with pytest.raises(CapacityError, match=r"more than 1,000,000 facets"):
        sy.gen_symmetric_sphere(10 ** 6, 3)
    assert time.monotonic() - t0 < 1
    assert quotient_facet_count(9, 3) == 3 * 4 * 5 * 6 * 7 * 8 * 9 * 10 * 11  # still exact


def test_layer_structure_of_suspension():
    # cross-layer edges project to edges of the previous sphere (or are
    # vertical), and edges never skip a layer
    s = 4
    base = sy.gen_symmetric_sphere(1, s)
    m = base.complex.num_vertices
    sc = sy.gen_symmetric_sphere(2, s)
    X = sc.complex
    south, north = (s - 1) * m, (s - 1) * m + 1

    def layer_of(v):
        return None if v >= (s - 1) * m else v // m + 1

    def base_vertex(v):
        return v % m

    base_edges = base.complex.faces(1)
    for u, v in X.faces(1):
        lu, lv = layer_of(u), layer_of(v)
        if lu is None or lv is None:
            continue  # pole cone edges
        assert abs(lu - lv) <= 1
        if lu != lv:
            bu, bv = base_vertex(u), base_vertex(v)
            assert bu == bv or tuple(sorted((bu, bv))) in base_edges
    # poles are adjacent exactly to the first and last layers
    assert set(X.adjacency()[south]) == {vid for vid in range(m)}
    assert set(X.adjacency()[north]) == {vid for vid in range((s - 2) * m, (s - 1) * m)}


def test_hexagon_quotient_is_triangle():
    Q, xi, _ = sy.gen_projective_space(1, 3)
    assert Q.num_vertices == 3
    assert sy.f_vector(Q).counts == (3, 3)
    assert sum(xi.values.values()) % 2 == 1


@pytest.mark.parametrize("n,s", [(1, 4), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_quotient_cocycle_reconstructs_the_sphere(n, s):
    Q, xi, sphere = sy.gen_projective_space(n, s)
    assert sy.is_cocycle(xi)
    cover = sy.build_cover(Q, xi, 2)
    T, S = cover.total_complex, sphere.complex
    assert T.num_vertices == S.num_vertices
    assert len(T.faces(1)) == len(S.faces(1))
    assert len(T.facets) == len(S.facets)
    # explicit isomorphism: sheet 0 -> section, sheet 1 -> antipode
    reps = sorted({v if sphere.labels[v] > 0 else sphere.involution[v]
                   for v in S.vertices})
    iso = {}
    for q, rv in enumerate(reps):
        iso[(q, 0)] = rv
        iso[(q, 1)] = sphere.involution[rv]
    mapped = {tuple(sorted(iso[v] for v in f)) for f in T.facets}
    assert mapped == set(S.facets)


@pytest.mark.parametrize("n,s", [(2, 3), (2, 4), (2, 5)])
def test_quotients_are_cup_essential(n, s):
    Q, xi, _ = sy.gen_projective_space(n, s)
    assert sy.class_is_nonzero(sy.cup_power([xi] * n, Q))


def test_quotient_vertex_budget_small_grid():
    for n in (1, 2, 3):
        for s in (3, 4, 5):
            Q, _, sphere = sy.gen_projective_space(n, s)
            assert Q.num_vertices * 2 == sphere.complex.num_vertices
            assert Q.num_vertices <= s ** n


def test_measured_systole_matches_parameter_small_grid():
    for n, s in [(1, 5), (2, 3), (2, 6), (3, 4)]:
        Q, xi, _ = sy.gen_projective_space(n, s)
        assert sy.loop_norm(Q, xi) == s


def test_three_path_families_realise_the_systole():
    # paths within layers, pole to pole, and through a pole all have
    # length >= s; the pole-to-pole vertical path realises s exactly
    s = 5
    Q, xi, sphere = sy.gen_projective_space(2, s)
    X = sphere.complex
    tau = sphere.involution
    m = sy.gen_symmetric_sphere(1, s).complex.num_vertices
    south, north = (s - 1) * m, (s - 1) * m + 1
    assert tau[south] == north
    assert sy.edge_distance(X, south, north) == s
    in_layer = 0  # vertex of the first layer
    assert sy.edge_distance(X, in_layer, tau[in_layer]) >= s
    assert min(sy.edge_distance(X, v, tau[v]) for v in X.vertices) == s


# sha256 of the sphere, its involution and labels, Q and xi, as generated
# before the vertex ids came by arithmetic and the quotient by one edge pass;
# (3, 8) and (4, 8) as generated by the dict-and-tuple code, before the
# sphere and its quotient moved to arrays
GENERATOR_DIGESTS = {
    (1, 8): "7b4c5eb2f69c7793f04f32af07e7c13eb57ceee49123c5fd46d71c3c00f3649d",
    (2, 7): "8476aafbf3654313aae13fc3ad59cdd68ac7612fbb5a57a3d0d83426bb328518",
    (3, 6): "ea95a1892f072a1ec65b4762c6729ce0183676894a04f09a71d8cdb740a9165c",
    (3, 8): "853f3317789cb3bcffd2a276217b5d72fb6c415ace7f068a99a1c8a2322f6e71",
    (4, 6): "b580f14445579129c3497e0b606b88ebb8d809638bc83cefceb6231731dce909",
    (4, 8): "07137b1613b46cd632fad65cd87206cd6c85495117a381cf9c4b6e8f2ea8b11a",
}


@pytest.mark.parametrize("n,s", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(n, s):
    sphere = sy.gen_symmetric_sphere(n, s)
    Q, xi = sy.quotient(sphere)
    h = hashlib.sha256()
    for part in (sy.dumps_complex(sphere.complex), repr(sorted(sphere.involution.items())),
                 repr(sorted(sphere.labels.items())), sy.dumps_complex(Q),
                 sy.dumps_cochain(xi)):
        h.update(part.encode())
        h.update(b"\0")
    assert h.hexdigest() == GENERATOR_DIGESTS[(n, s)]


def test_generated_sphere_views_hold_plain_ints():
    sphere = sy.gen_symmetric_sphere(3, 4)
    for view in (sphere.involution, sphere.labels):
        assert all(type(v) is int and type(x) is int for v, x in view.items())
    assert all(type(v) is int for f in sphere.complex.facets for v in f)


def test_a_generated_sphere_hands_out_read_only_views():
    # the quotient reads the arrays the views were made from, so an edit in
    # place is refused, and an edited copy is read as given
    sphere = sy.gen_symmetric_sphere(1, 4)
    for view in (sphere.involution, sphere.labels):
        with pytest.raises(TypeError):
            view[0] = 1
    edited = SymmetricComplex(sphere.complex, {**sphere.involution, 0: 1}, sphere.labels)
    with pytest.raises(QuotientError, match="free order-2"):
        sy.quotient(edited)
    assert sy.quotient(sphere)[0] == sy.gen_polygon(4)


@pytest.mark.parametrize("n,s", [(1, 5), (2, 4), (3, 4)])
def test_hand_built_sphere_quotients_like_the_generated_one(n, s):
    sphere = sy.gen_symmetric_sphere(n, s)
    Q, xi = sy.quotient(sphere)
    same = SymmetricComplex(sphere.complex, sphere.involution, sphere.labels)
    shifted = SymmetricComplex(
        SimplicialComplex([tuple(v + 10 for v in f) for f in sphere.complex.facets]),
        {v + 10: w + 10 for v, w in sphere.involution.items()},
        {v + 10: x for v, x in sphere.labels.items()})
    for hand in (same, shifted):
        Qh, xih = sy.quotient(hand)
        assert Qh == Q and Qh.vertices == Q.vertices
        assert xih.values == xi.values and sy.dumps_cochain(xih) == sy.dumps_cochain(xi)
        _assert_same_views(Qh)


def _assert_same_views(Q):
    """Q, built from index rows, equals in every view the complex built from
    its facet tuples, whose edges are checked against the facets directly."""
    fresh = SimplicialComplex(Q.facets)
    assert fresh.faces(1) == {e for f in fresh.facets for e in combinations(f, 2)}
    assert (Q.facets, Q.vertices, Q.dim) == (fresh.facets, fresh.vertices, fresh.dim)
    assert all(Q.faces(k) == fresh.faces(k) for k in range(-1, Q.dim + 2))
    assert Q.adjacency() == fresh.adjacency()
    assert len(Q.facet_rows()) == len(fresh.facet_rows())
    for a, b in zip(Q.facet_rows(), fresh.facet_rows()):
        assert np.issubdtype(a.dtype, np.integer) and np.array_equal(a, b)
    assert Q.edge_keys().dtype == fresh.edge_keys().dtype == np.int64
    assert np.array_equal(Q.edge_keys(), fresh.edge_keys())
    assert Q == fresh and repr(Q) == repr(fresh)


@pytest.mark.parametrize("n, s", [(n, s) for n in range(1, 5) for s in range(3, 7)])
def test_quotient_seeds_the_index_views_it_would_derive(n, s):
    Q, _ = sy.quotient(sy.gen_symmetric_sphere(n, s))
    _assert_same_views(Q)


def _antipodal(facets, pairs):
    """Hand-built SymmetricComplex: pair i is (v, w) with labels i + 1, -(i + 1)."""
    tau, lab = {}, {}
    for i, (v, w) in enumerate(pairs):
        tau[v], tau[w] = w, v
        lab[v], lab[w] = i + 1, -(i + 1)
    return SymmetricComplex(sy.build_complex(facets), tau, lab)


def _octagon():
    return sy.gen_symmetric_sphere(1, 4)


def test_quotient_rejects_bad_involution():
    sphere = _octagon()
    vs = sphere.complex.vertices
    for involution in ({v: v for v in vs}, {v: (v + 4) % 8 for v in vs if v != 3}):
        broken = SymmetricComplex(sphere.complex, involution, sphere.labels)
        with pytest.raises(QuotientError, match="free order-2"):
            sy.quotient(broken)


def test_quotient_takes_numpy_integer_images():
    sphere = _octagon()
    want = sy.quotient(sphere)
    for image in (np.int32, np.int64):
        Q, xi = sy.quotient(SymmetricComplex(
            sphere.complex, {v: image(w) for v, w in sphere.involution.items()}, sphere.labels))
        assert Q == want[0] and xi.values == want[1].values


@pytest.mark.parametrize("relabel", [abs, lambda x: 0 if abs(x) == 2 else x],
                         ids=["all-positive", "zero-pair"])
def test_quotient_rejects_labels_not_negated_by_the_involution(relabel):
    sphere = _octagon()
    broken = SymmetricComplex(sphere.complex, sphere.involution,
                              {v: relabel(x) for v, x in sphere.labels.items()})
    with pytest.raises(QuotientError, match="labels"):
        sy.quotient(broken)


def test_quotient_rejects_an_antipodal_edge():
    square = _antipodal([(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1), (2, 3)])
    with pytest.raises(QuotientError, match="share an edge"):
        sy.quotient(square)


def test_quotient_errors_name_the_sphere_vertices():
    square = _antipodal([(10, 11), (11, 12), (12, 13), (10, 13)], [(10, 11), (12, 13)])
    with pytest.raises(QuotientError, match="antipodal vertices 10, 11 share an edge"):
        sy.quotient(square)
    hexagon = _antipodal([(10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (10, 15)],
                         [(10, 13), (11, 14), (12, 15)])
    hexagon.labels[14] = 0
    with pytest.raises(QuotientError, match="labels of antipodes 11, 14 are not"):
        sy.quotient(hexagon)


def test_quotient_rejects_an_edge_whose_image_is_no_edge():
    sphere = _octagon()
    chorded = SymmetricComplex(SimplicialComplex(sphere.complex.facets + ((0, 2),)),
                               sphere.involution, sphere.labels)
    with pytest.raises(QuotientError, match="no edge as its antipodal image"):
        sy.quotient(chorded)


def test_quotient_names_the_first_edge_whose_image_is_no_edge():
    # the octagon a..h (v and v + 4 antipodal) with the chords d-f and f-h, whose
    # images h-b and b-d are no edges; d-f is the sixth edge in sorted order
    names = "abcdefgh"
    rim = [(names[i], names[(i + 1) % 8]) for i in range(8)]
    sphere = _antipodal(rim + [("d", "f"), ("f", "h")], [(names[i], names[i + 4]) for i in range(4)])
    assert sorted(sphere.complex.faces(1)).index(("d", "f")) == 5
    with pytest.raises(QuotientError) as caught:
        sy.quotient(sphere)
    assert str(caught.value) == "edge ('d', 'f') has no edge as its antipodal image"


def test_quotient_rejects_an_ambiguous_lift_in_dimension_2():
    # the octahedron: each vertex is adjacent to both ends of every other
    # antipodal pair, so each quotient edge has lifts of both sheet changes
    octahedron = _antipodal([(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)],
                            [(0, 3), (1, 4), (2, 5)])
    with pytest.raises(QuotientError, match="lifts ambiguously"):
        sy.quotient(octahedron)


def test_quotient_rejects_a_facet_without_its_antipode():
    sphere = sy.gen_symmetric_sphere(2, 3)
    holed = SymmetricComplex(SimplicialComplex(sphere.complex.facets[1:]),
                             sphere.involution, sphere.labels)
    assert holed.complex.faces(1) == sphere.complex.faces(1)
    with pytest.raises(QuotientError, match="identification conflict"):
        sy.quotient(holed)


def test_named_fixtures(rp2, torus7):
    assert sy.f_vector(rp2).counts == (6, 15, 10)
    assert sy.f_vector(torus7).counts == (7, 21, 14)
    assert torus7.euler_characteristic() == 0
    k7 = sy.gen_named("complete-7")
    assert sy.f_vector(k7).counts == (7, 21)
    assert sy.f_vector(sy.gen_named("polygon-6")).counts == (6, 6)
    with pytest.raises(ParameterError):
        sy.gen_named("mystery-thing")


def test_fixture_surfaces_are_closed(rp2, torus7):
    from collections import Counter
    for X in (rp2, torus7):
        counts = Counter()
        for f in X.facets:
            for i in range(3):
                counts[f[:i] + f[i + 1:]] += 1
        assert set(counts.values()) == {2}


def test_generated_quotient_face_lattice_closed():
    Q, _, _ = sy.gen_projective_space(2, 4)
    assert sum(sy.f_vector(Q).counts) < 10_000
    for k in range(1, Q.dim + 1):
        for face in Q.faces(k):
            for i in range(len(face)):
                assert face[:i] + face[i + 1:] in Q.faces(k - 1)

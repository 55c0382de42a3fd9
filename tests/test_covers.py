import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola.cochains import vertex_coboundary
from systola.complexes import _bfs
from systola.covers import _check_witness, _holonomy_scan, _mask_mixes_fibers
from systola.errors import CapacityError, CocycleError, ParameterError, UnknownVertexError

from oracles import brute_cover_trivial_over, brute_homotopy_radius, \
    integer_restriction_is_zero


def _cycle(m):
    return sy.gen_polygon(m)


def _cycle_class(X):
    e = sorted(X.faces(1))[0]
    return sy.Cochain1(X, {e: 1})


def test_double_cover_of_cycle_is_double_cycle():
    X = _cycle(3)
    cov = sy.build_cover(X, _cycle_class(X), 2)
    T = cov.total_complex
    assert T.num_vertices == 6
    assert len(T.faces(1)) == 6
    assert len(T.components()) == 1
    assert all(len(T.adjacency()[v]) == 2 for v in T.vertices)


def test_trivial_cover_splits():
    X = _cycle(3)
    cov = sy.build_cover(X, sy.Cochain1(X, {}), 2)
    assert len(cov.total_complex.components()) == 2
    assert sy.cover_systole(cov) == sy.INFINITY


def test_rp2_double_cover_is_the_twelve_vertex_sphere(rp2, rp2_class):
    cov = sy.build_cover(rp2, rp2_class, 2)
    T = cov.total_complex
    assert T.num_vertices == 12
    assert T.euler_characteristic() == 2
    assert len(T.components()) == 1
    assert all(len(T.adjacency()[v]) == 5 for v in T.vertices)
    # deck involution is fixed-point free
    assert all(cov.deck(v) != v for v in T.vertices)


def test_non_cocycle_rejected():
    X = sy.build_complex([[1, 2, 3]])
    with pytest.raises(CocycleError):
        sy.build_cover(X, sy.Cochain1(X, {(1, 2): 1}), 2)


@pytest.mark.parametrize("fiber, on_other, ring, match", [
    (1, False, sy.RING_Z, "fiber size"),
    (2, True, sy.RING_Z2, "different complex"),
    (3, False, sy.RING_Z2, "integer values"),
])
def test_build_cover_refusals(fiber, on_other, ring, match):
    X = _cycle(5)
    xi = sy.Cochain1(_cycle(5) if on_other else X, {(0, 1): 1}, ring)
    with pytest.raises(ParameterError, match=match):
        sy.build_cover(X, xi, fiber)


def test_build_cover_refuses_a_non_integer_fiber():
    X = _cycle(8)
    xz = sy.Cochain1(X, {(0, 1): 1}, sy.RING_Z)
    for bad in (2.5, 2.0, "3", True, None):
        with pytest.raises(ParameterError, match="fiber size must be an integer at least 2"):
            sy.build_cover(X, xz, bad)
    cov = sy.build_cover(X, xz, np.int64(3))
    assert cov.fiber == 3 and type(cov.fiber) is int
    assert sy.cover_systole(cov) == 8


@pytest.mark.parametrize("fiber", [10 ** 11, 10 ** 23])
def test_oversized_total_graph_refused_before_any_array(monkeypatch, fiber):
    X = _cycle(8)
    cov = sy.build_cover(X, sy.Cochain1(X, {(0, 1): 1}, sy.RING_Z), fiber)
    for build in ("array", "arange", "zeros"):  # an array build would raise TypeError
        monkeypatch.setattr(sy.covers.np, build, None)
    for measure in (sy.cover_systole, sy.homotopy_triviality_radius):
        with pytest.raises(CapacityError, match="total graph"):
            measure(cov)
    # the block test builds no graph, so it works for any fiber
    assert sy.is_pi_inessential(cov, {0, 1, 2})
    assert not sy.is_pi_inessential(cov, set(X.vertices))


def test_cover_counts_and_projection(rp2, rp2_class):
    five = _cycle(5)
    for X, xi, fiber in ((rp2, rp2_class, 2), (five, _cycle_class(five), 2)):
        cov = sy.build_cover(X, xi, fiber)
        T = cov.total_complex
        assert T.num_vertices == fiber * X.num_vertices
        assert len(T.facets) == fiber * len(X.facets)
        for f in T.facets:
            projected = {cov.project(v) for v in f}
            assert len(projected) == len(f)
            assert tuple(sorted(projected)) in X.facets
        # locally injective on stars: neighbours never collide downstairs
        for v, nbrs in T.adjacency().items():
            down = [cov.project(u) for u in nbrs]
            assert len(down) == len(set(down))


def test_lift_face_consistency(rp2, rp2_class):
    cov = sy.build_cover(rp2, rp2_class, 2)
    for f in rp2.facets:
        for s in (0, 1):
            assert cov.lift_face(f, s) in cov.total_complex.facets
        assert cov.lift_face(f, 0) != cov.lift_face(f, 1)


def test_edge_distance_and_spheres():
    X = _cycle(6)
    assert sy.edge_distance(X, 0, 3) == 3
    assert [len(sy.sphere(X, 0, i)) for i in range(4)] == [1, 2, 2, 1]
    with pytest.raises(UnknownVertexError):
        sy.edge_distance(X, 0, 99)


def test_distance_across_components_is_infinite():
    X = sy.build_complex([[1, 2], [3, 4]])
    assert sy.edge_distance(X, 1, 3) == sy.INFINITY


def test_negative_radius_rejected():
    X = _cycle(6)
    # non-integral radii and bools are refused too, never coerced
    for r in (-1, -2, 1.5, 2.0, True, False, "2"):
        for f in (sy.ball, sy.sphere):
            with pytest.raises(ParameterError, match="radius"):
                f(X, 0, r)
        with pytest.raises(ParameterError, match="radius"):
            sy.ball_profile(X, 0, r_max=r)
    assert sy.ball(X, 0, 0) == sy.sphere(X, 0, 0) == frozenset({0})
    assert sy.ball_profile(X, 0, r_max=0).ball_sizes == (1,)
    assert sy.ball(X, 0, np.int64(2)) == sy.ball(X, 0, 2) == frozenset({4, 5, 0, 1, 2})
    assert sy.sphere(X, 0, np.int64(2)) == frozenset({4, 2})
    assert sy.ball_profile(X, 0, r_max=np.int64(2)) == sy.ball_profile(X, 0, r_max=2)


def test_ball_of_radius_one_in_rp2_is_everything(rp2):
    assert sy.ball(rp2, 1, 1) == frozenset(rp2.vertices)


def test_ball_profile_additivity(rp2):
    for X in (rp2, _cycle(8)):
        for x in X.vertices:
            prof = sy.ball_profile(X, x)
            acc = 0
            for b, s in zip(prof.ball_sizes, prof.sphere_sizes):
                acc += s
                assert b == acc
            assert prof.ball_sizes[-1] == X.num_vertices


def test_cover_systole_of_cycle_quotients():
    for m in (3, 5, 8):
        X = _cycle(m)
        assert sy.cover_systole(sy.build_cover(X, _cycle_class(X), 2)) == m


def test_cover_systole_rp2(rp2, rp2_class):
    assert sy.cover_systole(sy.build_cover(rp2, rp2_class, 2)) == 3


def test_cover_systole_matches_brute_distance(rp2, rp2_class):
    cov = sy.build_cover(rp2, rp2_class, 2)
    T = cov.total_complex
    best = min(sy.edge_distance(T, (v, 0), (v, 1)) for v in rp2.vertices)
    assert sy.cover_systole(cov) == best == 3


def test_cyclic_cover_of_cycle():
    X = _cycle(4)
    xi = sy.Cochain1(X, {(0, 1): 1}, sy.RING_Z)
    cov = sy.build_cover(X, xi, 3)
    T = cov.total_complex
    assert T.num_vertices == 12
    assert len(T.components()) == 1
    assert sy.cover_systole(cov) == 4
    assert sy.loop_norm(X, xi, 5) == 4


def test_deck_relabelling_invariance(rp2, rp2_class):
    # shifting the section by a coboundary relabels the sheets
    rng = random.Random(3)
    for _ in range(5):
        g = {v: rng.randrange(2) for v in rp2.vertices}
        shifted = rp2_class + vertex_coboundary(rp2, g)
        assert sy.cover_systole(sy.build_cover(rp2, shifted, 2)) == 3


def test_loop_norm_examples(rp2, rp2_class):
    X = _cycle(7)
    assert sy.loop_norm(X, _cycle_class(X)) == 7
    assert sy.loop_norm(rp2, rp2_class) == 3
    assert sy.loop_norm(rp2, sy.Cochain1(rp2, {})) == sy.INFINITY


def test_loop_norm_coboundary_shift_invariance(torus7, torus_classes):
    rng = random.Random(23)
    base = sy.loop_norm(torus7, torus_classes[0])
    for _ in range(20):
        g = {v: rng.randrange(2) for v in torus7.vertices}
        shifted = torus_classes[0] + vertex_coboundary(torus7, g)
        assert sy.loop_norm(torus7, shifted) == base


def test_is_pi_inessential(rp2, rp2_class):
    cov = sy.build_cover(rp2, rp2_class, 2)
    assert sy.is_pi_inessential(cov, {1})
    assert sy.is_pi_inessential(cov, {1, 2})
    assert not sy.is_pi_inessential(cov, set(rp2.vertices))
    with pytest.raises(UnknownVertexError):
        sy.is_pi_inessential(cov, {99})


@pytest.mark.parametrize("call", [
    lambda X, xi, v: sy.is_pi_inessential(sy.build_cover(X, xi, 2), [0, v]),
    lambda X, xi, v: sy.restriction_is_zero(xi, (u for u in (0, v))),
    lambda X, xi, v: sy.is_inessential_graph(X, {0, v}),
    lambda X, xi, v: sy.ball(X, v, 1),
    lambda X, xi, v: sy.sphere(X, v, 1),
    lambda X, xi, v: sy.ball_profile(X, v),
    lambda X, xi, v: sy.edge_distance(X, v, 0),
    lambda X, xi, v: sy.edge_distance(X, 0, v),
], ids=["is_pi_inessential", "restriction_is_zero", "is_inessential_graph", "ball",
        "sphere", "ball_profile", "edge_distance_from", "edge_distance_to"])
def test_unknown_vertices_are_refused(call):
    X = _cycle(6)
    xi = _cycle_class(X)
    for v in (99, "a", (0, 0)):
        with pytest.raises(UnknownVertexError, match=re.escape(f"{v!r} is not a vertex")):
            call(X, xi, v)


def test_is_pi_inessential_agrees_with_brute_preimage(rp2, rp2_class, quotient23):
    rng = random.Random(17)
    Q, xi, _ = quotient23
    for X, c in ((rp2, rp2_class), (Q, xi)):
        cov = sy.build_cover(X, c, 2)
        for _ in range(40):
            w = {v for v in X.vertices if rng.randrange(2)}
            assert sy.is_pi_inessential(cov, w) == brute_cover_trivial_over(cov, w)


def test_homotopy_radius_examples(rp2, rp2_class):
    assert sy.homotopy_triviality_radius(sy.build_cover(rp2, rp2_class, 2)) == 0
    X = _cycle(8)
    cov = sy.build_cover(X, _cycle_class(X), 2)
    assert sy.homotopy_triviality_radius(cov) == 3
    trivial = sy.build_cover(X, sy.Cochain1(X, {}), 2)
    assert sy.homotopy_triviality_radius(trivial) == sy.INFINITY


def test_unsound_radius_witness_is_caught(monkeypatch, rp2, rp2_class):
    # The scan's witness check asks whether B(centre, L // 2) mixes sheets;
    # a check that says no must stop the scan before any number is returned.
    monkeypatch.setattr(sy.covers, "_mask_mixes_fibers", lambda C, mask: False)
    X = _cycle(8)
    for cov in (sy.build_cover(rp2, rp2_class, 2), sy.build_cover(X, _cycle_class(X), 2)):
        with pytest.raises(ParameterError, match="unsound radius witness"):
            sy.cover_systole(cov)
        assert cov._scan is None


def test_unsound_systole_witness_is_caught(rp2, rp2_class):
    # The check accepts exactly the least nontrivial loop length at the
    # centre: one shorter is beyond its limit, one longer is beaten.
    X = _cycle(8)
    for cov in (sy.build_cover(rp2, rp2_class, 2), sy.build_cover(X, _cycle_class(X), 2)):
        systole, _, centre = _holonomy_scan(cov)
        _check_witness(cov, centre, systole)
        for wrong in (systole - 1, systole + 1):
            with pytest.raises(ParameterError, match="unsound systole witness"):
                _check_witness(cov, centre, wrong)


def test_homotopy_radius_agrees_with_brute_force(quotient23):
    Q, xi, _ = quotient23
    for m in (3, 5, 6):
        X = _cycle(m)
        cov = sy.build_cover(X, _cycle_class(X), 2)
        assert sy.homotopy_triviality_radius(cov) == brute_homotopy_radius(cov)
    cov = sy.build_cover(Q, xi, 2)
    assert sy.homotopy_triviality_radius(cov) == brute_homotopy_radius(cov) == 0


def test_radius_identity_on_small_covers(rp2, rp2_class, quotient23):
    Q, xi, _ = quotient23
    cases = [(rp2, rp2_class), (Q, xi)]
    for m in (3, 4, 7, 8):
        cyc = _cycle(m)
        cases.append((cyc, _cycle_class(cyc)))
    for X, c in cases:
        cov = sy.build_cover(X, c, 2)
        sys_val = sy.cover_systole(cov)
        assert sy.homotopy_triviality_radius(cov) == sys_val // 2 - 1


def test_disconnected_base_handled_per_component():
    X = sy.build_complex([[1, 2], [2, 3], [1, 3], [11, 12], [12, 13], [11, 13]])
    xi = sy.Cochain1(X, {(1, 2): 1})
    cov = sy.build_cover(X, xi, 2)
    # the component carrying the class contributes 3, the other inf
    assert sy.cover_systole(cov) == 3
    assert sy.homotopy_triviality_radius(cov) == 0
    assert sy.is_pi_inessential(cov, {11, 12, 13})
    assert not sy.is_pi_inessential(cov, {1, 2, 3})


def test_radius_on_disconnected_base_minimizes_over_components():
    eight = [tuple(sorted((i, (i + 1) % 8))) for i in range(8)]
    tri = [(21, 22), (22, 23), (21, 23)]
    X = sy.build_complex(eight + tri)
    xi = sy.Cochain1(X, {(0, 1): 1})
    cov = sy.build_cover(X, xi, 2)
    assert sy.cover_systole(cov) == 8
    assert sy.homotopy_triviality_radius(cov) == 3


@st.composite
def _graph_cochains(draw):
    """A random graph on at most 9 vertices (possibly disconnected) with a
    random Z2, Z3 or Z5 cochain; on a graph every cochain is a cocycle."""
    n = draw(st.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    fiber = draw(st.sampled_from((2, 3, 5)))
    X = sy.build_complex([list(e) for e in edges])
    vals = {e: draw(st.integers(0, fiber - 1)) for e in sorted(X.faces(1))}
    return X, sy.Cochain1(X, vals, sy.RING_Z2 if fiber == 2 else sy.RING_Z), fiber


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_graph_cochains())
def test_systole_and_radius_agree_with_total_space_and_brute_force(case):
    X, xi, fiber = case
    cov = sy.build_cover(X, xi, fiber)
    T = cov.total_complex
    assert sy.cover_systole(cov) == min(
        sy.edge_distance(T, (v, 0), (v, g)) for v in X.vertices for g in range(1, fiber))
    assert sy.homotopy_triviality_radius(cov) == brute_homotopy_radius(cov)


def _loop_oracle(cov):
    """min edge_distance(T, (v, 0), (v, g)) over v and g != 0, one BFS per v."""
    T = cov.total_complex
    dist = {v: _bfs(T, (v, 0)) for v in cov.base.vertices}
    return min(dist[v].get((v, g), sy.INFINITY)
               for v in cov.base.vertices for g in range(1, cov.fiber))


@st.composite
def _wide_graph_cochains(draw):
    """A random graph on 65 to 150 vertices, so the scan spans two or three
    word columns, with isolated vertices and a Z2, Z3 or Z5 cochain."""
    n = draw(st.integers(65, 150))
    fiber = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(n // 2, 2 * n))}
    used = {v for e in edges for v in e}
    X = sy.build_complex([list(e) for e in edges] + [[v] for v in range(n) if v not in used])
    vals = {e: rng.randrange(fiber) for e in sorted(X.faces(1))}
    return X, sy.Cochain1(X, vals, sy.RING_Z2 if fiber == 2 else sy.RING_Z), fiber


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_wide_graph_cochains())
def test_systole_over_several_word_columns_agrees_with_total_space(case):
    X, xi, fiber = case
    cov = sy.build_cover(X, xi, fiber)
    L = _loop_oracle(cov)
    assert sy.cover_systole(cov) == L
    assert sy.homotopy_triviality_radius(cov) == (sy.INFINITY if L == sy.INFINITY else L // 2 - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_wide_graph_cochains())
def test_witness_ball_is_the_base_ball(case):
    # the ball that _check_witness reads off its dijkstra distances is the
    # plain BFS ball B(centre, L // 2) of the base
    X, xi, fiber = case
    cov = sy.build_cover(X, xi, fiber)
    masks = []

    def record(C, mask):
        masks.append(mask.copy())
        return _mask_mixes_fibers(C, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sy.covers, "_mask_mixes_fibers", record)
        L, _, centre = _holonomy_scan(cov)
    if centre is None:
        assert masks == []
        return
    near = _bfs(X, X.vertices[centre], cutoff=L // 2)
    assert len(masks) == 1
    assert masks[0].tolist() == [v in near for v in X.vertices]


def test_grid_pass_checks_each_cover_once_without_the_base_bfs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid path reached the base BFS")

    calls = {}

    def count(name):
        real = getattr(sy.covers, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(sy.covers, name, wrapped)

    monkeypatch.setattr(sy.SimplicialComplex, "adjacency", refuse)
    monkeypatch.setattr(sy.complexes, "_bfs", refuse)
    monkeypatch.setattr(sy.covers, "_bfs", refuse)
    for name in ("_check_witness", "dijkstra", "connected_components"):
        count(name)
    report = sy.verify_grid(3, 5, seed=0)
    assert [(r.n, r.s) for r in report.rows if not r.ok_all] == [(1, 4)]
    # every grid cover is nontrivial: one witness check, one search of each kind
    assert calls == dict.fromkeys(("_check_witness", "dijkstra", "connected_components"),
                                  len(report.rows))


def _nontrivial_cycle(vertices):
    edges = [tuple(sorted(e)) for e in zip(vertices, vertices[1:] + vertices[:1])]
    return edges, {edges[0]: 1}


@pytest.mark.parametrize("fiber", [2, 3])
def test_scan_centre_across_word_columns(fiber):
    ring = sy.RING_Z2 if fiber == 2 else sy.RING_Z
    path = [(i, i + 1) for i in range(69)]

    def scan(*cycles):
        edges, vals = list(path), {}
        for c in cycles:
            e, v = _nontrivial_cycle(c)
            edges += e
            vals.update(v)
        X = sy.build_complex([list(e) for e in set(edges)])
        cov = sy.build_cover(X, sy.Cochain1(X, vals, ring), fiber)
        systole, radius, centre = _holonomy_scan(cov)
        assert systole == _loop_oracle(cov)
        return systole, radius, X.vertices[centre]

    # the shortest loop lives in the second word column only; the first
    # column's 9-loop at vertex 0 is beaten
    assert scan(list(range(9)), list(range(70, 75))) == (5, 1, 70)
    # equal loops in two columns: the lowest centre wins
    assert scan(list(range(10, 15)), list(range(100, 105))) == (5, 1, 10)
    # equal loops within one column: the first hit wins
    assert scan(list(range(20, 25)), list(range(3, 8))) == (5, 1, 3)


def test_edgeless_complex_has_no_loop():
    X = sy.build_complex([[v] for v in range(130)])
    cov = sy.build_cover(X, sy.Cochain1(X, {}), 2)
    assert sy.cover_systole(cov) == sy.INFINITY
    assert sy.homotopy_triviality_radius(cov) == sy.INFINITY


@st.composite
def _complex_cocycle_blocks(draw):
    """A random complex on at most 9 vertices (a graph plus the triangles on
    which the drawn values close up, maybe an isolated vertex) with a Z2,
    Z3 or Z5 cocycle shifted by a random coboundary, and a random W."""
    n = draw(st.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    fiber = draw(st.sampled_from((2, 3, 5)))
    ring = sy.RING_Z2 if fiber == 2 else sy.RING_Z
    vals = {e: draw(st.integers(0, fiber - 1)) for e in sorted(edges)}
    triangles = [t for t in itertools.combinations(range(n), 3)
                 if {t[:2], t[1:], t[::2]} <= vals.keys()]
    faces = [list(e) for e in edges]
    for a, b, c in draw(st.lists(st.sampled_from(triangles), unique=True)) if triangles else ():
        d = vals[(a, b)] + vals[(b, c)] - vals[(a, c)]
        if (d % 2 if ring == sy.RING_Z2 else d) == 0:
            faces.append([a, b, c])
    if draw(st.booleans()):
        faces.append([n])
    X = sy.build_complex(faces)
    g = {v: draw(st.integers(-fiber, fiber)) for v in X.vertices}
    xi = sy.Cochain1(X, vals, ring) + vertex_coboundary(X, g, ring)
    return X, xi, fiber, draw(st.sets(st.sampled_from(X.vertices)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_complex_cocycle_blocks())
def test_block_test_agrees_with_preimage_components_and_restrictions(case):
    X, xi, fiber, W = case
    cov = sy.build_cover(X, xi, fiber)
    trivial = sy.is_pi_inessential(cov, W)
    assert trivial == brute_cover_trivial_over(cov, W)
    vidx = X.vertex_index()
    mask = np.zeros(X.num_vertices, dtype=bool)
    mask[[vidx[v] for v in W]] = True
    assert trivial == (not _mask_mixes_fibers(cov, mask))
    if xi.ring == sy.RING_Z2:
        assert sy.restriction_is_zero(xi, W) == trivial
    else:
        assert sy.restriction_is_zero(xi, W) == integer_restriction_is_zero(xi, W)


def test_homology_radius(rp2, rp2_class):
    assert sy.homology_triviality_radius(rp2, [rp2_class]) == 0
    X = _cycle(8)
    assert sy.homology_triviality_radius(X, [_cycle_class(X)]) == 3
    assert sy.homology_triviality_radius(X, [sy.Cochain1(X, {})]) == sy.INFINITY
    with pytest.raises(ParameterError):
        sy.homology_triviality_radius(X, [])


def test_homology_radius_matches_restriction_definition(rp2, rp2_class):
    # direct check of the defining property at the reported radius
    r = sy.homology_triviality_radius(rp2, [rp2_class])
    for x in rp2.vertices:
        assert sy.restriction_is_zero(rp2_class, sy.ball(rp2, x, r))
    assert any(not sy.restriction_is_zero(rp2_class, sy.ball(rp2, x, r + 1))
               for x in rp2.vertices)


def test_both_radii_bounded_by_half_systole(quotient23):
    Q, xi, _ = quotient23
    cov = sy.build_cover(Q, xi, 2)
    bound = sy.cover_systole(cov) // 2 - 1
    assert sy.homotopy_triviality_radius(cov) <= bound
    assert sy.homology_triviality_radius(Q, [xi]) <= bound

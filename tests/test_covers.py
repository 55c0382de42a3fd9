import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola.cochains import vertex_coboundary
from systola.complexes import _as_mask, _bfs, _VertexMask
from systola.covers import Cover, _check_witness, _holonomy_scan, connected_components, dijkstra
from systola.errors import CapacityError, CocycleError, ParameterError, UnknownVertexError

from oracles import bfs_distances, brute_cover_trivial_over, brute_homotopy_radius, \
    brute_loop_lengths, graph_components, integer_restriction_is_zero, loop_neighbour_masks, \
    total_adjacency


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


def test_unsound_cover_verdict_is_caught(monkeypatch, rp2, rp2_class):
    # connected_components must agree with the scan on whether the cover is
    # trivial; a verdict mutated either way stops the scan before any number
    # is returned.
    def split(graph):
        return graph.shape[0], np.arange(graph.shape[0])

    def merge(graph):
        return 1, np.zeros(graph.shape[0], dtype=np.int32)

    X = _cycle(8)
    for mutant, cov in ((split, sy.build_cover(rp2, rp2_class, 2)),
                        (split, sy.build_cover(X, _cycle_class(X), 2)),
                        (merge, sy.build_cover(X, sy.Cochain1(X, {}), 2))):
        monkeypatch.setattr(sy.covers, "connected_components", mutant)
        with pytest.raises(ParameterError, match="unsound cover verdict"):
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


@st.composite
def _sparse_covers(draw):
    """A cover of a random graph on at most 12 vertices, often disconnected,
    with up to 3 isolated vertices and a Z2, Z3 or Z5 cochain."""
    n = draw(st.integers(1, 12))
    fiber = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = {tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(rng.randrange(n + 1))}
    loose = range(n + 1, n + 1 + draw(st.integers(0, 3)))
    X = sy.build_complex([list(e) for e in edges] + [[v] for v in loose] or [[0]])
    vals = {e: rng.randrange(fiber) for e in sorted(X.faces(1))}
    xi = sy.Cochain1(X, vals, sy.RING_Z2 if fiber == 2 else sy.RING_Z)
    return sy.build_cover(X, xi, fiber)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_sparse_covers(), st.data())
def test_graph_searches_agree_with_plain_python_oracles(cov, data):
    # the total graph's CSR arrays, its components and its limited BFS
    # against a dict adjacency built edge by edge, at limits below, at and
    # above the source's eccentricity
    graph, V = cov._total_graph(), cov.base.num_vertices
    adj = total_adjacency(cov)
    index = cov.base.vertex_index()
    row = {p: index[p[0]] + p[1] * V for p in adj}
    order = sorted(adj, key=row.get)
    assert graph.shape == (len(adj), len(adj))
    ends = zip(graph.indptr[:-1], graph.indptr[1:])
    assert [sorted(graph.indices[a:b]) for a, b in ends] == [sorted(map(row.get, adj[p]))
                                                               for p in order]
    count, labels = connected_components(graph)
    parts = {frozenset(row[p] for p in part) for part in graph_components(adj)}
    assert count == len(parts) and set(labels.tolist()) == set(range(count))
    assert {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(count)} == parts

    def expected(source, limit=sy.INFINITY):
        out = np.full(len(adj), sy.INFINITY)
        for q, d in bfs_distances(adj, source, limit).items():
            out[row[q]] = d
        return out

    source = data.draw(st.sampled_from(sorted(adj)))
    ecc = max(bfs_distances(adj, source).values())
    for limit in sorted({max(ecc - 1, 0), ecc, ecc + 1}):
        dist = dijkstra(graph, indices=[row[source]], limit=limit)
        assert np.array_equal(dist, [expected(source, limit)])
    everyone = dijkstra(graph, indices=range(len(adj)), limit=sy.INFINITY)
    assert np.array_equal(everyone, [expected(p) for p in order])


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


@st.composite
def _trivial_covers(draw):
    """A coboundary with fiber 2, 3 or 5 on a base of one to three random
    graph components, some past one word column, and isolated vertices."""
    fiber = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    faces, lo = [], 0
    for _ in range(draw(st.integers(1, 3))):
        m = rng.randrange(2, 80)
        faces += [rng.sample(range(lo, lo + m), 2) for _ in range(rng.randrange(1, 2 * m))]
        lo += m
    faces += [[v] for v in range(lo, lo + draw(st.integers(0, 3)))]
    X = sy.build_complex(faces)
    g = {v: rng.randrange(-fiber, fiber + 1) for v in X.vertices}
    return sy.build_cover(X, vertex_coboundary(X, g, sy.RING_Z2 if fiber == 2 else sy.RING_Z),
                          fiber)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_trivial_covers())
def test_trivial_cover_verdict_is_checked_without_dijkstra(cov):
    calls = []

    def counted(name):
        real = getattr(sy.covers, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("dijkstra", "connected_components"):
            mp.setattr(sy.covers, name, counted(name))
        assert _holonomy_scan(cov) == (sy.INFINITY, sy.INFINITY, None)
    assert calls == ["connected_components"]


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


@pytest.mark.parametrize("n, s", [(2, 5), (3, 6), (4, 3), (4, 4), (4, 5), (4, 6)])
def test_grid_covers_read_the_cocycle_as_arrays(monkeypatch, n, s):
    def refuse(*args):
        raise AssertionError("the grid path called Cochain1.value")

    built = []  # (complex, k) per faces(k) derivation, (complex, "facets") per tuple build
    faces, row_facets = sy.complexes._faces, sy.complexes._row_facets
    monkeypatch.setattr(sy.complexes, "_faces",
                        lambda X, k: built.append((X, k)) or faces(X, k))
    monkeypatch.setattr(sy.complexes, "_row_facets",
                        lambda X: built.append((X, "facets")) or row_facets(X))
    quotients = []

    def quotient(sphere):
        quotients.append(sy.quotient(sphere))
        return quotients[-1]

    monkeypatch.setattr(sy.Cochain1, "value", refuse)
    if n == 4:  # the whole cell, since n = 4 takes no cup product
        monkeypatch.setattr(sy.verify, "quotient", quotient)
        assert sy.measure_cell(n, s).ok_all
        (Q, _), = quotients
    else:
        Q, xi = sy.quotient(sy.gen_symmetric_sphere(n, s))
        assert sy.cover_systole(sy.build_cover(Q, xi, 2)) == s
    # the cocycle is checked and read on Q's edge keys: no tuple view of Q at all
    assert [k for X, k in built if X is Q] == []


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


def _lowest_centre(cov):
    """The oracle's least loop length and the lowest base vertex attaining
    it (None when there is no loop)."""
    lengths = brute_loop_lengths(cov)
    L = min(lengths.values())
    return L, None if L == sy.INFINITY else min(v for v, ell in lengths.items() if ell == L)


@pytest.mark.parametrize("fiber", [3, 5])
@pytest.mark.parametrize("L", [5, 6, 7, 8])
def test_meet_in_the_middle_scan_at_odd_and_even_lengths(fiber, L):
    # a path 0..99 whose chords each close one nontrivial loop, given as
    # (lowest vertex, length, holonomy); the second word column starts at 64
    def scan(loops):
        vals = {(lo, lo + length - 1): g for lo, length, g in loops}
        X = sy.build_complex([[i, i + 1] for i in range(99)] + [list(e) for e in vals])
        cov = sy.build_cover(X, sy.Cochain1(X, vals, sy.RING_Z), fiber)
        systole, radius, centre = _holonomy_scan(cov)
        assert (systole, X.vertices[centre]) == _lowest_centre(cov)
        assert radius == systole // 2 - 1
        return systole, X.vertices[centre]

    # the second column beats the first column's L + 1, at its lowest vertex
    assert scan([(0, L + 1, 1), (70, L, 1), (85, L, 2)]) == (L, 70)
    # with a loop of length L in the first column too, its lowest vertex wins
    assert scan([(0, L + 1, 1), (30, L, 1), (70, L, 1), (85, L, 2)]) == (L, 30)
    # a loop of the same length in a later column does not replace it
    assert scan([(5, L, 2), (70, L, 1)]) == (L, 5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_graph_cochains(), _wide_graph_cochains()))
def test_scan_centre_is_the_lowest_vertex_attaining_the_systole(case):
    X, xi, fiber = case
    cov = sy.build_cover(X, xi, fiber)
    L, _, centre = _holonomy_scan(cov)
    assert (L, None if centre is None else X.vertices[centre]) == _lowest_centre(cov)


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
    assert sy.is_pi_inessential(cov, _VertexMask(_as_mask(X, W))) == trivial
    if xi.ring == sy.RING_Z2:
        assert sy.restriction_is_zero(xi, W) == trivial
    else:
        assert sy.restriction_is_zero(xi, W) == integer_restriction_is_zero(xi, W)


def _long_cycle_cocycle_blocks(seed):
    """A cycle on 131 to 140 vertices plus up to four chords, random Z2, Z3
    or Z5 values on its edges, and a block: empty, one vertex, all of them,
    an arc, two arcs apart or a random subset."""
    rng = random.Random(seed)
    n = rng.randrange(131, 141)
    edges = {tuple(sorted((v, (v + 1) % n))) for v in range(n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(5))}
    fiber = rng.choice((2, 3, 5))
    ring = sy.RING_Z2 if fiber == 2 else sy.RING_Z
    X = sy.build_complex([list(e) for e in edges])
    xi = sy.Cochain1(X, {e: rng.randrange(fiber) for e in sorted(edges)}, ring)
    start, a = rng.randrange(n), rng.randrange(1, n - 2)
    arc = {(start + i) % n for i in range(a)}
    apart = arc | {(start + a + 1 + i) % n for i in range(rng.randrange(1, n - a - 1))}
    subset = {v for v in range(n) if rng.randrange(2)}
    return X, xi, fiber, rng.choice((set(), {start}, set(range(n)), arc, apart, subset))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_mask_block_test_agrees_with_brute_preimage_beyond_two_words(seed):
    X, xi, fiber, W = _long_cycle_cocycle_blocks(seed)
    trivial = brute_cover_trivial_over(sy.build_cover(X, xi, fiber), W)
    mask = _as_mask(X, W)
    # below the cap the bitmask BFS, at cap 0 the potential search, each on a
    # fresh cochain so that its table is built under that cap
    for cap, table in ((sy.cochains.MAX_MASK_VERTICES, list), (0, tuple)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sy.cochains, "MAX_MASK_VERTICES", cap)
            c = sy.Cochain1(X, xi.values, xi.ring)
            cov = sy.build_cover(X, c, fiber)
            assert sy.is_pi_inessential(cov, mask) == trivial
            assert sy.is_pi_inessential(cov, W) == trivial
            assert [type(t) for t in c._tables.values()] == [table]


def test_block_test_above_the_mask_cap_builds_no_mask(monkeypatch):
    # a 9,000-vertex cycle's double cover has 18,000 total vertices, above the
    # cap: labels and a search's mask alike take the potential search, with no
    # (V·F)² table built either way
    X = _cycle(9000)
    xi = _cycle_class(X)
    cov = sy.build_cover(X, xi, 2)
    assert X.num_vertices * cov.fiber > sy.cochains.MAX_MASK_VERTICES
    monkeypatch.setattr(sy.cochains, "_neighbour_masks", None)
    assert sy.is_pi_inessential(cov, frozenset(range(8990)))
    assert not sy.is_pi_inessential(cov, _as_mask(X, X.vertices))
    assert not sy.restriction_is_zero(xi, X.vertices)
    assert [type(t) for t in xi._tables.values()] == [tuple]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_complex_cocycle_blocks())
def test_restriction_tests_agree_on_both_sides_of_the_mask_cap(case):
    X, xi, fiber, W = case
    trivial = brute_cover_trivial_over(sy.build_cover(X, xi, fiber), W)
    for cap in (sy.cochains.MAX_MASK_VERTICES, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sy.cochains, "MAX_MASK_VERTICES", cap)
            c = sy.Cochain1(X, xi.values, xi.ring)
            cov = sy.build_cover(X, c, fiber)
            assert sy.is_pi_inessential(cov, _as_mask(X, W)) == trivial
            assert sy.is_pi_inessential(cov, W) == trivial
            if c.ring == sy.RING_Z2:
                assert sy.restriction_is_zero(c, W) == trivial
            else:  # over Z, always the potential search
                assert sy.restriction_is_zero(c, W) == integer_restriction_is_zero(c, W)


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


def _labelled_graph(rng):
    """A random graph on 0 to 40 sparse, partly negative int labels, with isolated
    vertices and no vertex at all sometimes."""
    labels = sorted(rng.sample(range(-60, 200), rng.randrange(41)))
    edges = [rng.sample(labels, 2) for _ in range(rng.randrange(2 * len(labels) + 1))
             if len(labels) >= 2]
    return sy.build_complex(edges + [[v] for v in labels]), labels


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.sampled_from((1, 2, 3, 5)))
def test_bulk_masks_equal_the_loops(seed, fiber):
    # the byte-table neighbour masks against the edge-by-edge loop, and a
    # Python-int vertex set mapped in bulk against the label-by-label path
    # (numpy ints take it) and against plain positions
    rng = random.Random(seed)
    X, labels = _labelled_graph(rng)
    shifts = np.array([rng.randrange(fiber) for _ in X.edge_keys()], dtype=np.int64)
    masks = sy.cochains._neighbour_masks(X, shifts, fiber)
    assert masks == loop_neighbour_masks(X, shifts, fiber)
    # the total graph numbers (v, s) as the masks do, v + s·V: row i lists mask i's bits
    graph = Cover(X, sy.cochains.Cochain1._from_edge_values(X, shifts, sy.RING_Z),
                  fiber)._total_graph()
    rows = zip(graph.indptr[:-1], graph.indptr[1:])
    assert [sum(1 << w for w in set(graph.indices[a:b].tolist())) for a, b in rows] == masks
    W = rng.sample(labels, rng.randrange(len(labels) + 1))
    W += W[:rng.randrange(3)]  # repeats
    expected = sum(1 << X.vertices.index(v) for v in set(W))
    assert _as_mask(X, W) == _as_mask(X, iter(W)) == _as_mask(X, frozenset(W)) == expected
    assert _as_mask(X, [np.int64(v) for v in W]) == expected


@pytest.mark.parametrize("bad", [True, 1.0, np.float64(1), 99, -1, 2 ** 70])
def test_vertex_masks_refuse_what_the_label_rule_refuses(bad):
    X = sy.gen_polygon(6)
    for W in ([bad], [0, 2, bad], (3, bad, 4)):
        with pytest.raises(UnknownVertexError, match=f"^{re.escape(repr(bad))} is not a vertex"):
            _as_mask(X, W)
    empty = sy.build_complex([])
    with pytest.raises(UnknownVertexError, match="^0 is not a vertex"):
        _as_mask(empty, [0])
    assert _as_mask(empty, []) == 0


def test_balls_hold_the_complex_own_labels():
    # a root given as a numpy int is searched from as the label it names
    X, root = sy.gen_polygon(6), np.int64(0)
    assert sy.ball(X, root, 1) == {0, 1, 5} and sy.sphere(X, root, 1) == {1, 5}
    for found in (sy.ball(X, root, 1), sy.sphere(X, root, 0), X.components()[0]):
        assert {type(v) for v in found} == {int}
    assert type(sy.ball_profile(X, root).center) is int


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_ball_matches_the_oracle_bfs(seed):
    rng = random.Random(seed)
    X, labels = _labelled_graph(rng)
    if not labels:
        return
    adj = {v: [] for v in X.vertices}
    for u, v in X.faces(1):
        adj[u].append(v)
        adj[v].append(u)
    x, r = rng.choice(labels), rng.randrange(5)
    assert sy.ball(X, x, r) == frozenset(bfs_distances(adj, x, r))


def test_fiber_caps_count_one_vertex_on_an_empty_complex(monkeypatch):
    X = sy.build_complex([])
    cov = sy.build_cover(X, sy.Cochain1(X, {}, sy.RING_Z), 2 ** 40)
    for measure in (sy.cover_systole, sy.homotopy_triviality_radius):
        with pytest.raises(CapacityError, match="1,099,511,627,776 vertices and edges"):
            measure(cov)
    # the restriction test takes the potential search: no masks over 2**40 sheets
    monkeypatch.setattr(sy.cochains, "_components", None)
    assert sy.is_pi_inessential(cov, [])

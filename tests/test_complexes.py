from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola.complexes import _image, _indices, lex_keys, pair_keys, run_starts
from systola.errors import DimensionError, MalformedFaceError, UnknownVertexError


def test_triangle_cycle():
    X = sy.build_complex([[1, 2], [2, 3], [1, 3]])
    assert X.dim == 1
    assert sy.f_vector(X).counts == (3, 3)


def test_full_simplex():
    X = sy.build_complex([[1, 2, 3]])
    assert sy.f_vector(X).counts == (3, 3, 1)
    assert X.has_face((1, 3)) and X.has_face((2,))
    Y = sy.build_complex([[1, 2, 3], [3, 4]])
    assert Y.has_face((3, 4)) and Y.has_face((3, 2, 1))
    assert not Y.has_face((1, 4)) and not Y.has_face((1, 5))
    assert not Y.has_face((1, 2, 3, 4)) and not Y.has_face((5,))
    assert Y.has_vertex(4) and not Y.has_vertex(5) and not Y.has_vertex((4,))
    assert not Y.has_vertex([4])  # an unhashable label is no vertex


def test_rp2_f_vector(rp2):
    assert sy.f_vector(rp2).counts == (6, 15, 10)
    assert rp2.euler_characteristic() == 1


def test_input_faces_unordered_and_duplicated():
    X = sy.build_complex([(3, 1, 2), (1, 2, 3), (2, 1)])
    assert X.facets == ((1, 2, 3),)


def test_nonmaximal_faces_absorbed():
    X = sy.build_complex([[1, 2], [1, 2, 3], [3], [2, 4]])
    assert X.facets == ((2, 4), (1, 2, 3))


def test_duplicate_vertex_in_face_rejected():
    with pytest.raises(MalformedFaceError):
        sy.build_complex([[1, 1, 2]])
    with pytest.raises(MalformedFaceError):
        sy.build_complex([[]])


def test_isolated_vertex_as_singleton_facet():
    X = sy.build_complex([[1, 2], [5]])
    assert X.vertices == (1, 2, 5)
    assert (5,) in X.facets


def test_induced_edge_of_cycle():
    X = sy.build_complex([[1, 2], [2, 3], [1, 3]])
    sub = sy.induced(X, {1, 2})
    assert sub.facets == ((1, 2),)


def test_induced_identity_case():
    X = sy.build_complex([[1, 2, 3]])
    sub = sy.induced(X, {1, 2, 3})
    assert sub.as_complex() == X


def test_induced_whole_vertex_set_equals_complex(rp2):
    assert sy.induced(rp2, rp2.vertices).as_complex() == rp2


def test_induced_triples_of_rp2(rp2):
    on_face = sy.induced(rp2, {1, 2, 3})
    assert len(on_face.faces(2)) == 1
    off_face = sy.induced(rp2, {1, 2, 4})
    assert len(off_face.faces(2)) == 0
    assert len(off_face.faces(1)) == 3


def test_induced_unknown_vertex(rp2):
    with pytest.raises(UnknownVertexError):
        sy.induced(rp2, {1, 99})


def test_induced_idempotent(rp2):
    w = {1, 2, 4, 6}
    once = sy.induced(rp2, w)
    again = sy.induced(once.as_complex(), w)
    assert once.as_complex() == again.as_complex()


def test_subdivision_of_cycle_is_double_cycle():
    X = sy.build_complex([[1, 2], [2, 3], [1, 3]])
    sd = sy.barycentric_subdivision(X)
    assert sy.f_vector(sd).counts == (6, 6)
    assert all(len(sd.adjacency()[v]) == 2 for v in sd.vertices)


def test_subdivision_of_full_simplex():
    sd = sy.barycentric_subdivision(sy.build_complex([[1, 2, 3]]))
    assert sy.f_vector(sd).counts == (7, 12, 6)


@pytest.mark.parametrize("facets", [
    [[1, 2], [2, 3], [1, 3]],
    [[1, 2, 3]],
    [[1, 2, 3], [2, 3, 4], [4, 5]],
])
def test_subdivision_counts_and_euler(facets):
    X = sy.build_complex(facets)
    sd = sy.barycentric_subdivision(X)
    assert sd.num_vertices == sum(sy.f_vector(X).counts)
    assert sd.euler_characteristic() == X.euler_characteristic()


def test_subdivision_of_rp2(rp2):
    sd = sy.barycentric_subdivision(rp2)
    assert sd.num_vertices == 31
    assert sd.euler_characteristic() == 1


def test_skeleton():
    X = sy.build_complex([[1, 2, 3]])
    assert sy.skeleton(X, 1) == sy.build_complex([[1, 2], [2, 3], [1, 3]])
    with pytest.raises(DimensionError):
        sy.skeleton(X, 3)


def test_boundary_of_3_simplex():
    X = sy.skeleton(sy.build_complex([[1, 2, 3, 4]]), 2)
    assert sy.f_vector(X).counts == (4, 6, 4)
    assert X.euler_characteristic() == 2


@pytest.mark.parametrize("name", ["rp2-six", "torus-seven", "complete-7", "polygon-6"])
def test_downward_closure(name):
    X = sy.gen_named(name)
    for k in range(1, X.dim + 1):
        for face in X.faces(k):
            for i in range(len(face)):
                assert face[:i] + face[i + 1:] in X.faces(k - 1)


def test_disconnected_complex_components():
    X = sy.build_complex([[1, 2], [2, 3], [4, 5]])
    comps = {frozenset(c) for c in X.components()}
    assert comps == {frozenset({1, 2, 3}), frozenset({4, 5})}


def test_tuple_vertex_labels_are_supported():
    X = sy.build_complex([[(1, 0), (2, 0)], [(2, 0), (1, 1)]])
    assert X.num_vertices == 3
    assert X.has_face(((1, 0), (2, 0)))
    assert not X.has_face(((1, 0), (1, 1)))
    assert X.has_vertex((1, 1)) and not X.has_vertex(1)
    # the edges are the label pairs of the edge keys, tuple labels included
    assert X.faces(1) == {((1, 0), (2, 0)), ((1, 1), (2, 0))}


def test_row_built_complex_takes_rows_in_any_order():
    tuples = sy.build_complex([(0, 1, 2), (0, 2, 3), (1, 2, 4), (3, 5), (4, 5)])
    rows = [np.array([[4, 5], [3, 5]], dtype=np.int32),
            np.array([[1, 2, 4], [0, 1, 2], [0, 2, 3]], dtype=np.int32)]
    X = sy.SimplicialComplex._from_index_rows(rows, range(6))
    assert X == tuples and X.facets == tuples.facets and repr(X) == repr(tuples)
    assert X.vertices == tuples.vertices and X.adjacency() == tuples.adjacency()
    assert all(X.faces(k) == tuples.faces(k) for k in range(3))
    assert np.array_equal(X.edge_keys(), tuples.edge_keys())
    for R, given in zip(X.facet_rows(), rows):  # kept as given
        assert np.issubdtype(R.dtype, np.integer) and np.array_equal(R, given)


@pytest.mark.parametrize("nv, width", [(46340, np.int32), (46341, np.int64), (46342, np.int64),
                                       (10 ** 6, np.int64)])
def test_pair_keys_switch_to_int64_keys_where_nv_squared_reaches_2_31(monkeypatch, nv, width):
    # rows on the top 40 indices and a few low ones, (nv - 2, nv - 1) included:
    # at 46,342 its key nv² - nv - 1 would wrap in int32
    rng = np.random.default_rng(nv)
    pool = np.r_[0:5, nv - 40:nv]
    rows = np.array([np.sort(rng.choice(pool, 3, replace=False)) for _ in range(60)]
                    + [[0, nv - 2, nv - 1]])
    groups = [rows[:30].astype(np.int32), rows[30:], rows[:10, :2]]
    brute = sorted({a * nv + b for R in groups for row in R.tolist()
                    for a, b in combinations(row, 2)})
    dtypes = []
    real_sort = np.sort
    monkeypatch.setattr(np, "sort", lambda a, *args, **kw: dtypes.append(a.dtype)
                        or real_sort(a, *args, **kw))
    keys = pair_keys(groups, nv)
    assert dtypes == [np.dtype(width)]  # the keys are built and sorted at this width
    assert keys.dtype == np.int64 and keys.tolist() == brute


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_row_keys_order_rows_as_lexsort_does(data):
    # bases of 2**20 and up with three or more columns, or 2**32 and up with
    # two, would pass 2**63, so there lex_keys ranks (prefix, column) pairs;
    # from 2**58 up, with a few rows, even a rank times the base would pass it
    base = data.draw(st.one_of(st.integers(1, 6), st.integers(2 ** 20, 2 ** 62),
                               st.integers(2 ** 58, 2 ** 62)))
    width = data.draw(st.integers(1, 6))
    dtype = np.int32 if base < 2 ** 31 and data.draw(st.booleans()) else np.int64
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, base - 1), min_size=width,
                                                max_size=width), max_size=40)),
                    dtype=dtype).reshape(-1, width)
    keys = lex_keys(rows, base)
    order = np.argsort(keys)
    assert np.array_equal(rows[order], rows[np.lexsort(rows.T[::-1])])
    # equal keys exactly for equal rows
    assert np.array_equal(np.diff(keys[order]) > 0, run_starts(rows[order])[1:])


def test_row_keys_do_not_wrap_when_a_rank_times_the_base_would():
    keys = lex_keys(np.array([[0, 0], [1, 0], [2, 0], [3, 0]]), 2 ** 62)
    assert np.argsort(keys).tolist() == [0, 1, 2, 3]
    keys = lex_keys(np.array([[2 ** 63 - 1, 0], [0, 1], [0, 0]]), 2 ** 63)
    assert np.argsort(keys).tolist() == [2, 1, 0]


def test_dim_reads_the_facet_rows_without_building_facet_tuples(monkeypatch):
    monkeypatch.setattr(sy.complexes, "_row_facets", None)  # no facet tuple may be built
    Q, xi = sy.quotient(sy.gen_symmetric_sphere(3, 4))
    assert Q.dim == 3 and sy.class_is_nonzero(sy.cup_power([xi] * 3, Q))
    X = sy.loads_complex('{"facets": [[4, 9], [9, 2], [7]]}')  # mixed widths: tuples
    Y = sy.loads_complex('{"facets": [[4, 9], [9, 2]]}')  # one width: rows
    assert X.dim == Y.dim == 1 and sy.build_complex([[5]]).dim == 0
    assert sy.build_complex([]).dim == -1


# labels of every kind a caller may pass: Python and numpy ints, bools, floats,
# ints past int64, None and tuples
_LABELS = st.one_of(
    st.integers(-3, 12), st.integers(-3, 12).map(np.int64), st.integers(-3, 12).map(np.int32),
    st.booleans(), st.sampled_from([0.0, 1.0, 2.5, -1.0]),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 70]), st.none(),
    st.tuples(st.integers(0, 4), st.integers(0, 2)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(["ints", "big ints", "tuples"]))
def test_bulk_indices_equal_the_label_rule(data, kind):
    # one searchsorted for Python ints (and int64 arrays) on a complex of
    # Python-int labels, _image label by label otherwise: the same indices
    pool = {"ints": st.integers(-3, 12), "big ints": st.integers(-3, 12) | st.just(2 ** 63),
            "tuples": st.tuples(st.integers(0, 4), st.integers(0, 2))}[kind]
    names = data.draw(st.lists(pool, unique=True, max_size=8))
    X = sy.build_complex([[v] for v in names])
    labels = data.draw(st.lists(_LABELS, max_size=10))
    expected = [_image(X.vertex_index(), X.vertices, v) for v in labels]
    got = _indices(X, labels)
    assert got.dtype == np.int64 and got.tolist() == expected
    ints = [v for v in labels if type(v) is int and -2 ** 63 <= v < 2 ** 63]
    assert _indices(X, np.array(ints, dtype=np.int64)).tolist() == _indices(X, ints).tolist()
    with pytest.raises(TypeError):
        _indices(X, labels + [[0]])  # an unhashable label

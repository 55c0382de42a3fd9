"""One table of refusals that no other test reaches: each malformed call
raises its ``SystolaError`` subclass with its message."""

from dataclasses import replace

import numpy as np
import pytest

import systola as sy
from systola.errors import CocycleError, DimensionError, DomainError, MalformedFaceError, \
    ParameterError, QuotientError, SystolaError, UnknownVertexError

TRIANGLE = sy.build_complex([[1, 2, 3]])
SQUARE = sy.gen_polygon(4)
XI = sy.Cochain1(SQUARE, {(0, 1): 1})
XZ = sy.Cochain1(SQUARE, {(0, 1): 1}, sy.RING_Z)
RP1 = sy.build_cover(SQUARE, XI, 2)
OCTAGON = sy.gen_symmetric_sphere(1, 4)  # vertices 0..7, v and v + 4 antipodal
RP2 = sy.gen_named("rp2-six")
RP2_CLASS = sy.h1_basis(RP2)[0]
HEXAGON = sy.gen_polygon(6)
HEX_CLASS = sy.Cochain1(HEXAGON, {(0, 1): 1})
HEX_COVER = sy.build_cover(HEXAGON, HEX_CLASS, 2)


def _relabelled(sphere, **views):
    """The quotient of ``sphere`` with some of its three views replaced."""
    return lambda: sy.quotient(replace(sphere, **views))


CASES = {
    "cochain_unknown_ring":
        (lambda: sy.Cochain1(SQUARE, {}, "Q"), ParameterError, "unknown coefficient ring 'Q'"),
    "integer_non_cocycle_cover":
        (lambda: sy.build_cover(TRIANGLE, sy.Cochain1(TRIANGLE, {(1, 2): 1}, sy.RING_Z), 3),
         CocycleError, "sheet transitions require a cocycle"),
    "cup_of_no_class":
        (lambda: sy.cup_power([]), ParameterError, "at least one class required"),
    "cup_on_another_complex":
        (lambda: sy.cup_power([XI], sy.gen_polygon(4)), ParameterError,
         "all classes must live on the same complex"),
    "cup_of_an_integer_class":
        (lambda: sy.cup_power([XZ]), ParameterError, "cup products are computed over Z2 only"),
    "class_in_degree_0":
        (lambda: sy.class_is_nonzero(sy.CochainK(SQUARE, 0, [(0,)])), DimensionError,
         "degree must be at least 1"),
    "cochain_unknown_label":
        (lambda: sy.Cochain1(SQUARE, {(0, 9): 1}), DomainError,
         r"\(0, 9\) is not an edge of the complex"),
    "cochain_on_a_triple":
        (lambda: sy.Cochain1(SQUARE, {(0, 1, 2): 1}), DomainError,
         r"\(0, 1, 2\) is not an edge of the complex"),
    "cochain_on_a_self_loop":
        (lambda: sy.Cochain1(SQUARE, {(1, 1): 1}), DomainError,
         r"\(1, 1\) is not an edge of the complex"),
    "cochain_on_a_non_edge":
        (lambda: sy.Cochain1(SQUARE, {(0, 1): 1, (2, 0): 1}), DomainError,
         r"\(0, 2\) is not an edge of the complex"),
    "cochain_on_a_non_pair":
        (lambda: sy.Cochain1(SQUARE, {5: 1}), DomainError, "5 is not an edge of the complex"),
    "cochain_on_unorderable_labels":
        (lambda: sy.Cochain1(SQUARE, {(0, "a"): 1}), DomainError,
         r"\(0, 'a'\) is not an edge of the complex"),
    "face_query_of_an_int":
        (lambda: RP2.has_face(5), MalformedFaceError,
         "malformed face 5: 'int' object is not iterable"),
    "face_query_of_unorderable_labels":
        (lambda: RP2.has_face(("a", 1)), MalformedFaceError,
         r"malformed face \('a', 1\): '<' not supported"),
    "face_query_of_unhashable_labels":
        (lambda: RP2.has_face(([1], [2])), MalformedFaceError,
         r"malformed face \(\[1\], \[2\]\): unhashable type"),
    "ball_at_an_unhashable_vertex":
        (lambda: sy.ball(RP2, [1], 1), UnknownVertexError,
         r"\[1\] is not a vertex of the complex"),
    "sphere_at_an_unhashable_vertex":
        (lambda: sy.sphere(RP2, [1], 1), UnknownVertexError,
         r"\[1\] is not a vertex of the complex"),
    "ball_profile_at_an_unhashable_vertex":
        (lambda: sy.ball_profile(RP2, [1]), UnknownVertexError,
         r"\[1\] is not a vertex of the complex"),
    "distance_to_an_unhashable_vertex":
        (lambda: sy.edge_distance(RP2, 1, [2]), UnknownVertexError,
         r"\[2\] is not a vertex of the complex"),
    "induced_on_unhashable_vertices":
        (lambda: sy.induced(RP2, [[1]]), UnknownVertexError,
         r"\[\[1\]\] is not a collection of vertex labels"),
    "induced_on_an_int":
        (lambda: sy.induced(RP2, 5), UnknownVertexError,
         "5 is not a collection of vertex labels"),
    "induced_on_unknown_labels_of_mixed_types":
        (lambda: sy.induced(RP2, ["a", 99]), UnknownVertexError,
         r"vertices not in complex: \['a', 99\]"),
    "restriction_to_unhashable_vertices":
        (lambda: sy.restriction_is_zero(RP2_CLASS, [[1]]), UnknownVertexError,
         r"\[\[1\]\] is not a collection of vertex labels"),
    "restriction_to_a_subcomplex_of_another_complex":
        (lambda: sy.restriction_is_zero(HEX_CLASS, sy.induced(sy.gen_complete_graph(6), [1, 2])),
         ParameterError, "the subcomplex is induced from a different complex"),
    "restriction_to_an_int":
        (lambda: sy.restriction_is_zero(RP2_CLASS, 5), UnknownVertexError,
         "5 is not a collection of vertex labels"),
    "inessential_test_of_unhashable_vertices":
        (lambda: sy.is_pi_inessential(RP1, [[1]]), UnknownVertexError,
         r"\[\[1\]\] is not a collection of vertex labels"),
    "inessential_test_of_an_int":
        (lambda: sy.is_pi_inessential(RP1, 5), UnknownVertexError,
         "5 is not a collection of vertex labels"),
    "inessential_test_of_a_bool":
        (lambda: sy.is_pi_inessential(RP1, True), UnknownVertexError,
         "True is not a collection of vertex labels"),
    "inessential_test_of_an_unknown_label":
        (lambda: sy.is_pi_inessential(RP1, [0, "a"]), UnknownVertexError,
         "'a' is not a vertex of the complex"),
    "inessential_test_of_a_non_iterable":
        (lambda: sy.is_pi_inessential(RP1, None), UnknownVertexError,
         "None is not a collection of vertex labels"),
    "forest_test_of_an_int":
        (lambda: sy.is_inessential_graph(SQUARE, 5), UnknownVertexError,
         "5 is not a collection of vertex labels"),
    "forest_test_of_a_bool":
        (lambda: sy.is_inessential_graph(SQUARE, False), UnknownVertexError,
         "False is not a collection of vertex labels"),
    "forest_test_of_an_unknown_label":
        (lambda: sy.is_inessential_graph(SQUARE, [0, 9]), UnknownVertexError,
         "9 is not a vertex of the complex"),
    "forest_test_of_a_non_iterable":
        (lambda: sy.is_inessential_graph(SQUARE, object), UnknownVertexError,
         "<class 'object'> is not a collection of vertex labels"),
    "cochain_k_face_outside":
        (lambda: sy.CochainK(SQUARE, 1, [(0, 2)]), DomainError,
         r"\(0, 2\) is not a 1-face of the complex"),
    "cochain_k_on_a_non_face":
        (lambda: sy.CochainK(RP2, 1, [5]), DomainError, "5 is not a 1-face of the complex"),
    "cochain_k_on_unorderable_labels":
        (lambda: sy.CochainK(RP2, 1, [(1, "a")]), DomainError,
         r"\(1, 'a'\) is not a 1-face of the complex"),
    "cochain_k_of_a_non_iterable_support":
        (lambda: sy.CochainK(RP2, 1, 5), ParameterError,
         "a cochain's support must be iterable, got 5"),
    "cochain_k_above_the_dimension":
        (lambda: sy.CochainK(RP2, 7, []), DimensionError, r"cochain degree 7 out of range 0\.\.2"),
    "cochain_k_of_a_negative_degree":
        (lambda: sy.CochainK(RP2, -1, []), DimensionError,
         r"cochain degree -1 out of range 0\.\.2"),
    "cochain_k_of_a_string_degree":
        (lambda: sy.CochainK(RP2, "a", []), ParameterError,
         "degree must be an integer, got 'a'"),
    "skeleton_of_a_string_dimension":
        (lambda: sy.skeleton(RP2, "a"), ParameterError,
         "skeleton dimension must be an integer, got 'a'"),
    "coboundary_of_a_string_value":
        (lambda: sy.vertex_coboundary(RP2, {1: "a"}), ParameterError,
         "the value at 1 must be an integer, got 'a'"),
    "coboundary_of_a_non_mapping":
        (lambda: sy.vertex_coboundary(RP2, 5), ParameterError,
         "the 0-cochain must be a mapping, got int"),
    "cochain_of_a_list_of_pairs":
        (lambda: sy.Cochain1(RP2, [((1, 2), 1)]), ParameterError,
         "the cochain values must be a mapping, got list"),
    "homology_radius_of_a_non_iterable":
        (lambda: sy.homology_triviality_radius(RP2, 5), ParameterError,
         "classes must be iterable, got 5"),
    "homology_radius_of_a_non_cochain":
        (lambda: sy.homology_triviality_radius(RP2, [5]), ParameterError,
         "homology triviality radius works over Z2 classes"),
    "homology_radius_of_an_integer_class":
        (lambda: sy.homology_triviality_radius(SQUARE, [XZ]), ParameterError,
         "homology triviality radius works over Z2 classes"),
    "essentiality_unknown_mode":
        (lambda: sy.combinatorial_essentiality(SQUARE, 2, mode="greedy"), ParameterError,
         "unknown mode 'greedy'"),
    "essentiality_with_another_complexs_cover":
        (lambda: sy.combinatorial_essentiality(sy.gen_polygon(4), 2, cover=RP1), ParameterError,
         "cover does not cover this complex"),
    "cochain_document_without_edges":
        (lambda: sy.loads_cochain('{"values": []}', SQUARE), ParameterError,
         "cochain document needs 'edges' and 'values' fields"),
    "cochain_document_without_values":
        (lambda: sy.loads_cochain('{"edges": []}', SQUARE), ParameterError,
         "cochain document needs 'edges' and 'values' fields"),
    "piecewise_bad_piece_count":
        (lambda: sy.PiecewisePoly((1,), ((1,),)), ParameterError,
         "need exactly one more piece than breakpoints"),
    "piecewise_bad_breakpoint_count":
        (lambda: sy.PiecewisePoly((1, 2), ((1,), (1,))), ParameterError,
         "need exactly one more piece than breakpoints"),
    "piecewise_unordered_breakpoints":
        (lambda: sy.PiecewisePoly((2, 1), ((1,), (1,), (1,))), ParameterError,
         "breakpoints must increase strictly"),
    "piecewise_negative_r":
        (lambda: sy.volume_profile([2])(-1), ParameterError, "defined for r >= 0 only"),
    "recursion_without_lengths":
        (lambda: sy.volume_recursion_check([]), ParameterError, "need at least one length"),
    "recursion_negative_grid_point":
        (lambda: sy.volume_recursion_check([1, 2], [-1]), ParameterError,
         "grid points must be nonnegative"),
    "complete_graph_on_one_vertex":
        (lambda: sy.gen_complete_graph(1), ParameterError,
         "complete graph needs at least 2 vertices"),
    "two_gon":
        (lambda: sy.gen_polygon(2), ParameterError, "polygon needs at least 3 vertices"),
    "polygon_of_float_size":
        (lambda: sy.gen_polygon(3.0), ParameterError, "vertex count must be an integer, got 3.0"),
    "polygon_of_bool_size":
        (lambda: sy.gen_polygon(True), ParameterError, "vertex count must be an integer, got True"),
    "polygon_of_string_size":
        (lambda: sy.gen_polygon("4"), ParameterError, "vertex count must be an integer, got '4'"),
    "complete_graph_of_float_size":
        (lambda: sy.gen_complete_graph(3.0), ParameterError,
         "vertex count must be an integer, got 3.0"),
    "complete_graph_of_bool_size":
        (lambda: sy.gen_complete_graph(True), ParameterError,
         "vertex count must be an integer, got True"),
    "complete_graph_of_string_size":
        (lambda: sy.gen_complete_graph("3"), ParameterError,
         "vertex count must be an integer, got '3'"),
    "profile_of_a_string":
        (lambda: sy.volume_profile("12"), ParameterError,
         "lengths must be a list or tuple, got '12'"),
    "profile_of_an_int":
        (lambda: sy.volume_profile(5), ParameterError, "lengths must be a list or tuple, got 5"),
    "recursion_of_a_string":
        (lambda: sy.volume_recursion_check("12"), ParameterError,
         "lengths must be a list or tuple, got '12'"),
    "recursion_grid_of_a_string":
        (lambda: sy.volume_recursion_check([1, 2], "12"), ParameterError,
         "grid points must be a list or tuple, got '12'"),
    "recursion_grid_of_an_int":
        (lambda: sy.volume_recursion_check([1, 2], 3), ParameterError,
         "grid points must be a list or tuple, got 3"),
    "faces_of_unorderable_labels":
        (lambda: sy.build_complex([(1, "a"), (2, 3)]), MalformedFaceError,
         "malformed face list: '<' not supported"),
    "faces_that_are_not_iterable":
        (lambda: sy.build_complex([1, 2]), MalformedFaceError,
         "malformed face list: 'int' object is not iterable"),
    "no_face_list":
        (lambda: sy.build_complex(None), MalformedFaceError,
         "malformed face list: 'NoneType' object is not iterable"),
    "quotient_of_string_labels":
        (_relabelled(OCTAGON, labels={v: str(x) for v, x in OCTAGON.labels.items()}),
         QuotientError, "label of vertex 0 must be an integer, got '1'"),
    "quotient_of_float_labels":
        (_relabelled(OCTAGON, labels={v: x + 0.5 * (x > 0) - 0.5 * (x < 0)
                                      for v, x in OCTAGON.labels.items()}),
         QuotientError, "label of vertex 0 must be an integer, got 1.5"),
    "quotient_of_bool_labels":
        (_relabelled(OCTAGON, labels={**OCTAGON.labels, 0: True}), QuotientError,
         "label of vertex 0 must be an integer, got True"),
    "quotient_with_float_images":
        (_relabelled(OCTAGON, involution={v: float(w) for v, w in OCTAGON.involution.items()}),
         QuotientError, "involution is not a free order-2 map"),
    "quotient_with_a_bool_image":
        (_relabelled(OCTAGON, involution={**OCTAGON.involution, 5: True}), QuotientError,
         "involution is not a free order-2 map"),
    "quotient_with_a_list_image":
        (_relabelled(OCTAGON, involution={**OCTAGON.involution, 0: [4]}), QuotientError,
         "involution is not a free order-2 map"),
    "quotient_of_a_list_involution":
        (_relabelled(OCTAGON, involution=list(OCTAGON.involution.values())), ParameterError,
         "the involution must be a dict, got list"),
    "quotient_of_list_labels":
        (_relabelled(OCTAGON, labels=list(OCTAGON.labels.values())), ParameterError,
         "the labels must be a dict, got list"),
    # labels that only compare equal to a vertex are no vertex (np.int64 is one:
    # test_numpy_integer_labels_are_vertices)
    "ball_at_a_bool_vertex":
        (lambda: sy.ball(HEXAGON, True, 1), UnknownVertexError,
         "True is not a vertex of the complex"),
    "sphere_at_a_bool_vertex":
        (lambda: sy.sphere(HEXAGON, True, 0), UnknownVertexError,
         "True is not a vertex of the complex"),
    "induced_on_a_bool_vertex":
        (lambda: sy.induced(HEXAGON, [True]), UnknownVertexError,
         r"vertices not in complex: \[True\]"),
    "edge_distance_to_a_float_vertex":
        (lambda: sy.edge_distance(HEXAGON, 0, 1.0), UnknownVertexError,
         "1.0 is not a vertex of the complex"),
    "restriction_to_a_float_vertex":
        (lambda: sy.restriction_is_zero(HEX_CLASS, [1.0, 2]), UnknownVertexError,
         "1.0 is not a vertex of the complex"),
    "cover_test_on_a_float_vertex":
        (lambda: sy.is_pi_inessential(HEX_COVER, [1.0]), UnknownVertexError,
         "1.0 is not a vertex of the complex"),
    "forest_test_on_a_float_vertex":
        (lambda: sy.is_inessential_graph(HEXAGON, [1.0, 2]), UnknownVertexError,
         "1.0 is not a vertex of the complex"),
    "cochain_on_a_bool_label":
        (lambda: sy.Cochain1(HEXAGON, {(True, 2): 1}), DomainError,
         r"\(True, 2\) is not an edge of the complex"),
    "cochain_on_a_float_label":
        (lambda: sy.Cochain1(HEXAGON, {(1.0, 2): 1}), DomainError,
         r"\(1\.0, 2\) is not an edge of the complex"),
    "cochain_k_on_a_float_label":
        (lambda: sy.CochainK(RP2, 1, [(1.0, 2)]), DomainError,
         r"\(1\.0, 2\) is not a 1-face of the complex"),
    "coboundary_at_a_float_vertex":
        (lambda: sy.vertex_coboundary(HEXAGON, {1.0: 1}), UnknownVertexError,
         r"1\.0 is not a vertex of the complex"),
    "coboundary_at_an_unknown_vertex":
        (lambda: sy.vertex_coboundary(HEXAGON, {99: 1}), UnknownVertexError,
         "99 is not a vertex of the complex"),
    "quotient_of_a_facet_tuple":
        (_relabelled(OCTAGON, complex=OCTAGON.complex.facets), ParameterError,
         "the complex must be a SimplicialComplex, got tuple"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_refusal(call, error, message):
    assert issubclass(error, SystolaError)
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_numpy_integer_labels_are_vertices():
    one = np.int64(1)
    assert sy.ball(HEXAGON, one, 1) == frozenset({0, 1, 2})
    assert sy.edge_distance(HEXAGON, 0, one) == 1
    assert sy.induced(HEXAGON, [one, 2]).vertex_subset == {1, 2}
    assert sy.restriction_is_zero(HEX_CLASS, [one, 2])
    assert sy.is_pi_inessential(HEX_COVER, [one])
    assert sy.is_inessential_graph(HEXAGON, [one, np.int32(2)])
    assert sy.Cochain1(HEXAGON, {(one, 2): 1}).edge_values().tolist() == [0, 0, 1, 0, 0, 0]
    assert sy.CochainK(RP2, 1, [(one, 2)]).support == {(1, 2)}
    assert sy.vertex_coboundary(HEXAGON, {one: 1}) == sy.Cochain1(HEXAGON, {(0, 1): 1, (1, 2): 1})
    assert HEXAGON.has_face((one, 2))


def test_a_face_with_a_bool_label_is_no_face():
    assert HEXAGON.has_face((1, 2)) and HEXAGON.has_face((True, 2)) is False


def test_a_face_given_in_both_orders_is_one_face():
    # a doubled face would cancel itself in the class test's target
    both = sy.CochainK(RP2, 2, [(1, 2, 3), (3, 2, 1)])
    assert both.support == {(1, 2, 3)}
    assert sy.class_is_nonzero(both) is sy.class_is_nonzero(sy.CochainK(RP2, 2, [(1, 2, 3)])) is True

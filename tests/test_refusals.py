"""One table of refusals that no other test reaches: each malformed call
raises its ``SystolaError`` subclass with its message."""

from dataclasses import replace

import pytest

import systola as sy
from systola.errors import CocycleError, DimensionError, DomainError, MalformedFaceError, \
    ParameterError, QuotientError, SystolaError

TRIANGLE = sy.build_complex([[1, 2, 3]])
SQUARE = sy.gen_polygon(4)
XI = sy.Cochain1(SQUARE, {(0, 1): 1})
XZ = sy.Cochain1(SQUARE, {(0, 1): 1}, sy.RING_Z)
RP1 = sy.build_cover(SQUARE, XI, 2)
OCTAGON = sy.gen_symmetric_sphere(1, 4)  # vertices 0..7, v and v + 4 antipodal


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
    "cochain_k_face_outside":
        (lambda: sy.CochainK(SQUARE, 1, [(0, 2)]), DomainError,
         r"\(0, 2\) is not a 1-face of the complex"),
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
    "quotient_with_a_list_image":
        (_relabelled(OCTAGON, involution={**OCTAGON.involution, 0: [4]}), QuotientError,
         "involution is not a free order-2 map"),
    "quotient_of_a_list_involution":
        (_relabelled(OCTAGON, involution=list(OCTAGON.involution.values())), ParameterError,
         "the involution must be a dict, got list"),
    "quotient_of_list_labels":
        (_relabelled(OCTAGON, labels=list(OCTAGON.labels.values())), ParameterError,
         "the labels must be a dict, got list"),
    "quotient_of_a_facet_tuple":
        (_relabelled(OCTAGON, complex=OCTAGON.complex.facets), ParameterError,
         "the complex must be a SimplicialComplex, got tuple"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_refusal(call, error, message):
    assert issubclass(error, SystolaError)
    with pytest.raises(error, match=f"^{message}"):
        call()

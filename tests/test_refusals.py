"""One table of refusals that no other test reaches: each malformed call
raises its ``SystolaError`` subclass with its message."""

import pytest

import systola as sy
from systola.errors import CocycleError, DimensionError, DomainError, ParameterError, \
    SystolaError

TRIANGLE = sy.build_complex([[1, 2, 3]])
SQUARE = sy.gen_polygon(4)
XI = sy.Cochain1(SQUARE, {(0, 1): 1})
XZ = sy.Cochain1(SQUARE, {(0, 1): 1}, sy.RING_Z)
RP1 = sy.build_cover(SQUARE, XI, 2)

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
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_refusal(call, error, message):
    assert issubclass(error, SystolaError)
    with pytest.raises(error, match=f"^{message}"):
        call()

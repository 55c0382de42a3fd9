import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import systola as sy
from systola.bounds import comb0
from systola.errors import ParameterError

GOLDEN = Path(__file__).parent / "golden"


def test_essential_table_first_row():
    t = sy.essential_ball_bounds(1, 6, 5)
    assert t.row(1) == (1, 3, 5, 7, 9, 11, 12)


def test_essential_table_examples():
    assert sy.essential_ball_bounds(1, 2, 5).value(1, 2) == 5
    assert sy.essential_ball_bounds(3, 2, 5).value(3, 2) == 14
    assert sy.essential_ball_bounds(2, 3, 2).value(2, 3) == 15


def test_essential_table_closed_form_and_endpoint():
    for r in range(0, 12):
        t = sy.essential_ball_bounds(6, r + 1, r)
        for n in range(1, 7):
            for i in range(r + 1):
                assert t.value(n, i) == 2 * comb0(i + n - 1, n) + comb0(i + n - 1, n - 1)
            assert t.value(n, r + 1) == 2 * comb0(r + n, n) + comb0(r + n, n - 1) - 1


def test_essential_table_range_error():
    with pytest.raises(ParameterError, match="undefined"):
        sy.essential_ball_bounds(2, 4, 2)
    t = sy.cup_ball_bounds(3, 3)
    with pytest.raises(ParameterError, match="row 4 not tabulated"):
        t.value(4, 0)
    with pytest.raises(ParameterError, match="column 4 not tabulated"):
        t.value(0, 4)
    with pytest.raises(ParameterError, match="row 2 not tabulated"):
        sy.essential_ball_bounds(1, 2, 3).row(2)


@pytest.mark.parametrize("call, name", [
    (lambda a: sy.essential_ball_bounds(a, 2, 3), "n_max"),
    (lambda a: sy.essential_ball_bounds(2, a, 3), "i_max"),
    (lambda a: sy.essential_ball_bounds(2, 2, a), "r"),
    (lambda a: sy.cup_ball_bounds(a, 3), "n_max"),
    (lambda a: sy.cup_ball_bounds(2, a), "i_max"),
    (lambda a: sy.delannoy_table(a, 3), "n_max"),
    (lambda a: sy.delannoy_table(2, a), "i_max"),
    (lambda a: sy.delannoy_coeff(a, 2), "n"),
    (lambda a: sy.delannoy_coeff(2, a), "i"),
    (lambda a: sy.cup_vertex_total(a, 2), "n"),
    (lambda a: sy.cup_vertex_total(2, a), "r"),
    (lambda a: sy.essential_ball_bounds(3, 3, 3).value(a, 2), "n"),
    (lambda a: sy.cup_ball_bounds(3, 3).value(2, a), "i"),
    (lambda a: sy.cup_ball_bounds(3, 3).row(a), "n"),
])
def test_bound_tables_refuse_non_integer_indices(call, name):
    for bad in (True, False, 2.5, 2.0, 3.5, "2", None, -1):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            call(bad)
    assert call(np.int64(2)) == call(2)


def test_systole_must_be_an_integer_or_inf():
    for bound in (sy.essential_vertex_lower_bound, sy.essential_vertex_bound_chain,
                  sy.cup_vertex_lower_bound, sy.fvector_lower_bounds):
        assert bound(2, np.int64(6)) == bound(2, 6)
        assert bound(40, np.int64(7)) == bound(40, 7)
        for bad in (2, 6.0, 2.5, True, "6", None):
            with pytest.raises(ParameterError, match="systole must be an integer at least 3"):
                bound(2, bad)


def test_essential_table_matches_golden_at_r20():
    golden = (GOLDEN / "ball_growth_r20.csv").read_text().splitlines()
    assert golden[0] == "n,i,value"
    table = sy.essential_ball_bounds(6, 21, 20)
    fresh = [f"{n},{i},{v}" for n in range(1, 7)
             for i, v in enumerate(table.row(n))]
    assert fresh == golden[1:]


def test_cup_table_examples():
    t = sy.cup_ball_bounds(3, 3)
    assert t.value(2, 2) == 13
    assert t.value(3, 3) == 63
    assert all(t.value(n, 0) == 1 for n in range(4))
    assert t.row(1) == (1, 3, 5, 7)


def test_cup_table_sandwich():
    t = sy.cup_ball_bounds(6, 20)
    for n in range(7):
        for i in range(21):
            v = t.value(n, i)
            assert 2 ** n * comb0(i, n) <= v <= 2 ** n * comb0(i + n, n)


def test_delannoy_equals_cup_table():
    t = sy.cup_ball_bounds(8, 16)
    for n in range(9):
        for i in range(17):
            assert sy.delannoy_coeff(n, i) == t.value(n, i)
    assert sy.delannoy_coeff(1, 1) == 3
    assert sy.delannoy_coeff(2, 2) == 13
    assert all(sy.delannoy_coeff(0, i) == 1 for i in range(10))


def test_essential_vertex_bound_examples():
    assert sy.essential_vertex_lower_bound(2, 3) == 4
    chain = sy.essential_vertex_bound_chain(2, 3)
    assert chain == (4, 3, Fraction(4, 2))
    assert chain[0] >= chain[1] >= chain[2]
    assert sy.essential_vertex_lower_bound(1, 4) == 5  # above the 4-cycle's 4
    assert sy.essential_vertex_lower_bound(3, 7) == sy.essential_vertex_lower_bound(3, 6)


def test_displayed_essential_bound_is_one_above_the_recursion():
    # the closed form exceeds the proven ball-growth value b(n, floor(s/2))
    # by exactly one; C3 relies on this to check the grid against b itself
    for n in range(1, 7):
        for s in range(3, 21):
            r = s // 2 - 1
            proven = sy.essential_ball_bounds(n, r + 1, r).value(n, r + 1)
            assert sy.essential_vertex_lower_bound(n, s) == proven + 1, (n, s)


def test_vertex_bound_chain_is_monotone():
    for n in range(1, 7):
        for s in range(3, 21):
            strong, mid, weak = sy.essential_vertex_bound_chain(n, s)
            assert strong >= mid >= weak


def test_chain_telescopes_to_the_strong_bound():
    # summing the per-level ball bounds telescopes into the closed form
    for n in range(1, 21):
        for r in range(1, 21):
            total = sum(2 * comb0(r + k - 1, k) + comb0(r + k - 1, k - 1)
                        for k in range(n + 1))
            assert total == 2 * comb0(r + n, n) + comb0(r + n, n - 1)


@pytest.mark.parametrize("bound", [
    lambda n: sy.subdivision_vertex_lower_bound(n),
    lambda n: sy.essential_vertex_lower_bound(n, 4),
    lambda n: sy.essential_vertex_bound_chain(n, 3),
    lambda n: sy.cup_vertex_lower_bound(n, 6),
    lambda n: sy.fvector_lower_bounds(n, 6),
], ids=["subdivision", "essential", "essential_chain", "cup", "fvector"])
def test_bounds_refuse_a_non_integer_n(bound):
    for bad in (0, True, False, 2.5, 2.0, "2", None):
        with pytest.raises(ParameterError, match="n must be an integer"):
            bound(bad)
    assert bound(np.int64(2)) == bound(2)


def test_infinite_systole_propagates():
    assert sy.essential_vertex_lower_bound(2, sy.INFINITY) == sy.INFINITY
    assert sy.cup_vertex_lower_bound(3, sy.INFINITY) == sy.INFINITY
    # no polytope has an infinite systole, so the f-vector bounds refuse one
    with pytest.raises(ParameterError, match="systole must be an integer at least 3"):
        sy.fvector_lower_bounds(3, sy.INFINITY)


def test_cup_vertex_bound_examples():
    assert sy.cup_vertex_lower_bound(2, 6) == 12
    assert sy.cup_vertex_lower_bound(2, 3) == 0
    assert sy.cup_vertex_lower_bound(1, 8) == 8


def test_cup_vertex_total_dominates_binomial_form():
    for n in range(7):
        for r in range(21):
            assert sy.cup_vertex_total(n, r) >= 2 ** n * comb0(r + 1, n)


def test_fvector_bounds_example():
    fb = sy.fvector_lower_bounds(3, 6)
    assert fb.f0 == 4
    assert fb.f_codim1 == 2 ** 3 * 3 * comb0(3, 3) + 2 ** 4 - 18 + 6 + 4
    assert set(fb.fk) == {1, 2, 3}
    base = 2 ** 3 * comb0(3, 3)
    assert fb.fk[1] == comb0(4, 1) * (base - 6) + 4 * comb0(4, 2)


def test_volume_profile_values():
    # one length: 2r up to L/2, constant L afterwards
    for r, expected in ((Fraction(1, 4), Fraction(1, 2)), (1, 2), (2, 3), (5, 3)):
        assert sy.ball_volume_lower_bound(r, [3]) == expected
    assert sy.ball_volume_lower_bound(2, [2, 4]) == 4
    assert sy.ball_volume_lower_bound(0, [2, 4]) == 0


def test_volume_profile_monotone_and_continuous():
    for L in ([1], [1, 2], [2, 2, 5], [0, 1, 3], [Fraction(1, 3), Fraction(5, 2)]):
        prof = sy.volume_profile(L)
        assert prof.is_continuous()
        samples = [Fraction(k, 7) for k in range(0, 50)]
        values = [prof(p) for p in samples]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_volume_profile_rejects_bad_lengths():
    with pytest.raises(ParameterError):
        sy.volume_profile([3, 1])
    with pytest.raises(ParameterError):
        sy.volume_profile([-1, 2])


@pytest.mark.parametrize("call", [
    lambda x: sy.volume_profile([1, x]),
    lambda x: sy.ball_volume_lower_bound(x, [1]),
    lambda x: sy.volume_recursion_check([1, 2], [x]),
    lambda x: sy.volume_profile([2])(x),
], ids=["length", "radius", "grid_point", "profile_at"])
def test_rationals_are_read_by_one_converter(call):
    for bad in ("a", "1/0", math.nan, math.inf, -math.inf, None, True, False, 1j):
        with pytest.raises(ParameterError, match="must be a rational number"):
            call(bad)
    assert call("3/2") == call(Fraction(3, 2)) == call(1.5)
    assert call(np.int64(2)) == call(2)


def test_volume_recursion_example():
    prof = sy.volume_profile([2]).integral()
    assert 2 * prof(2) == 6  # twice the integral of V_1(t; 2) over [0, 2]
    assert sy.ball_volume_lower_bound(2, [2, 4]) == 4
    assert sy.volume_recursion_check([2, 4])


def test_volume_recursion_with_grids_and_ties():
    assert sy.volume_recursion_check([1, 1, 1])
    assert sy.volume_recursion_check([0, 2, 3], grid=[Fraction(7, 3), 10])
    assert sy.volume_recursion_check([Fraction(1, 2)], grid=[Fraction(1, 5)])


def test_integral_of_piecewise_is_cumulative():
    prof = sy.volume_profile([2, 4])
    integral = prof.integral()
    assert integral(0) == 0
    # d/dr of the integral recovers the profile across a breakpoint
    h = Fraction(1, 1000)
    for point in (Fraction(1), Fraction(2), Fraction(3)):
        approx = (integral(point + h) - integral(point)) / h
        assert abs(approx - prof(point + h)) < Fraction(1, 50)

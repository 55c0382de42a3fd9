import random

from systola import gf2


def test_echelon_rank():
    assert gf2.rank([0b001, 0b010, 0b011]) == 2
    assert gf2.rank([0b111, 0b110, 0b001]) == 2
    assert gf2.rank([]) == 0


def test_in_span():
    rows = [0b0011, 0b0110]
    assert gf2.in_span(rows, 0b0101)
    assert not gf2.in_span(rows, 0b1000)
    assert gf2.in_span(rows, 0)


def test_rref_pivots_unique():
    rows = gf2.rref([0b111, 0b011, 0b110])
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
    assert len(kernel) == n - gf2.rank(constraints)
    for vec in kernel:
        for c in constraints:
            assert bin(vec & c).count("1") % 2 == 0


def test_kernel_of_zero_constraints_is_everything():
    assert len(gf2.kernel_basis([], 5)) == 5


def test_determinism():
    rows = [0b1100, 0b1010, 0b0110]
    assert gf2.rref(rows) == gf2.rref(list(rows))
    e1, e2 = gf2.Echelon(), gf2.Echelon()
    for r in rows:
        e1.insert(r)
        e2.insert(r)
    assert e1.rows == e2.rows

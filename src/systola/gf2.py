"""GF(2) linear algebra on integer bitsets.

Vectors are Python ints; bit i is coordinate i.  Elimination always
pivots on the lowest set bit, so every reduction is deterministic.
"""

from __future__ import annotations


class Echelon:
    """Incrementally built row space over GF(2), keyed by pivot bit."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def reduce(self, vec: int) -> int:
        """Reduce vec against the basis; 0 means vec is in the span."""
        rows = self.rows
        while vec:
            p = vec & -vec
            row = rows.get(p)
            if row is None:
                break
            vec ^= row
        return vec

    def insert(self, vec: int) -> int:
        """Insert vec, returning its reduced residual (0 if dependent)."""
        vec = self.reduce(vec)
        if vec:
            self.rows[vec & -vec] = vec
        return vec

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(vectors) -> int:
    ech = Echelon()
    return sum(1 for v in vectors if ech.insert(v))


def in_span(vectors, target: int) -> bool:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.reduce(target) == 0


def rref(vectors) -> list[int]:
    """Fully reduced echelon rows, sorted by pivot bit.

    Each pivot bit occurs in exactly one returned row.
    """
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    rows = sorted(ech.rows.values(), key=lambda r: r & -r)
    for i in range(len(rows) - 1, -1, -1):
        piv = rows[i] & -rows[i]
        for j in range(i):
            if rows[j] & piv:
                rows[j] ^= rows[i]
    return rows


def kernel_basis(constraints, n_cols: int) -> list[int]:
    """Basis of {x : c & x has even weight for every constraint c}.

    Returned vectors are ordered by their free coordinate, ascending.
    """
    rows = rref(constraints)
    pivot_bits = {r & -r for r in rows}
    basis = []
    for j in range(n_cols):
        bit = 1 << j
        if bit in pivot_bits:
            continue
        x = bit
        for r in rows:
            if r & bit:
                x |= r & -r
        basis.append(x)
    return basis

"""GF(2) linear algebra on integer bitsets.

Vectors are Python ints; bit i is coordinate i.  Elimination always
pivots on the lowest set bit, so every reduction is deterministic.

``in_span`` first contracts the vectors of weight at most 2 in a
union-find: a weight-1 vector grounds its coordinate, a weight-2 vector
joins its two.  Modulo their span a vector is its parity on each
ungrounded class, so only the heavier vectors, projected that way, go
through elimination.  A top-degree class on a pseudomanifold has only
weight-2 columns and is decided by union-find alone.

``kernel_basis`` eliminates without reducing above the pivots, then
solves for every pivot coordinate in one descending pass, carrying all
kernel vectors at once as bitsets over the free coordinates.
"""

from __future__ import annotations

_GROUND = -1


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


def _bits(vec: int):
    """Indices of the set bits of vec, ascending."""
    s = bin(vec)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def rank(vectors) -> int:
    ech = Echelon()
    return sum(1 for v in vectors if ech.insert(v))


def in_span(vectors, target: int) -> bool:
    """True iff target is a sum of some of the vectors."""
    parent = {}

    def find(i):
        root = i
        while (up := parent.get(root, root)) != root:
            root = up
        while i != root:
            parent[i], i = root, parent[i]
        return root

    heavy = []
    for v in vectors:
        low = v & -v
        high = v ^ low
        if high & (high - 1):
            heavy.append(v)
        elif v:
            a = find(low.bit_length() - 1)
            b = find(high.bit_length() - 1) if high else _GROUND
            if a == _GROUND:  # the ground stays a root
                a, b = b, a
            if a != b:
                parent[a] = b

    def project(v):
        out = 0
        for i in _bits(v):
            r = find(i)
            if r != _GROUND:
                out ^= 1 << r
        return out

    ech = Echelon()
    for v in heavy:
        ech.insert(project(v))
    return ech.reduce(project(target)) == 0


def kernel_basis(constraints, n_cols: int) -> list[int]:
    """Basis of {x < 2**n_cols : c & x has even weight for every constraint c}.

    The k-th vector has its k-th free (non-pivot) coordinate set and every
    other free coordinate clear, so the basis is unique and ordered by
    free coordinate, ascending.
    """
    mask = (1 << n_cols) - 1
    ech = Echelon()
    for c in constraints:
        ech.insert(c & mask)
    rows = ech.rows
    cols = {}
    for j in range(n_cols):
        if (1 << j) not in rows:
            cols[j] = 1 << len(cols)
    for p in sorted(rows, reverse=True):
        x = 0
        for b in _bits(rows[p] ^ p):
            x ^= cols[b]
        cols[p.bit_length() - 1] = x
    basis = [0] * (n_cols - len(rows))
    for j, x in cols.items():
        for k in _bits(x):
            basis[k] |= 1 << j
    return basis

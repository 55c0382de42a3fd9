"""GF(2) linear algebra on integer bitsets.

``Echelon`` and ``kernel_basis`` take vectors as Python ints, bit i
coordinate i.  Elimination always pivots on the lowest set bit, so every
reduction is deterministic.  ``in_span`` takes each vector as its
support, a sequence of coordinates, and builds ints only for the
projections that the contraction leaves.

``Contraction`` is the one union-find over coordinates, with a ground
class.  Its ``peel`` contracts the vectors (as coordinate lists) of weight
at most 2 -- weight 1 grounds a coordinate, weight 2 joins two -- and
repeats on the projections of the rest until nothing changes.  Modulo
what was contracted a vector is its parity on each ungrounded class, so
only the projections left with weight 3 or more are eliminated.
``in_span`` decides membership this way; a top-degree class on a
pseudomanifold has only weight-2 columns and is decided by union-find
alone.  ``cochains.h1_basis`` peels the triangle system after grounding
a spanning forest's edges.

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


def _bits(vec: int) -> list[int]:
    """Indices of the set bits of vec, ascending."""
    out = []
    if vec.bit_count() <= 8:  # sparse: peel the lowest bit, no string
        while vec:
            low = vec & -vec
            out.append(low.bit_length() - 1)
            vec ^= low
        return out
    s = bin(vec)[:1:-1]
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


def _vector(support) -> int:
    """The vector with the given set bits (the inverse of ``_bits``)."""
    x = 0
    for i in support:
        x |= 1 << i
    return x


class Contraction:
    """Union-find over coordinates with a ground class that stays a root.

    Modulo the span of the supports joined so far, a vector equals its
    parity on each ungrounded class (``project``).
    """

    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}

    def find(self, i):
        parent = self.parent
        root = parent.get(i, i)
        if root == i or parent.get(root, root) == root:
            return root
        while (up := parent.get(root, root)) != root:
            root = up
        while i != root:
            parent[i], i = root, parent[i]
        return root

    def join(self, a, b=_GROUND) -> bool:
        """Merge the classes of a and b (b the ground by default); True iff
        they were apart.  The ground stays a root."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if a == _GROUND:
            a, b = b, a
        self.parent[a] = b
        return True

    def project(self, support) -> set:
        """Roots of the ungrounded classes that support meets an odd number
        of times."""
        get = self.parent.get
        odd = set()
        for i in support:
            r = get(i, i)
            if get(r, r) != r:
                r = self.find(r)
            if r in odd:
                odd.remove(r)
            elif r != _GROUND:
                odd.add(r)
        return odd

    def peel(self, supports) -> list:
        """Contract the supports (coordinate sequences) of weight at most 2.

        A support of weight 1 grounds its class, one of weight 2 merges its
        two classes.  Each pass projects the remaining supports onto the
        current classes and contracts those left with weight at most 2;
        passes repeat until one contracts nothing.  Returns the rest,
        projected onto the final roots and each of weight at least 3:
        modulo what was contracted they span what the supports do.
        """
        join, project = self.join, self.project
        heavy = supports
        while True:
            rest = []
            for s in heavy:
                if len(s) > 2:
                    s = project(s)
                    if len(s) > 2:
                        rest.append(s)
                        continue
                if s:
                    join(*s)
            if len(rest) == len(heavy):
                return rest
            heavy = rest


def in_span(supports: list, target) -> bool:
    """True iff target is a sum of some of the vectors with these supports.

    Each vector, and target, is given as its support, a sequence of
    coordinates."""
    uf = Contraction()
    ech = Echelon()
    for s in uf.peel(supports):
        ech.insert(_vector(s))
    return ech.reduce(_vector(uf.project(target))) == 0


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

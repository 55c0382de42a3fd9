"""GF(2) linear algebra on integer bitsets, and contraction on index arrays.

``Echelon`` and ``kernel_basis`` take vectors as Python ints, bit i
coordinate i.  Elimination always pivots on the lowest set bit, so every
reduction is deterministic.

Contraction works on a ``parent`` array over coordinates 1..n-1 with the
ground class at index 0, every entry its root between calls.  ``join``
hooks the larger root of each pair under the smaller one (``np.minimum.at``)
and jumps pointers until stable, so the ground, the least index, is always
the root of its class.  ``peel`` takes many vectors at once, each as the
coordinates of its support, given as (support id, coordinate) arrays.
Modulo what was contracted a vector is its parity on each ungrounded class,
its projection: one sort of the packed (id, root) keys per pass, keeping
the runs of odd length with a root other than 0.  A pass then contracts
every support whose projection has weight at most 2 -- weight 1 grounds
its class, weight 2 joins its two -- and passes repeat on the rest until
one contracts nothing.

Batch passes reach the classes that contracting one support at a time
reaches.  Merging classes never raises a projected weight (the parity on
a merged class is the sum of the parities on its parts), so a support of
weight at most 2 under some classes has weight at most 2 under every
coarser one.  Call classes closed when they are coarser than the classes
given and every support projects onto them with weight 0 or at least 3.
Take any closed classes C.  While the current classes are finer than C,
the next join, in either order, is made for a support of weight at most
2 under them, so under C too, so of weight 0 under C: the join lies
inside C, and the classes stay finer than C.  Both orders stop at closed
classes, each contracted support of weight 0 and the rest of weight at
least 3, so both stop at the least closed classes: the same partition
and ground set, leaving the same supports.

``in_span`` decides membership this way and eliminates only the
projections left; a top-degree class on a pseudomanifold has only
weight-2 columns and is decided by contraction alone.
``cochains.h1_basis`` peels the triangle system after grounding a
spanning forest's edges.

``kernel_basis`` eliminates without reducing above the pivots, then
solves for every pivot coordinate in one descending pass, carrying all
kernel vectors at once as bitsets over the free coordinates.
"""

from __future__ import annotations

import numpy as np

from .complexes import runs
from .errors import CapacityError


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


def _vectors(ids: np.ndarray, coords: np.ndarray) -> list[int]:
    """One int per run of equal ids, with the bits of that run's coords."""
    coords = coords.tolist()
    starts, lengths = runs(ids)
    return [_vector(coords[i:i + n]) for i, n in zip(starts.tolist(), lengths.tolist())]


def join(parent: np.ndarray, a, b) -> None:
    """Merge the classes of a[i] and b[i] for every i.  Every entry of
    parent is its root before and after; the larger root of a pair hooks
    under the smaller, so index 0, the ground, stays a root."""
    a, b = parent[a], parent[b]
    while True:
        apart = a != b
        if not apart.any():
            return
        lo, hi = np.minimum(a[apart], b[apart]), np.maximum(a[apart], b[apart])
        np.minimum.at(parent, hi, lo)
        while True:  # jump pointers until every entry is its root
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up
        a, b = parent[lo], parent[hi]


def _odd_runs(keys: np.ndarray) -> np.ndarray:
    """The values that occur an odd number of times in sorted keys, ascending."""
    starts, lengths = runs(keys)
    return keys[starts[lengths % 2 == 1]]


def peel(parent: np.ndarray, ids, coords) -> tuple:
    """Contract the supports of weight at most 2 into parent, to a fixpoint.

    Support s is the coordinates coords[i] with ids[i] == s (indices into
    parent, so never 0; a repeated coordinate counts twice).  Each pass
    projects the remaining supports onto the current classes, grounds the
    class of each one left with weight 1 and joins the two of each one
    left with weight 2.  Returns the rest as (ids, roots), sorted by id
    and then root: each projected onto the final classes, of weight at
    least 3, and modulo what was contracted spanning what the supports do.
    """
    ids, coords = np.asarray(ids, dtype=np.int64), np.asarray(coords, dtype=np.int64)
    n = len(parent)
    if len(ids) and (int(ids.max()) + 1) * n > 2 ** 63:
        raise CapacityError("support ids times coordinates must stay below 2**63")
    while True:
        keys = _odd_runs(np.sort(ids * n + parent[coords]))
        ids, roots = np.divmod(keys, n)
        kept = roots != 0
        ids, roots = ids[kept], roots[kept]
        starts, weight = runs(ids)
        if (weight > 2).all():
            return ids, roots
        one, two = starts[weight == 1], starts[weight == 2]
        join(parent, np.concatenate([roots[one], roots[two]]),
             np.concatenate([np.zeros(len(one), dtype=np.int64), roots[two + 1]]))
        heavy = np.repeat(weight > 2, weight)
        ids, coords = ids[heavy], roots[heavy]


def in_span(weights, coords, target) -> bool:
    """True iff target is a sum of some of the given vectors.

    Vector i is the support of weights[i] coordinates, the next ones in
    coords after those of the vectors before it; target is a sequence of
    coordinates too.  Coordinates are nonnegative integers.
    """
    weights = np.asarray(weights, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64) + 1  # index 0 is the ground
    target = np.asarray(target, dtype=np.int64) + 1
    parent = np.arange(1 + max(coords.max(initial=0), target.max(initial=0)))
    ids, roots = peel(parent, np.repeat(np.arange(len(weights)), weights), coords)
    ech = Echelon()
    for vec in _vectors(ids, roots):
        ech.insert(vec)
    odd = _odd_runs(np.sort(parent[target]))  # the target's projection, and the ground
    return ech.reduce(_vector(odd[odd != 0].tolist())) == 0


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

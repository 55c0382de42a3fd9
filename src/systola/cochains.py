"""Cochain algebra: cocycle tests, H^1 over Z2, cup products, restrictions.

Degree-1 cochains carry either Z2 or integer values (integers are only
needed to build cyclic covers); cup products and class-nontriviality
tests work over Z2.
"""

from __future__ import annotations

from . import gf2
from .complexes import InducedSubcomplex, SimplicialComplex
from .errors import CocycleError, DimensionError, DomainError, ParameterError, \
    UnknownVertexError, require_int

RING_Z2 = "Z2"
RING_Z = "Z"


class Cochain1:
    """A 1-cochain: values on sorted edges, absent edges are 0.

    Over Z2 the orientation is irrelevant; over the integers the stored
    value belongs to the edge oriented from its smaller to its larger
    vertex.  ``values`` is not changed after construction, so the cocycle
    verdict and the step table are computed at most once per cochain.
    """

    __slots__ = ("complex", "values", "ring", "_steps", "_cocycle")

    def __init__(self, complex: SimplicialComplex, values, ring: str = RING_Z2):
        if ring not in (RING_Z2, RING_Z):
            raise ParameterError(f"unknown coefficient ring {ring!r}")
        edge_set = complex.faces(1)
        vals = {}
        for e, v in values.items():
            e = tuple(sorted(e))
            if e not in edge_set:
                raise DomainError(f"{e!r} is not an edge of the complex")
            if type(v) is not int:  # refuses bools, floats and strings; keeps numpy ints
                v = require_int(v, f"the value on {e!r}")
            if ring == RING_Z2:
                v %= 2
            if v:
                vals[e] = v
        self.complex = complex
        self.values = vals
        self.ring = ring
        self._steps = None
        self._cocycle = None

    def value(self, u, v) -> int:
        """Value on the oriented edge u -> v."""
        if u < v:
            return self.values.get((u, v), 0)
        x = self.values.get((v, u), 0)
        return x if self.ring == RING_Z2 else -x

    def step_table(self) -> dict:
        """Vertex v -> ((w, value(v, w)), ...) over its neighbours, built once."""
        if self._steps is None:
            self._steps = {v: tuple((w, self.value(v, w)) for w in nbrs)
                           for v, nbrs in self.complex.adjacency().items()}
        return self._steps

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "Cochain1") -> "Cochain1":
        if self.complex is not other.complex or self.ring != other.ring:
            raise ParameterError("cochains live on different complexes or rings")
        out = dict(self.values)
        for e, v in other.values.items():
            out[e] = out.get(e, 0) + v
        return Cochain1(self.complex, out, self.ring)

    def __eq__(self, other):
        if not isinstance(other, Cochain1):
            return NotImplemented
        return (self.complex is other.complex and self.ring == other.ring
                and self.values == other.values)

    __hash__ = None

    def __repr__(self):
        return f"Cochain1({self.ring}, support={len(self.values)} edges)"


class CochainK:
    """A Z2 cochain of degree k, stored as its support set of k-faces."""

    __slots__ = ("complex", "degree", "support")

    def __init__(self, complex: SimplicialComplex, degree: int, support):
        faces = complex.faces(degree)
        supp = set()
        for f in support:
            f = tuple(sorted(f))
            if f not in faces:
                raise DomainError(f"{f!r} is not a {degree}-face of the complex")
            supp.add(f)
        self.complex = complex
        self.degree = degree
        self.support = frozenset(supp)

    def value(self, face) -> int:
        return 1 if tuple(sorted(face)) in self.support else 0

    def is_zero(self) -> bool:
        return not self.support

    def __repr__(self):
        return f"CochainK(degree={self.degree}, support={len(self.support)})"


def vertex_coboundary(X: SimplicialComplex, g, ring: str = RING_Z2) -> Cochain1:
    """The coboundary of a 0-cochain g (a dict vertex -> value)."""
    vals = {}
    for u, v in X.faces(1):
        a, b = g.get(u, 0), g.get(v, 0)
        vals[(u, v)] = (a + b) % 2 if ring == RING_Z2 else b - a
    return Cochain1(X, vals, ring)


def is_cocycle(c: Cochain1) -> bool:
    """True iff the coboundary of c vanishes on every 2-face.

    The verdict is kept on c, so ``build_cover`` and ``cup_power`` on the
    same cochain check it once between them.
    """
    if c._cocycle is None:
        c._cocycle = _coboundary_vanishes(c)
    return c._cocycle


def _coboundary_vanishes(c: Cochain1) -> bool:
    X = c.complex
    if c.ring == RING_Z2:
        for a, b, d in X.faces(2):
            if (c.value(a, b) + c.value(b, d) + c.value(a, d)) % 2:
                return False
    else:
        for a, b, d in X.faces(2):
            if c.value(a, b) + c.value(b, d) - c.value(a, d):
                return False
    return True


def coboundary(c: CochainK) -> CochainK:
    """Z2 coboundary, one degree up."""
    X = c.complex
    k = c.degree
    out = set()
    for f in X.faces(k + 1):
        parity = 0
        for i in range(k + 2):
            if f[:i] + f[i + 1:] in c.support:
                parity ^= 1
        if parity:
            out.add(f)
    return CochainK(X, k + 1, out)


def cup_power(classes, X: SimplicialComplex | None = None) -> CochainK:
    """Alexander-Whitney product of degree-1 Z2 cocycles.

    On an n-face v_0 < ... < v_n the value is the product of the k-th
    class on the edge (v_{k-1}, v_k).  With a single input class the
    result is that class, repackaged in degree 1.  A class that is not a
    cocycle is refused with ``CocycleError``; each distinct class object is
    checked once, so ``[xi] * n`` costs one check.
    """
    if not classes:
        raise ParameterError("at least one class required")
    X = X if X is not None else classes[0].complex
    n = len(classes)
    for c in {id(c): c for c in classes}.values():
        if c.complex is not X:
            raise ParameterError("all classes must live on the same complex")
        if c.ring != RING_Z2:
            raise ParameterError("cup products are computed over Z2 only")
        if not is_cocycle(c):
            raise CocycleError("cup products are taken of cocycles only")
    if n > X.dim:
        raise DimensionError(f"product of degree {n} exceeds complex dimension {X.dim}")
    support = set()
    for f in X.faces(n):
        bit = 1
        for k in range(1, n + 1):
            if not classes[k - 1].value(f[k - 1], f[k]):
                bit = 0
                break
        if bit:
            support.add(f)
    return CochainK(X, n, support)


def class_is_nonzero(c: CochainK) -> bool:
    """True iff c, assumed a cocycle, is not a Z2 coboundary.

    Decided by whether the target lies in the span of the coboundaries of
    the (k-1)-faces (``gf2.in_span``).  Each column is passed as its
    support, the indices of the k-faces that contain the (k-1)-face, and
    the target as the indices of c's support.  Columns of weight 2 are
    contracted by union-find before any elimination; in top degree on a
    closed pseudomanifold every column has weight 2, so c is nonzero iff
    its support is odd on some component of the dual graph.  The verdict
    does not depend on the order of faces or columns, but the fill-in of
    the elimination below top degree does: k-faces are indexed in sorted
    order and columns come in sorted (k-1)-face order.
    """
    if c.degree < 1:
        raise DimensionError("degree must be at least 1")
    if not c.support:
        return False
    X = c.complex
    k = c.degree
    kfaces = sorted(X.faces(k))
    fidx = {f: i for i, f in enumerate(kfaces)}
    columns = {}
    for i, f in enumerate(kfaces):
        for j in range(k + 1):
            columns.setdefault(f[:j] + f[j + 1:], []).append(i)
    cols = [columns[t] for t in sorted(columns)]
    return not gf2.in_span(cols, [fidx[f] for f in c.support])


def h1_basis(X: SimplicialComplex) -> list[Cochain1]:
    """Cocycles whose classes form a basis of H^1(X; Z2).

    The cocycles are what ``gf2.kernel_basis`` gives for the full triangle
    system, one per free edge coordinate in ascending order, each kept (as
    its residual) if it is independent of the vertex stars and of the
    vectors before it.  Deterministic for a fixed complex.  The full system
    is never eliminated:

    * The pivots of a lowest-bit echelon are the lowest bits of its row
      space, whatever the insertion order.  So the free coordinates are the
      highest bits of the kernel Z^1, and the kernel vector of a free f is
      the one cocycle with highest bit f that vanishes on every other free
      coordinate.
    * Z^1 is the coboundaries plus the cocycles that vanish on T, the
      spanning forest that Kruskal builds from the highest edge index down.
      The highest bits of the coboundaries are the edges of T; the rest of
      the free set is the set C of highest bits of cocycles vanishing on T.
    * Those cocycles come from gauge fixing: ground the tree edges and peel
      the triangles (``gf2.Contraction.peel``): one left with one edge
      grounds it, one left with two joins them, again on the projections
      onto the current classes until nothing changes.  The few triangles
      left go to ``kernel_basis`` over the classes, numbered by their
      highest edge, so its k-th vector expands to the kernel vector K_c of
      the k-th c in C.
    * The kernel vector of a forest edge j is its fundamental cut plus the
      K_c of every c whose tree path crosses j.  Each such c is below j (T
      took every edge of that path before it reached c), so the vector is
      in the span of the stars and of the K_c inserted before it: it
      reduces to 0 and leaves the echelon unchanged.  Only the K_c are
      inserted, and each leaves a residual, since no nonzero coboundary
      vanishes on T.
    """
    edges = sorted(X.faces(1))
    eidx = {e: i for i, e in enumerate(edges)}
    vi = X.vertex_index()
    forest = gf2.Contraction()
    uf = gf2.Contraction()
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        if forest.join(vi[u], vi[v]):
            uf.join(i)  # a tree edge: ground it
    heavy = uf.peel([(eidx[(a, b)], eidx[(b, d)], eidx[(a, d)]) for a, b, d in X.faces(2)])
    members = {}
    for i in range(len(edges)):
        if (r := uf.find(i)) != gf2._GROUND:
            members.setdefault(r, []).append(i)
    roots = sorted(members, key=lambda r: members[r][-1])
    cid = {r: k for k, r in enumerate(roots)}
    kernel = gf2.kernel_basis([gf2._vector(cid[r] for r in s) for s in heavy], len(roots))
    if not kernel:
        return []
    reps = gf2.Echelon()
    adj = X.adjacency()
    for v in X.vertices:
        reps.insert(gf2._vector(eidx[(u, v) if u < v else (v, u)] for u in adj[v]))
    out = []
    for x in kernel:
        residual = reps.insert(gf2._vector(i for k in gf2._bits(x) for i in members[roots[k]]))
        out.append(Cochain1(X, {edges[i]: 1 for i in gf2._bits(residual)}, RING_Z2))
    return out


def potential_is_consistent(steps, W, modulus=None) -> bool:
    """True iff a potential p on <W> has p(w) - p(v) = step on every edge.

    ``steps[v]`` lists (w, step) per oriented edge v -> w, the reverse edge
    with the negated step.  Each vertex of <W> takes its potential from its
    tree parent; the first edge that disagrees answers False.  ``modulus``
    is the fiber for covers, 2 over Z2 and None over the integers.  W may be
    any iterable of vertices; this is the one place where a vertex subset is
    checked, and a vertex with no entry in ``steps`` is refused with
    ``UnknownVertexError``.
    """
    W = W if isinstance(W, (set, frozenset)) else set(W)
    if not steps.keys() >= W:
        unknown = next(v for v in W if v not in steps)
        raise UnknownVertexError(f"{unknown!r} is not a vertex of the complex")
    potential = {}
    for root in W:
        if root in potential:
            continue
        potential[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            pv = potential[v]
            for w, step in steps[v]:
                if w in W:
                    want = pv + step if modulus is None else (pv + step) % modulus
                    have = potential.get(w)
                    if have is None:
                        potential[w] = want
                        stack.append(w)
                    elif have != want:
                        return False
    return True


def restriction_is_zero(c: Cochain1, S) -> bool:
    """True iff c restricted to the induced subcomplex S is a coboundary.

    The potential check restricted to S that also decides whether a cover
    is trivial over S.
    """
    W = S.vertex_subset if isinstance(S, InducedSubcomplex) else S
    return potential_is_consistent(c.step_table(), W, 2 if c.ring == RING_Z2 else None)

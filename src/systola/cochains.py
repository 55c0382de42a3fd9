"""Cochain algebra: cocycle tests, H^1 over Z2, cup products, restrictions.

Degree-1 cochains carry either Z2 or integer values (integers are only
needed to build cyclic covers); cup products and class-nontriviality
tests work over Z2.

A 1-cochain keeps one value per edge, aligned with the complex's sorted edge
keys (``SimplicialComplex.edge_keys``): the cocycle test and the cup read it
at the column pairs of the face rows (``_edge_reader``) and the covers' total
graph as it is, so none of them derives triangles as tuples.  Values stay exact:
they are int64 while every magnitude is below 2**61, so that a sum of three
cannot wrap, and Python ints in an object array otherwise.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import gf2
from .complexes import InducedSubcomplex, SimplicialComplex, _as_mask, _as_tuples, _face_ids, \
    _image, lex_keys, runs
from .errors import CocycleError, DimensionError, DomainError, ParameterError, \
    UnknownVertexError, require_int

RING_Z2 = "Z2"
RING_Z = "Z"


class Cochain1:
    """A 1-cochain: values on sorted edges, absent edges are 0.

    Over Z2 the orientation is irrelevant; over the integers the stored
    value belongs to the edge oriented from its smaller to its larger
    vertex.  The cochain is its vector of values on ``complex.edge_keys()``,
    never changed after construction, so the cocycle verdict, the
    restriction tables and the ``values`` dict are computed at most once.
    """

    __slots__ = ("complex", "ring", "_edge_values", "_values", "_tables", "_cocycle")

    def __init__(self, complex: SimplicialComplex, values, ring: str = RING_Z2):
        if ring not in (RING_Z2, RING_Z):
            raise ParameterError(f"unknown coefficient ring {ring!r}")
        index, names, nv = complex.vertex_index(), complex.vertices, complex.num_vertices
        keyed, vals = {}, {}  # each given edge, sorted, to its key a·V + b; the nonzero values
        for e, v in _items(values, "the cochain values"):
            try:
                e = tuple(sorted(e))
                a, b = e
                i, j = _image(index, names, a), _image(index, names, b)
            except (TypeError, ValueError):
                raise DomainError(f"{e!r} is not an edge of the complex") from None
            keyed[e] = -1 if min(i, j) < 0 else i * nv + j  # -1: no key, so refused below
            if type(v) is not int:  # refuses bools, floats and strings; keeps numpy ints
                v = require_int(v, f"the value on {e!r}")
            if ring == RING_Z2:
                v %= 2
            if v:
                vals[e] = v
        keys = complex.edge_keys()
        given = np.fromiter(keyed.values(), dtype=np.int64, count=len(keyed))
        pos = np.searchsorted(keys, given)
        missing = np.flatnonzero(np.searchsorted(keys, given, "right") == pos)
        if len(missing):
            raise DomainError(f"{list(keyed)[missing[0]]!r} is not an edge of the complex")
        big = max(map(abs, vals.values()), default=0) >= 2 ** 61
        vector = np.zeros(len(keys), dtype=object if big else np.int64)
        vector[pos] = [vals.get(e, 0) for e in keyed]
        self._keep(complex, vector, ring)

    @classmethod
    def _from_edge_values(cls, complex: SimplicialComplex, vector, ring: str) -> "Cochain1":
        """The cochain with value ``vector[i]`` on the i-th edge of
        ``complex.edge_keys()``: an int64 or object array of exact integers."""
        vector = vector % 2 if ring == RING_Z2 else vector
        big = len(vector) and max(-vector.min(), vector.max()) >= 2 ** 61
        c = cls.__new__(cls)
        c._keep(complex, vector.astype(object if big else np.int64), ring)
        return c

    def _keep(self, complex, vector, ring):
        """Take ``vector``, int64 while every magnitude is below 2**61, else Python
        ints, reduced mod 2 over Z2, as the cochain; nothing else holds it."""
        vector.flags.writeable = False  # the cochain is this vector
        self.complex, self.ring, self._edge_values = complex, ring, vector
        self._values, self._tables, self._cocycle = None, {}, None

    @property
    def values(self) -> dict:
        """The nonzero values by sorted edge label pair, in edge order (built on first read)."""
        if self._values is None:
            on = np.flatnonzero(self._edge_values)
            edges = _as_tuples(self.complex.face_rows(1)[on], self.complex.vertices)
            self._values = dict(zip(edges, self._edge_values[on].tolist()))
        return self._values

    def value(self, u, v) -> int:
        """Value on the oriented edge u -> v."""
        if u < v:
            return self.values.get((u, v), 0)
        x = self.values.get((v, u), 0)
        return x if self.ring == RING_Z2 else -x

    def edge_values(self) -> np.ndarray:
        """The values on the edges a -> b of ``complex.edge_keys()``, in order:
        int64, or object once a value reaches 2**61 in magnitude."""
        return self._edge_values

    def is_zero(self) -> bool:
        return not self._edge_values.any()

    def __add__(self, other: "Cochain1") -> "Cochain1":
        if self.complex is not other.complex or self.ring != other.ring:
            raise ParameterError("cochains live on different complexes or rings")
        return Cochain1._from_edge_values(self.complex, self._edge_values + other._edge_values,
                                          self.ring)

    def __eq__(self, other):
        if not isinstance(other, Cochain1):
            return NotImplemented
        return (self.complex is other.complex and self.ring == other.ring
                and np.array_equal(self._edge_values, other._edge_values))

    __hash__ = None

    def __repr__(self):
        return f"Cochain1({self.ring}, support={len(self.values)} edges)"


class CochainK:
    """A Z2 cochain of degree k in 0..dim, stored as its support set of k-faces
    and, from construction, as their positions in ``complex.face_rows(k)``."""

    __slots__ = ("complex", "degree", "support", "_ids")

    def __init__(self, complex: SimplicialComplex, degree: int, support):
        degree = require_int(degree, "degree")
        if not 0 <= degree <= complex.dim:
            raise DimensionError(f"cochain degree {degree} out of range 0..{complex.dim}")
        try:
            support = list(support)
        except TypeError:
            raise ParameterError(f"a cochain's support must be iterable, got {support!r}") from None
        index, names = complex.vertex_index(), complex.vertices
        faces, rows = [], []  # each given face, sorted, and its vertex indices (-1s if none)
        for f in support:
            try:
                f = tuple(sorted(f))
                row = [_image(index, names, v) for v in f]
            except TypeError:  # not iterable, or labels that cannot be ordered or hashed
                row = []
            faces.append(f)
            rows.append(row if len(row) == degree + 1 and min(row) >= 0 else [-1] * (degree + 1))
        ids = _face_ids(complex, degree, rows)
        missing = np.flatnonzero(ids < 0)
        if len(missing):
            raise DomainError(f"{faces[missing[0]]!r} is not a {degree}-face of the complex")
        self.complex, self.degree = complex, degree
        self.support, self._ids = frozenset(faces), np.unique(ids)

    @classmethod
    def _from_rows(cls, complex: SimplicialComplex, degree: int, ids) -> "CochainK":
        """The cochain on the k-faces at positions ``ids`` of
        ``complex.face_rows(degree)``; tuples are built for them only."""
        c = cls.__new__(cls)
        c.complex, c.degree, c._ids = complex, degree, ids
        c.support = frozenset(_as_tuples(complex.face_rows(degree)[ids], complex.vertices))
        return c

    def value(self, face) -> int:
        return 1 if tuple(sorted(face)) in self.support else 0

    def is_zero(self) -> bool:
        return not self.support

    def __repr__(self):
        return f"CochainK(degree={self.degree}, support={len(self.support)})"


def vertex_coboundary(X: SimplicialComplex, g, ring: str = RING_Z2) -> Cochain1:
    """The coboundary of a 0-cochain g (a dict vertex -> integer value); a key
    that ``_image`` maps to no vertex is refused with ``UnknownVertexError``."""
    index, names = X.vertex_index(), X.vertices
    at = np.zeros(len(names), dtype=object)  # the values as given, exact
    for v, x in _items(g, "the 0-cochain"):
        x = require_int(x, f"the value at {v!r}")
        if (i := _image(index, names, v)) < 0:
            raise UnknownVertexError(f"{v!r} is not a vertex of the complex")
        at[i] = x
    a, b = X.face_rows(1).T
    return Cochain1._from_edge_values(X, at[a] + at[b] if ring == RING_Z2 else at[b] - at[a],
                                      ring)


def _items(values, what: str):
    """``values.items()``; refused with ``ParameterError`` if not a mapping."""
    try:
        return values.items()
    except AttributeError:
        raise ParameterError(f"{what} must be a mapping, got {type(values).__name__}") from None


def is_cocycle(c: Cochain1) -> bool:
    """True iff the coboundary of c vanishes on every 2-face.

    The verdict is kept on c, so ``build_cover`` and ``cup_power`` on the
    same cochain check it once between them.
    """
    if c._cocycle is None:
        c._cocycle = _coboundary_vanishes(c)
    return c._cocycle


def _coboundary_vanishes(c: Cochain1) -> bool:
    """c(a, b) + c(b, d) - c(a, d) on every column triple i < j < k of the
    facet rows, all rows at once: mod 2 over Z2, exactly over Z.  A triangle
    shared by several facets is checked once per facet.  Each column pair is
    read by ``_edge_reader``: one gather from its pair table where it has one."""
    X = c.complex
    if X.dim < 2:  # no triangle, so no table to build
        return True
    nv = X.num_vertices
    read = _edge_reader(c)
    for R in X.facet_rows():
        width = R.shape[1]
        if width < 3:
            continue
        # every column pair of a facet row is an edge, so every key is found
        on = {(i, j): read(R[:, i].astype(np.int64) * nv + R[:, j])
              for i, j in combinations(range(width), 2)}
        for i, j, k in combinations(range(width), 3):
            delta = on[i, j] + on[j, k] - on[i, k]
            if c.ring == RING_Z2:
                delta %= 2
            if np.count_nonzero(delta):
                return False
    return True


# Bytes up to which ``_edge_reader`` reads a cochain's edge values from a dense
# V x V pair table; 2**23 admits the (4,8) quotient's 7.8 MB Z2 table.
MAX_PAIR_TABLE_BYTES = 2 ** 23


def _edge_reader(c: Cochain1):
    """A function from int64 keys a·V + b of edges (a < b) to c's values on them:
    a gather from a zeroed V² table indexed by the key, int8 over Z2 and int64
    over Z, built here and freed with the function, while that fits
    ``MAX_PAIR_TABLE_BYTES`` and no value is a Python int; else a ``searchsorted``
    in the edge keys."""
    X, vals = c.complex, c.edge_values()
    keys, nv = X.edge_keys(), X.num_vertices
    dtype = np.dtype(np.int8 if c.ring == RING_Z2 else np.int64)
    if vals.dtype != object and nv * nv * dtype.itemsize <= MAX_PAIR_TABLE_BYTES:
        table = np.zeros(nv * nv, dtype=dtype)
        table[keys] = vals
        return table.__getitem__
    return lambda pairs: vals[np.searchsorted(keys, pairs)]


def coboundary(c: CochainK) -> CochainK:
    """Z2 coboundary, one degree up: the (k+1)-face rows with an odd number
    of their k-faces (each row with one column dropped) at c's positions."""
    X, k = c.complex, c.degree
    if k >= X.dim:
        raise DimensionError(f"cochain degree {k + 1} out of range 0..{X.dim}")
    rows = X.face_rows(k + 1)
    ridges = _face_ids(X, k, np.concatenate([np.delete(rows, j, axis=1) for j in range(k + 2)]))
    odd = np.isin(ridges, c._ids).reshape(k + 2, -1).sum(axis=0) % 2
    return CochainK._from_rows(X, k + 1, np.flatnonzero(odd))


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
    rows, nv = X.face_rows(n), X.num_vertices
    on = np.arange(len(rows))
    for k, c in enumerate(classes, 1):
        if k == 1 or c is not classes[k - 2]:  # one reader per run of one class
            read = _edge_reader(c)
        on = on[read(rows[on, k - 1].astype(np.int64) * nv + rows[on, k]) != 0]
    return CochainK._from_rows(X, n, on)


def class_is_nonzero(c: CochainK) -> bool:
    """True iff c, assumed a cocycle, is not a Z2 coboundary.

    Decided by whether the target lies in the span of the coboundaries of
    the (k-1)-faces (``gf2.in_span``).  The k-faces are numbered by their
    position in ``face_rows(k)``, and the column of a (k-1)-face is the
    set of k-faces that contain it: each k-face row with one column
    dropped names a ridge, and one sort of the ridges' ``lex_keys`` groups
    them, in sorted ridge order.  The target is c's support.  Columns of
    weight 2 are contracted before any elimination; in top degree on a
    closed pseudomanifold every column has weight 2, so c is nonzero iff
    its support is odd on some component of the dual graph.  The verdict
    does not depend on the order of faces or columns, but the fill-in of
    the elimination below top degree does, so both orders are the sorted
    ones.
    """
    if c.degree < 1:
        raise DimensionError("degree must be at least 1")
    if not c.support:
        return False
    X = c.complex
    k = c.degree
    faces = X.face_rows(k)
    ridges = np.concatenate([np.delete(faces, j, axis=1) for j in range(k + 1)])
    keys = lex_keys(ridges, X.num_vertices)
    order = np.argsort(keys)
    return not gf2.in_span(runs(keys[order])[1], order % len(faces), c._ids)


def h1_basis(X: SimplicialComplex) -> list[Cochain1]:
    """Cocycles whose classes form a basis of H^1(X; Z2).

    The cocycles are what ``gf2.kernel_basis`` gives for the full triangle
    system, one per free edge coordinate in ascending order, each kept (as
    its residual) if it is independent of the vertex stars and of the
    vectors before it.  Edge i is the i-th of ``X.edge_keys()``, so the
    i-th edge in sorted order.  Deterministic for a fixed complex.  The
    full system is never eliminated:

    * The pivots of a lowest-bit echelon are the lowest bits of its row
      space, whatever the insertion order.  So the free coordinates are the
      highest bits of the kernel Z^1, and the kernel vector of a free f is
      the one cocycle with highest bit f that vanishes on every other free
      coordinate.
    * Z^1 is the coboundaries plus the cocycles that vanish on T, the
      spanning forest that Kruskal builds from the highest edge index down.
      ``_spanning_forest`` builds it in Borůvka rounds instead: the edge
      indices are distinct weights, so both give the one maximum spanning
      forest.  The highest bits of the coboundaries are the edges of T;
      the rest of the free set is the set C of highest bits of cocycles
      vanishing on T.
    * Those cocycles come from gauge fixing: ground the tree edges and peel
      the triangles (``gf2.peel``; the triangles are ``face_rows(2)``, their
      edges found by ``searchsorted`` in the edge keys): one left with one
      edge grounds it, one left with two joins them, again on the
      projections onto the current classes until nothing changes.  The few
      triangles left go to ``kernel_basis`` over the classes, numbered by
      their highest edge, so its k-th vector expands to the kernel vector
      K_c of the k-th c in C.
    * The kernel vector of a forest edge j is its fundamental cut plus the
      K_c of every c whose tree path crosses j.  Each such c is below j (T
      took every edge of that path before it reached c), so the vector is
      in the span of the stars and of the K_c inserted before it: it
      reduces to 0 and leaves the echelon unchanged.  Only the K_c are
      inserted, and each leaves a residual, since no nonzero coboundary
      vanishes on T.
    """
    nv = X.num_vertices
    keys = X.edge_keys()
    a, b = np.divmod(keys, nv)
    edge = np.arange(len(keys))
    parent = np.arange(len(keys) + 1)  # edge i is entry i + 1; entry 0 is the ground
    parent[edge[_spanning_forest(a, b, nv)] + 1] = 0
    tri = X.face_rows(2).astype(np.int64)
    sides = [np.searchsorted(keys, tri[:, i] * nv + tri[:, j]) + 1
             for i, j in ((0, 1), (1, 2), (0, 2))]
    ids, roots = gf2.peel(parent, np.repeat(np.arange(len(tri)), 3),
                          np.column_stack(sides).ravel())
    root = parent[1:]
    free = root != 0
    highest = np.full(len(parent), -1)  # root -> the highest edge of its class
    np.maximum.at(highest, root[free], edge[free])
    top = np.zeros(len(keys), dtype=bool)
    top[highest[highest >= 0]] = True
    cid = np.cumsum(top) - 1  # at the highest edge of each class, its number
    kernel = gf2.kernel_basis(gf2._vectors(ids, cid[highest[roots]]), int(top.sum()))
    if not kernel:
        return []
    klass = cid[highest[root[free]]]
    members = np.split(edge[free][np.argsort(klass)],
                       np.cumsum(np.bincount(klass))[:-1])
    members = [m.tolist() for m in members]
    reps = gf2.Echelon()
    ends = np.concatenate([a, b])
    order = np.argsort(ends)
    for star in gf2._vectors(ends[order], np.concatenate([edge, edge])[order]):
        reps.insert(star)
    out = []
    for x in kernel:
        residual = reps.insert(gf2._vector(i for k in gf2._bits(x) for i in members[k]))
        vector = np.zeros(len(keys), dtype=np.int64)
        vector[list(gf2._bits(residual))] = 1
        out.append(Cochain1._from_edge_values(X, vector, RING_Z2))
    return out


def _spanning_forest(a, b, nv: int) -> np.ndarray:
    """Mask of the edges (a[i], b[i]) on vertices 0..nv-1 that Kruskal keeps
    when it scans them from the highest index down.  Built in Borůvka
    rounds: each component takes its highest-index edge to another
    component, and the components these join merge."""
    parent = np.arange(nv)
    tree = np.zeros(len(a), dtype=bool)
    live = np.arange(len(a))
    while True:
        ra, rb = parent[a[live]], parent[b[live]]
        cross = ra != rb
        live, ra, rb = live[cross], ra[cross], rb[cross]
        if not len(live):
            return tree
        best = np.full(nv, -1)
        np.maximum.at(best, np.concatenate([ra, rb]), np.concatenate([live, live]))
        chosen = best[best >= 0]
        tree[chosen] = True
        gf2.join(parent, a[chosen], b[chosen])


# Total vertices V·m up to which restriction tests mod m (the cover test,
# ``restriction_is_zero``, the forest test) run on bitmasks, (V·m)²/16 bytes of
# table; on grid covers they beat the potential search to ~8,000 (2 vCPUs, Python 3.11).
MAX_MASK_VERTICES = 2 ** 13


def restriction_is_zero(c: Cochain1, S) -> bool:
    """True iff c restricted to the induced subcomplex S is a coboundary:
    the test that also decides whether a cover is trivial over S."""
    W = S.vertex_subset if isinstance(S, InducedSubcomplex) else S
    return _restricted_components(c, 2 if c.ring == RING_Z2 else None, W) is not None


def _restricted_components(c: Cochain1, modulus, W):
    """The number of components of the subcomplex <W> induced by the vertex
    set W, or None if c mod ``modulus`` (None: over Z) is no coboundary on
    it; found by ``_components`` on the neighbour masks, or by
    ``_potential_components`` on the step lists, of ``_restriction_table``."""
    W = _as_mask(c.complex, W)
    table = _restriction_table(c, modulus)
    if type(table) is list:
        return _components(table, W, c.complex.num_vertices, modulus)
    return _potential_components(table, W, modulus)


def _restriction_table(c: Cochain1, modulus):
    """Built once per modulus: the list of ``_neighbour_masks`` of the cover of
    c mod ``modulus`` while it has at most ``MAX_MASK_VERTICES`` vertices, else
    (and over Z) a tuple of per-vertex lists of (neighbour, c along the edge),
    in the order of ``X.edge_keys()``."""
    if modulus not in c._tables:
        X, nv, values = c.complex, c.complex.num_vertices, c.edge_values()
        if modulus is not None and max(nv, 1) * modulus <= MAX_MASK_VERTICES:
            c._tables[modulus] = _neighbour_masks(X, values % modulus, modulus)
        else:
            u, v = np.divmod(X.edge_keys(), nv)
            steps = c._tables[modulus] = tuple([] for _ in range(nv))
            for a, b, d in zip(u.tolist(), v.tolist(), values.tolist()):
                steps[a].append((b, d))
                steps[b].append((a, -d))
    return c._tables[modulus]


def _neighbour_masks(X: SimplicialComplex, shifts, fiber: int) -> list:
    """Per vertex (v, s) of the cover with sheet changes ``shifts`` on
    ``X.edge_keys()``, at index v + s·V, its neighbours (w, t) as bits w + t·V,
    ORed into one byte table of V·fiber rows (the oracle has the loop)."""
    nv = X.num_vertices
    u, v = np.divmod(X.edge_keys(), nv)
    sheets = np.arange(fiber)
    x = (u[:, None] + sheets * nv).ravel()
    y = (v[:, None] + (sheets + shifts.astype(np.int64)[:, None]) % fiber * nv).ravel()
    ends, others = np.concatenate([x, y]), np.concatenate([y, x])
    table = np.zeros((nv * fiber, nv * fiber // 8 + 1), dtype=np.uint8)
    np.bitwise_or.at(table, (ends, others >> 3), (1 << (others & 7)).astype(np.uint8))
    return [int.from_bytes(row, "little") for row in table]


def _components(masks, W: int, nv: int, fiber: int):
    """The number of components of <W>, each grown from its lowest (r, 0) one BFS
    level at a time (OR the frontier's ``_neighbour_masks``, AND with W on every
    sheet); None at the first level that reaches a base vertex on a second sheet."""
    lifted, sheet = sum(W << s * nv for s in range(fiber)), (1 << nv) - 1
    count, todo = 0, W
    while todo:
        front = comp = shadow = todo & -todo  # shadow: comp's projection
        while front:
            reach = 0
            while front:
                low = front & -front
                reach |= masks[low.bit_length() - 1]
                front ^= low
            front = new = reach & lifted & ~comp
            comp |= front
            while new:  # fold the new vertices onto the base, one sheet at a time
                if new & sheet & shadow:
                    return None
                shadow |= new & sheet
                new >>= nv
        count += 1
        todo &= ~shadow
    return count


def _potential_components(steps, W: int, modulus):
    """The number of components of <W>, each searched from its lowest vertex
    at potential 0 along the per-vertex ``steps``; None at the first edge
    whose step disagrees with its ends' potentials mod ``modulus`` (exactly
    if None)."""
    bits = np.unpackbits(np.frombuffer(W.to_bytes(len(steps) // 8 + 1, "little"), np.uint8),
                         bitorder="little")
    potential, count, stack = dict.fromkeys(np.flatnonzero(bits).tolist()), 0, []
    for root in potential:
        if potential[root] is None:
            count += 1
            potential[root] = 0
            stack.append(root)
        while stack:
            pv = potential[v := stack.pop()]
            for w, step in steps[v]:
                if w in potential:
                    want = pv + step if modulus is None else (pv + step) % modulus
                    if (have := potential[w]) is None:
                        potential[w] = want
                        stack.append(w)
                    elif have != want:
                        return None
    return count

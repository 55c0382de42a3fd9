"""Finite abstract simplicial complexes.

A complex is given by its maximal faces (facets).  Vertices are opaque
orderable labels; generators and the file format use integers, covering
complexes use ``(vertex, sheet)`` pairs.  Every face is kept as a strictly
increasing tuple in the single global vertex order, and faces of
intermediate dimension are derived lazily from the facets, so large
complexes never pay for dimensions nobody asks about.

The array view names vertex i of the sorted vertex tuple by its index i:
``facet_rows`` holds the facets as sorted integer rows, one array per
facet width, ``edge_keys`` the edges as sorted int64 keys a·V + b with
a < b, and ``face_rows(k)`` the k-faces as sorted rows in lexicographic
order (the edges read off their keys, the other dimensions from the
facet rows), of which ``faces(k)`` is the label-tuple view.  Every view
is built on first read and kept in the one ``derived`` cache.  A complex
can be built from its facet rows and vertex labels (``_from_index_rows``);
its facet tuples are then built only when they are read.
A caller's label is a vertex only by ``_image`` (the vertex's type, or both integers) in
``_as_mask``, ``has_vertex``, ``has_face``, the cochains, ``vertex_coboundary`` and the quotient,
or, for Python ints on a complex of Python-int labels, by one ``searchsorted`` (``_int_image``).
"""

from __future__ import annotations

from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations, groupby, permutations

import numpy as np

from .errors import DimensionError, MalformedFaceError, UnknownVertexError, require_int

Face = tuple


def canonical_face(face) -> Face:
    out = tuple(sorted(face))
    if not out:
        raise MalformedFaceError("empty face")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise MalformedFaceError(f"face {tuple(face)!r} repeats vertex {a!r}")
    return out


class SimplicialComplex:
    """Immutable abstract simplicial complex.

    Construct through :func:`build_complex`, which validates, deduplicates
    and maximality-reduces arbitrary face lists.  The constructor itself
    assumes canonical, pairwise non-nested facets.
    """

    __slots__ = ("vertices", "_derived")

    def __init__(self, facets):
        # sorted by (length, face): a stable sort by length of the sorted faces
        facets = tuple(sorted(sorted(facets), key=len))
        self.vertices = tuple(sorted(set().union(*facets)))
        self._derived = {"facets": facets}

    @classmethod
    def _from_index_rows(cls, rows, vertices, edge_keys=None):
        """The complex on the sorted labels ``vertices``, each on some facet, whose
        non-nested, distinct facets are the sorted index rows of ``rows``, one array
        per width in increasing width, rows in any order and of any integer dtype.
        ``edge_keys``, if given, must be what ``edge_keys()`` would derive."""
        X = cls.__new__(cls)
        X.vertices = tuple(vertices)
        X._derived = {"facet_rows": tuple(map(np.asarray, rows))}
        if edge_keys is not None:
            X._derived["edge_keys"] = edge_keys
        return X

    # -- basic queries -------------------------------------------------

    @property
    def facets(self) -> tuple:
        """The facets as sorted tuples, ordered by (length, face)."""
        return self.derived("facets", _row_facets)

    @property
    def dim(self) -> int:
        """Read off the last facet tuple or facet-rows array: both sort by width."""
        if "facets" in self._derived:
            return len(self.facets[-1]) - 1 if self.facets else -1
        return self.facet_rows()[-1].shape[1] - 1 if self.facet_rows() else -1

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def faces(self, k: int) -> frozenset:
        """All k-dimensional faces (cached), the label tuples of
        ``face_rows(k)``."""
        if k < 0:
            return frozenset()
        return self.derived(("faces", k), lambda X: _faces(X, k))

    def has_vertex(self, v) -> bool:
        try:
            return _image(self.vertex_index(), self.vertices, v) >= 0
        except TypeError:  # an unhashable label, so no vertex
            return False

    def has_face(self, face) -> bool:
        """False for a label that ``_image`` refuses; a face that is not iterable, or
        whose labels cannot be ordered or hashed, is a ``MalformedFaceError``."""
        try:
            face = canonical_face(face)
            row = [_image(self.vertex_index(), self.vertices, v) for v in face]
        except TypeError as exc:
            raise MalformedFaceError(f"malformed face {face!r}: {exc}") from None
        return bool(min(row) >= 0 and _face_ids(self, len(row) - 1, [row])[0] >= 0)

    def adjacency(self) -> dict:
        """Vertex -> sorted tuple of neighbours in the 1-skeleton (cached)."""
        return self.derived("adjacency", _adjacency)

    def components(self) -> list:
        """Connected components of the 1-skeleton as frozensets of vertices."""
        seen = set()
        out = []
        for root in self.vertices:
            if root not in seen:
                comp = frozenset(_bfs(self, root))
                seen |= comp
                out.append(comp)
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(self.face_rows(k)) for k in range(self.dim + 1))

    def vertex_index(self) -> dict:
        """Label -> position in the sorted vertex tuple (cached)."""
        return self.derived("vertex_index", lambda X: {v: i for i, v in enumerate(X.vertices)})

    def facet_rows(self) -> tuple:
        """The facets as rows of vertex indices, one array per facet width in
        increasing width, each row sorted (cached): int64 rows in facet order,
        or the row constructor's rows as given.  Pack keys in int64."""
        return self.derived("facet_rows", _facet_rows)

    def edge_keys(self) -> np.ndarray:
        """The edges as sorted int64 keys a·V + b over vertex indices a < b,
        V the vertex count (cached)."""
        return self.derived("edge_keys", lambda X: pair_keys(X.facet_rows(), X.num_vertices))

    def face_rows(self, k: int) -> np.ndarray:
        """The k-faces as sorted rows of vertex indices, in lexicographic
        order, which is the order of ``sorted(faces(k))`` (cached)."""
        return self.derived(("face_rows", k), lambda X: _face_rows(X, k))

    def derived(self, key, build):
        """``build(self)``, computed on the first call for ``key`` and cached;
        the one cache of every view of the complex."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    # -- dunder --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    __hash__ = None

    def __repr__(self):
        return (f"SimplicialComplex(dim={self.dim}, vertices={self.num_vertices}, "
                f"facets={len(self.facets)})")


def _bfs(X: SimplicialComplex, x, cutoff=None) -> dict:
    """Vertex -> edge distance from x, for the vertices within ``cutoff``.

    The one check of a BFS root: an x that is not a vertex of X is refused.
    """
    if not X.has_vertex(x):
        raise UnknownVertexError(f"{x!r} is not a vertex of the complex")
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


class _VertexMask(int):
    """A vertex set as a bitmask, bit i for ``X.vertices[i]``, as searches pass it."""


def _is_int(x) -> bool:
    """A Python or numpy integer; bools are refused."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _image(index, names, w) -> int:
    """The index of the vertex w, or -1 when w is none: also when w only
    compares equal to one, as 3.0 or True does to 3."""
    i = index.get(w, -1)
    return i if i < 0 or type(w) is type(names[i]) or _is_int(w) and _is_int(names[i]) else -1


def _int_labels(X: SimplicialComplex):
    """The labels as int64 if each is a Python int in int64 range, else None."""
    if set(map(type, X.vertices)) <= {int}:
        with suppress(OverflowError):
            return np.fromiter(X.vertices, dtype=np.int64, count=X.num_vertices)
    return None


def _int_image(X: SimplicialComplex, labels: np.ndarray):
    """The vertex indices of an int64 array of labels by one ``searchsorted``, or
    None if one is no vertex or X's labels are not Python ints (``_int_labels``)."""
    names = X.derived("int labels", _int_labels)
    if names is not None and len(names):
        i = names.searchsorted(labels)
        if (names.take(i, mode="clip") == labels).all():
            return i
    return None


def _as_mask(X: SimplicialComplex, W) -> _VertexMask:
    """W's vertex bitmask, a ``_VertexMask`` as it is: the one place a vertex
    subset becomes indices or is refused (``UnknownVertexError``): Python ints
    by ``_int_image``, any other set, or one with no vertex, by ``_image``."""
    if type(W) is _VertexMask:
        return W
    try:
        items = list(W)
    except TypeError:
        raise UnknownVertexError(f"{W!r} is not a collection of vertex labels") from None
    if set(map(type, items)) <= {int}:
        with suppress(OverflowError):
            i = _int_image(X, np.fromiter(items, dtype=np.int64, count=len(items)))
            if i is not None:
                hit = np.frombuffer(bytearray(X.num_vertices), dtype=bool)
                hit[i] = True
                return _VertexMask(int.from_bytes(np.packbits(hit, bitorder="little"), "little"))
    index, names = X.vertex_index(), X.vertices
    bits = bytearray(len(names) // 8 + 1)
    try:
        for v in items:
            i = _image(index, names, v)
            if i < 0:
                raise UnknownVertexError(f"{v!r} is not a vertex of the complex")
            bits[i >> 3] |= 1 << (i & 7)
    except TypeError:
        raise UnknownVertexError(f"{W!r} is not a collection of vertex labels") from None
    return _VertexMask(int.from_bytes(bits, "little"))


def _face_ids(X: SimplicialComplex, k: int, rows) -> np.ndarray:
    """The positions in ``X.face_rows(k)`` of the sorted index rows ``rows`` by
    one ``searchsorted`` of their ``lex_keys``; -1 for no k-face, as a row of -1s."""
    faces, rows = X.face_rows(k), np.array(rows, dtype=np.int64).reshape(-1, k + 1)
    # keys of both sets at once, so that ranks taken against overflow are shared
    keys = lex_keys(np.concatenate([faces, rows]), X.num_vertices)
    known, given = keys[:len(faces)], keys[len(faces):]
    pos = np.searchsorted(known, given)
    return np.where(np.searchsorted(known, given, "right") > pos, pos, -1)


def _as_tuples(rows: np.ndarray, names) -> list:
    """The index rows as tuples of the labels ``names[i]``: one shared
    object per label, tuple labels such as ``(v, sheet)`` included."""
    labels = np.fromiter(names, dtype=object, count=len(names))
    return list(zip(*labels[rows.T]))


def _row_facets(X: SimplicialComplex) -> tuple:
    # the vertices are sorted, so sorted index rows give sorted label tuples
    return tuple(f for R in X.facet_rows()
                 for f in _as_tuples(R[np.argsort(lex_keys(R, X.num_vertices))], X.vertices))


def _faces(X: SimplicialComplex, k: int) -> frozenset:
    return frozenset(_as_tuples(X.face_rows(k), X.vertices))


def _face_rows(X: SimplicialComplex, k: int) -> np.ndarray:
    if k == 1:  # the edges are derived once, as keys
        return np.column_stack(np.divmod(X.edge_keys(), X.num_vertices))
    parts = [R[:, cols] for R in X.facet_rows() if R.shape[1] > k
             for cols in map(list, combinations(range(R.shape[1]), k + 1))]
    rows = np.concatenate(parts) if parts else np.empty((0, k + 1), dtype=np.int64)
    return _distinct_rows(rows, X.num_vertices)


def _distinct_rows(rows: np.ndarray, base: int) -> np.ndarray:
    """The distinct rows of a 2-D array of integers in [0, base), in lexicographic order."""
    keys = lex_keys(rows, base)
    order = np.argsort(keys)
    return rows[order[run_starts(keys[order])]]


def _adjacency(X: SimplicialComplex) -> dict:
    # in key order each vertex meets its lower neighbours, then its higher, ascending
    names, (u, v) = X.vertices, np.divmod(X.edge_keys(), X.num_vertices)
    nbr = [[] for _ in names]
    for a, b in zip(u.tolist(), v.tolist()):
        nbr[a].append(names[b])
        nbr[b].append(names[a])
    return dict(zip(names, map(tuple, nbr)))


def _facet_rows(X: SimplicialComplex) -> tuple:
    index = X.vertex_index()
    out = []
    for width, group in groupby(X.facets, key=len):  # facets are sorted by length
        group = list(group)
        flat = np.fromiter((index[v] for f in group for v in f), dtype=np.int64,
                           count=width * len(group))
        out.append(flat.reshape(-1, width))
    return tuple(out)


def run_starts(rows) -> np.ndarray:
    """Mask of the entries (or rows) of a sorted array that differ from the
    one before; np.unique hashes, and is slower than a sort and this mask."""
    starts = np.ones(len(rows), dtype=bool)
    change = rows[1:] != rows[:-1]
    starts[1:] = change if change.ndim == 1 else change.any(axis=1)
    return starts


def runs(keys: np.ndarray) -> tuple:
    """Start and length of each run of equal entries of a sorted 1-D array."""
    bounds = np.flatnonzero(np.append(run_starts(keys), True))
    return bounds[:-1], np.diff(bounds)


def lex_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 key per row of a 2-D array of integers in [0, base): equal
    for equal rows, and ordered as the rows are lexicographically.  A key
    packs its row in base ``base``; where the next column could reach
    2**63, each key becomes instead the rank of its (prefix, column) pair
    among the rows' distinct pairs, so no key overflows for any base."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        if len(keys) and (int(keys.max()) + 1) * base >= 2 ** 63:
            pairs = np.stack([keys, rows[:, j]], axis=1)
            order = np.lexsort((pairs[:, 1], keys))
            keys[order] = np.cumsum(run_starts(pairs[order])) - 1
        else:
            keys = keys * base + rows[:, j]
    return keys


def pair_keys(groups, nv: int) -> np.ndarray:
    """The distinct vertex pairs of sorted index rows as sorted int64 keys
    a·nv + b (a < b), over every array of rows in ``groups``; built and
    sorted as int32 while nv² < 2**31, which sorts faster."""
    dtype = np.int32 if nv * nv < 2 ** 31 else np.int64
    keys = np.sort(np.concatenate(
        [R[:, i] * nv + R[:, j] for R in (G.astype(dtype, copy=False) for G in groups)
         for i, j in combinations(range(R.shape[1]), 2)] or [np.empty(0, dtype=dtype)]))
    return keys[run_starts(keys)].astype(np.int64)


def build_complex(facets) -> SimplicialComplex:
    """Validate and build a complex from an arbitrary list of faces.

    Duplicates are removed and non-maximal input faces are absorbed
    silently; faces must not repeat a vertex or mix labels that cannot be
    ordered, and must be iterable, as must the list.
    """
    try:
        return SimplicialComplex(_maximal_faces(facets))
    except TypeError as exc:
        raise MalformedFaceError(f"malformed face list: {exc}") from None


def _maximal_faces(facets):
    canon = {canonical_face(f) for f in facets}
    if len({len(f) for f in canon}) <= 1:
        return canon
    kept = []
    kept_sets = []
    byv = {}
    for f in sorted(canon, key=len, reverse=True):
        fs = set(f)
        probe = min((byv.get(v, ()) for v in f), key=len)
        if any(fs <= kept_sets[i] for i in probe):
            continue
        idx = len(kept)
        kept.append(f)
        kept_sets.append(fs)
        for v in f:
            byv.setdefault(v, []).append(idx)
    return kept


class InducedSubcomplex:
    """The subcomplex spanned by a vertex subset of a parent complex.

    Its faces are exactly the parent faces all of whose vertices lie in
    the subset.
    """

    __slots__ = ("parent", "vertex_subset", "_complex")

    def __init__(self, parent: SimplicialComplex, vertex_subset):
        self.parent = parent
        self.vertex_subset = frozenset(vertex_subset)
        self._complex = None

    def as_complex(self) -> SimplicialComplex:
        if self._complex is None:
            w = self.vertex_subset
            pieces = []
            for f in self.parent.facets:
                cut = tuple(v for v in f if v in w)
                if cut:
                    pieces.append(cut)
            self._complex = build_complex(pieces)
        return self._complex

    @property
    def facets(self):
        return self.as_complex().facets

    def faces(self, k: int) -> frozenset:
        return self.as_complex().faces(k)

    def __eq__(self, other):
        if not isinstance(other, InducedSubcomplex):
            return NotImplemented
        return (self.vertex_subset == other.vertex_subset
                and self.as_complex() == other.as_complex())

    __hash__ = None

    def __repr__(self):
        return f"InducedSubcomplex({len(self.vertex_subset)} vertices of {self.parent!r})"


def induced(X: SimplicialComplex, W) -> InducedSubcomplex:
    """The subcomplex of X induced by the vertex subset W."""
    try:
        W = frozenset(W)
    except TypeError:
        raise UnknownVertexError(f"{W!r} is not a collection of vertex labels") from None
    unknown = [v for v in W if not X.has_vertex(v)]
    if unknown:
        try:
            unknown.sort()
        except TypeError:  # labels that cannot be ordered: listed by their repr
            unknown.sort(key=repr)
        raise UnknownVertexError(f"vertices not in complex: {unknown!r}")
    return InducedSubcomplex(X, W)


@dataclass(frozen=True)
class FVector:
    """Face counts per dimension, f_0 .. f_dim."""

    counts: tuple

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, k):
        return self.counts[k]

    def __len__(self):
        return len(self.counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.counts))


def f_vector(X: SimplicialComplex) -> FVector:
    return FVector(tuple(len(X.face_rows(k)) for k in range(X.dim + 1)))


def skeleton(X: SimplicialComplex, k: int) -> SimplicialComplex:
    """The k-skeleton: all faces of dimension at most k."""
    k = require_int(k, "skeleton dimension")
    if not 0 <= k <= X.dim:
        raise DimensionError(f"skeleton dimension {k} out of range 0..{X.dim}")
    facets = set(X.faces(k))
    facets.update(f for f in X.facets if len(f) <= k)
    return SimplicialComplex(facets)


def barycentric_subdivision(X: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision; new vertices are the faces of X.

    New vertex labels are consecutive integers, assigned in (dimension,
    face) order, so |V(sd X)| equals the total face count of X.  Facets
    are the maximal chains of the face poset, one per ordering of each
    facet's vertices.
    """
    label = {face: i for i, face in enumerate(
        f for k in range(X.dim + 1) for f in _as_tuples(X.face_rows(k), X.vertices))}
    # a chain's labels grow with its faces' dimension, so each chain is a sorted facet
    return SimplicialComplex({tuple(label[tuple(sorted(perm[:j + 1]))] for j in range(len(f)))
                              for f in X.facets for perm in permutations(f)})

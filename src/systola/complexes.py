"""Finite abstract simplicial complexes.

A complex is given by its maximal faces (facets).  Vertices are opaque
orderable labels; generators and the file format use integers, covering
complexes use ``(vertex, sheet)`` pairs.  Every face is kept as a strictly
increasing tuple in the single global vertex order, and faces of
intermediate dimension are derived lazily from the facets, so large
complexes never pay for dimensions nobody asks about.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import DimensionError, MalformedFaceError, UnknownVertexError

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

    __slots__ = ("facets", "vertices", "_faces", "_adjacency", "_vertex_index", "_derived")

    def __init__(self, facets):
        # sorted by (length, face): a stable sort by length of the sorted faces
        self.facets = tuple(sorted(sorted(facets), key=len))
        self.vertices = tuple(sorted(set().union(*self.facets)))
        self._faces = {}
        self._adjacency = None
        self._vertex_index = None
        self._derived = {}

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def faces(self, k: int) -> frozenset:
        """All k-dimensional faces, derived from the facets (cached)."""
        if k < 0:
            return frozenset()
        if k not in self._faces:
            acc = set()
            for f in self.facets:
                if len(f) >= k + 1:
                    acc.update(combinations(f, k + 1))
            self._faces[k] = frozenset(acc)
        return self._faces[k]

    def has_vertex(self, v) -> bool:
        return v in self.vertex_index()

    def has_face(self, face) -> bool:
        face = canonical_face(face)
        return face in self.faces(len(face) - 1)

    def adjacency(self) -> dict:
        """Vertex -> sorted tuple of neighbours in the 1-skeleton."""
        if self._adjacency is None:
            nbr = {v: set() for v in self.vertices}
            for u, v in self.faces(1):
                nbr[u].add(v)
                nbr[v].add(u)
            self._adjacency = {v: tuple(sorted(s)) for v, s in nbr.items()}
        return self._adjacency

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
        return sum((-1) ** k * len(self.faces(k)) for k in range(self.dim + 1))

    def vertex_index(self) -> dict:
        """Label -> position in the sorted vertex tuple (cached)."""
        if self._vertex_index is None:
            self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        return self._vertex_index

    def derived(self, key, build):
        """``build(self)``, computed on the first call for ``key`` and cached."""
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


def build_complex(facets) -> SimplicialComplex:
    """Validate and build a complex from an arbitrary list of faces.

    Duplicates are removed and non-maximal input faces are absorbed
    silently; faces must not repeat a vertex.
    """
    canon = {canonical_face(f) for f in facets}
    if not canon:
        return SimplicialComplex(())
    lengths = {len(f) for f in canon}
    if len(lengths) == 1:
        return SimplicialComplex(canon)
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
    return SimplicialComplex(kept)


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
    W = frozenset(W)
    unknown = [v for v in W if not X.has_vertex(v)]
    if unknown:
        raise UnknownVertexError(f"vertices not in complex: {sorted(unknown)!r}")
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
    return FVector(tuple(len(X.faces(k)) for k in range(X.dim + 1)))


def skeleton(X: SimplicialComplex, k: int) -> SimplicialComplex:
    """The k-skeleton: all faces of dimension at most k."""
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
    order = []
    for k in range(X.dim + 1):
        order.extend(sorted(X.faces(k)))
    label = {}
    for i, face in enumerate(order):
        label[face] = i
    new_facets = []
    for f in X.facets:
        for perm in permutations(f):
            chain = tuple(label[tuple(sorted(perm[: j + 1]))] for j in range(len(f)))
            new_facets.append(tuple(sorted(chain)))
    return SimplicialComplex(set(new_facets))

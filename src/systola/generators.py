"""Generators for named complexes and layered symmetric spheres.

The sphere family is built inductively: start from a 2s-gon, then join
(s-1) copies of the previous sphere by prism cylinders and cap the two
ends with cones.  Prisms are triangulated by the staircase rule in the
order of the signed vertex labels; because the antipodal involution
negates labels, it reverses that order and therefore maps staircase
simplices to staircase simplices, so the involution stays simplicial
and free.  Copy v of the previous sphere (m vertices) in layer
l = 1..s-1 is vertex (l-1)·m + v, and the poles are the two largest ids.

The antipodal quotient is a projective-space triangulation with edge
systole exactly s.  Its vertex i is the i-th positive-label vertex with
its antipode, and a negative label marks sheet 1.  One pass over the
sphere's edges checks them and reads the sheet-transition cocycle, which
reconstructs the sphere as the quotient's double cover.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .cochains import RING_Z2, Cochain1
from .complexes import SimplicialComplex
from .errors import CapacityError, ParameterError, QuotientError, require_int

MAX_QUOTIENT_FACETS = 10 ** 6


@dataclass(frozen=True)
class SymmetricComplex:
    """A complex with a free simplicial involution and signed labels.

    Antipodal vertices carry labels of equal absolute value and opposite
    sign, so ordering by label is reversed by the involution.
    """

    complex: SimplicialComplex
    involution: dict
    labels: dict


def _polygon_sphere(s: int) -> SymmetricComplex:
    rim = 2 * s
    facets = [tuple(sorted((i, (i + 1) % rim))) for i in range(rim)]
    involution = {i: (i + s) % rim for i in range(rim)}
    labels = {i: (i + 1 if i < s else -(i - s + 1)) for i in range(rim)}
    return SymmetricComplex(SimplicialComplex(facets), involution, labels)


def _add_layers(sc: SymmetricComplex, s: int) -> SymmetricComplex:
    """One suspension step: (s-1) layers, staircase cylinders, two cones.

    Ids come from one shared list, so facet tuples share their int objects.
    """
    X, tau, lab = sc.complex, sc.involution, sc.labels
    m = X.num_vertices
    ids = list(range((s - 1) * m + 2))
    layers = [ids[lo:lo + m] for lo in range(0, (s - 1) * m, m)]
    south, north = ids[-2], ids[-1]

    by_label = [sorted(f, key=lab.__getitem__) for f in X.facets]
    facets = set()
    for low, high in zip(layers, layers[1:]):
        for ws in by_label:
            for j in range(1, len(ws) + 1):
                cell = [low[w] for w in ws[:j]] + [high[w] for w in ws[j - 1:]]
                facets.add(tuple(sorted(cell)))
    for f in X.facets:
        facets.add(tuple([layers[0][w] for w in f] + [south]))
        facets.add(tuple([layers[-1][w] for w in f] + [north]))

    involution = {south: north, north: south}
    for layer, mirror in zip(layers, reversed(layers)):
        for v in X.vertices:
            involution[layer[v]] = mirror[tau[v]]
    labels = {}
    nxt = 1
    for v in ids:
        if v not in labels:
            labels[v] = nxt
            labels[involution[v]] = -nxt
            nxt += 1
    return SymmetricComplex(SimplicialComplex(facets), involution, labels)


def quotient_facet_count(n: int, s: int) -> int:
    """Facets of the antipodal quotient of ``gen_symmetric_sphere(n, s)``:
    the product of k*s - 2(k-1) over k = 1..n (half the sphere's facets)."""
    count = 1
    for k in range(1, n + 1):
        count *= k * s - 2 * (k - 1)
    return count


def gen_symmetric_sphere(n: int, s: int) -> SymmetricComplex:
    """Centrally symmetric n-sphere with antipodal edge-distance at least s.

    Vertex count is (s-1) * |V(previous)| + 2 per step, at most 2 s^n.
    ``n`` and ``s`` must be integers (bools refused), and a sphere whose
    quotient would have more than ``MAX_QUOTIENT_FACETS`` facets is
    refused with a CapacityError before anything is built.
    """
    n = require_int(n, "n", 1)
    s = require_int(s, "s", 3)  # s < 3 would identify edge endpoints in the quotient
    facets = quotient_facet_count(n, s)
    if facets > MAX_QUOTIENT_FACETS:
        raise CapacityError(
            f"the ({n}, {s}) quotient would have {facets:,} facets, above the "
            f"cap of {MAX_QUOTIENT_FACETS:,}")
    sc = _polygon_sphere(s)
    for _ in range(n - 1):
        sc = _add_layers(sc, s)
    return sc


def quotient(sc: SymmetricComplex):
    """Antipodal quotient plus the classifying sheet-transition cocycle.

    Returns ``(Q, xi)`` where the double cover of Q built from xi is
    isomorphic to the original sphere.  Raises QuotientError unless the
    involution is free of order 2 and negates nonzero labels, no edge joins
    antipodes, edges map to edges, both lifts of a quotient edge change
    sheet alike, and every quotient facet has exactly two preimages.
    """
    X, tau, lab = sc.complex, sc.involution, sc.labels
    for v in X.vertices:
        t = tau.get(v)
        if t == v or tau.get(t) != v:
            raise QuotientError("involution is not a free order-2 map")
        if not lab.get(v) or lab.get(t) != -lab[v]:
            raise QuotientError(f"labels of antipodes {v!r}, {t!r} are not opposite and nonzero")
    qid = {}
    for i, v in enumerate(v for v in X.vertices if lab[v] > 0):
        qid[v] = qid[tau[v]] = i

    edges = X.faces(1)
    sheet_change = {}
    for u, v in edges:
        tu, tv = tau[u], tau[v]
        if tu == v:
            raise QuotientError(f"antipodal vertices {u!r}, {v!r} share an edge")
        if (tu, tv) not in edges and (tv, tu) not in edges:
            raise QuotientError(f"edge ({u!r}, {v!r}) has no edge as its antipodal image")
        a, b = qid[u], qid[v]
        e = (a, b) if a < b else (b, a)
        flip = (lab[u] < 0) != (lab[v] < 0)
        if sheet_change.setdefault(e, flip) != flip:
            raise QuotientError(f"edge {e} lifts ambiguously")

    counts = Counter(tuple(sorted(qid[v] for v in f)) for f in X.facets)
    bad = {q: c for q, c in counts.items() if c != 2}
    if bad:
        raise QuotientError(f"identification conflict on {len(bad)} facets")
    Q = SimplicialComplex(counts.keys())
    return Q, Cochain1(Q, {e: 1 for e, flip in sheet_change.items() if flip}, RING_Z2)


def gen_projective_space(n: int, s: int):
    """Convenience wrapper: sphere, its quotient and the classifying cocycle."""
    sc = gen_symmetric_sphere(n, s)
    Q, xi = quotient(sc)
    return Q, xi, sc


# -- fixture complexes -----------------------------------------------------

RP2_SIX_FACETS = (
    (1, 2, 3), (1, 2, 6), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)

TORUS_SEVEN_FACETS = tuple(sorted(
    {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    | {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
))

_NAME_RE = re.compile(r"^(complete|polygon)-(\d+)$")


def gen_complete_graph(k: int) -> SimplicialComplex:
    if k < 2:
        raise ParameterError("complete graph needs at least 2 vertices")
    return SimplicialComplex(combinations(range(1, k + 1), 2))


def gen_polygon(m: int) -> SimplicialComplex:
    if m < 3:
        raise ParameterError("polygon needs at least 3 vertices")
    return SimplicialComplex(tuple(sorted((i, (i + 1) % m))) for i in range(m))


def gen_named(name: str) -> SimplicialComplex:
    """Fixture complexes by name.

    Known names: ``rp2-six``, ``torus-seven``, ``complete-<k>`` and
    ``polygon-<m>``.
    """
    if name == "rp2-six":
        return SimplicialComplex(RP2_SIX_FACETS)
    if name == "torus-seven":
        return SimplicialComplex(TORUS_SEVEN_FACETS)
    m = _NAME_RE.match(name)
    if m:
        kind, num = m.group(1), int(m.group(2))
        return gen_complete_graph(num) if kind == "complete" else gen_polygon(num)
    raise ParameterError(f"unknown complex name {name!r}")

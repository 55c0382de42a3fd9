"""Generators for named complexes and layered symmetric spheres.

The sphere family is built inductively: start from a 2s-gon, then join
(s-1) copies of the previous sphere by prism cylinders and cap the two
ends with cones.  Prisms are triangulated by the staircase rule in the
order of the signed vertex labels; because the antipodal involution
negates labels, it reverses that order and therefore maps staircase
simplices to staircase simplices, so the involution stays simplicial
and free.  Copy v of the previous sphere (m vertices) in layer
l = 1..s-1 is vertex (l-1)·m + v, and the poles are the two largest ids.

A generated sphere lives as three int32 arrays: the facets (one sorted
row each), the involution ``tau[v]`` and the signed labels ``lab[v]``.
Each suspension step writes the staircase cells of every layer pair as
array slices and takes the involution and labels in closed form: copy v
in layer l maps to copy tau[v] in the mirror layer s - l, the poles swap,
and v is positive iff v < tau[v], numbered in vertex order.  The sphere's
complex is built from the facet rows, and its involution and labels are
dicts of plain ``int``s made from the two arrays, which it keeps.

The antipodal quotient is a projective-space triangulation with edge
systole exactly s.  Its vertex i is the i-th positive-label vertex with
its antipode, and a negative label marks sheet 1.  ``quotient`` reads any
sphere, generated or hand-built, as the same arrays: the complex's facet
rows, and the involution and labels as kept, or through its vertex index.
It checks the sphere's edges as packed pair keys, whose antipodal images
must sort to the same keys, and reads the sheet-transition cocycle, which
reconstructs the sphere as the quotient's double cover.  The quotient's
vertices are 0..nq-1, so it is built from its facet rows (merged on one sort
of their keys) and the edge keys of the lift check, its cocycle from the sheet
changes on those keys, and the cover build reads no facet tuple.

The fixture sizes (``gen_polygon``, ``gen_complete_graph``) must be
integers, as the sphere parameters must; bools, floats and strings are
refused with ``ParameterError``, and a fixture of more than
``MAX_FIXTURE_FACETS`` facets with ``CapacityError`` before it is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cochains import RING_Z2, Cochain1
from .complexes import SimplicialComplex, _image, _is_int, lex_keys, pair_keys, run_starts
from .errors import CapacityError, ParameterError, QuotientError, require_int

MAX_QUOTIENT_FACETS = 10 ** 6
# the 65,536-gon's H^1 basis, which ``systola gen polygon`` writes, peaks near 0.6 GB
MAX_FIXTURE_FACETS = 2 ** 16


@dataclass(frozen=True)
class SymmetricComplex:
    """A complex with a free simplicial involution and signed labels.

    Antipodal vertices carry labels of equal absolute value and opposite
    sign, so ordering by label is reversed by the involution.  A generated
    sphere keeps the arrays its dicts were made from, and ``quotient`` reads
    those: change a copy (``replace``), whose dicts are read, not its dicts.
    """

    complex: SimplicialComplex
    involution: dict
    labels: dict
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _polygon_sphere(s: int):
    rim = 2 * s
    i = np.arange(rim, dtype=np.int32)
    facets = np.sort(np.column_stack([i, (i + 1) % rim]), axis=1)
    tau = (i + s) % rim
    lab = np.where(i < s, i + 1, s - 1 - i)
    return facets, tau, lab


def _add_layers(facets, tau, lab, s: int):
    """One suspension step: (s-1) layers, staircase cylinders, two cones.

    Between layers l and l+1 a facet with vertices w_1 < ... < w_k in
    label order gives the k cells {w_1..w_j in layer l} + {w_j..w_k in
    layer l+1}.  Shifting a cell by whole layers keeps its sorted order,
    so the cells are built and sorted once and then offset per layer pair.
    """
    m = len(tau)
    k = facets.shape[1]
    ws = np.take_along_axis(facets, np.argsort(lab[facets], axis=1), axis=1)
    stair = np.sort(np.concatenate([np.concatenate([ws[:, :j], ws[:, j - 1:] + m], axis=1)
                                    for j in range(1, k + 1)]), axis=1)
    offsets = np.arange(s - 2, dtype=np.int32) * m
    south, north = (s - 1) * m, (s - 1) * m + 1
    cone = np.full((len(facets), 1), south, dtype=np.int32)
    out = np.concatenate([(stair + offsets[:, None, None]).reshape(-1, k + 1),
                          np.hstack([facets, cone]),
                          np.hstack([facets + (s - 2) * m, cone + 1])])
    mirror = np.arange(s - 2, -1, -1, dtype=np.int32) * m
    new_tau = np.concatenate([(mirror[:, None] + tau).ravel(),
                              np.array([north, south], dtype=np.int32)])
    positive = np.arange(len(new_tau)) < new_tau
    rank = np.cumsum(positive, dtype=np.int32)
    new_lab = np.where(positive, rank, -rank[new_tau])
    return out, new_tau, new_lab


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
    # each factor is at least 3, so the first bit_length factors already pass the cap
    if quotient_facet_count(min(n, MAX_QUOTIENT_FACETS.bit_length()), s) > MAX_QUOTIENT_FACETS:
        raise CapacityError(f"the ({n}, {s}) quotient would have more than "
                            f"{MAX_QUOTIENT_FACETS:,} facets, the cap")
    facets, tau, lab = _polygon_sphere(s)
    for _ in range(n - 1):
        facets, tau, lab = _add_layers(facets, tau, lab, s)
    sc = SymmetricComplex(SimplicialComplex._from_index_rows([facets], range(len(tau))),
                          dict(enumerate(tau.tolist())), dict(enumerate(lab.tolist())))
    object.__setattr__(sc, "_arrays", (tau, lab))
    return sc


def _sphere_arrays(sc: SymmetricComplex):
    """``(names, facet rows by width, tau, lab)`` over vertex indices.

    ``names[i]`` is the vertex with index i.  An involution value that is
    no vertex of the complex, or only equals one, becomes -1, and a missing
    label 0.
    """
    X, involution, labels = sc.complex, sc.involution, sc.labels
    if sc._arrays is not None:
        return X.vertices, X.facet_rows(), *sc._arrays
    if not isinstance(X, SimplicialComplex):
        raise ParameterError(f"the complex must be a SimplicialComplex, got {type(X).__name__}")
    for name, view in (("involution", involution), ("labels", labels)):
        if not isinstance(view, dict):
            raise ParameterError(f"the {name} must be a dict, got {type(view).__name__}")
    index, names = X.vertex_index(), X.vertices
    try:
        tau = np.array([_image(index, names, involution.get(v)) for v in names], dtype=np.int32)
    except TypeError:  # an unhashable image, so no vertex
        tau = np.full(X.num_vertices, -1, dtype=np.int32)
    lab = [labels.get(v, 0) for v in names]
    for v, x in zip(names, lab):
        if not _is_int(x):
            raise QuotientError(f"label of vertex {v!r} must be an integer, got {x!r}")
    return names, X.facet_rows(), tau, np.array(lab)


def _first(mask) -> int:
    """Index of the first True in mask, or len(mask) when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def quotient(sc: SymmetricComplex):
    """Antipodal quotient plus the classifying sheet-transition cocycle.

    Returns ``(Q, xi)`` where the double cover of Q built from xi is
    isomorphic to the original sphere.  Raises ParameterError unless the
    complex is a SimplicialComplex and the involution and labels are dicts,
    and QuotientError unless the labels are integers (bools refused), the
    involution is free of order 2 and negates nonzero labels, no edge joins
    antipodes, edges map to edges, both lifts of a quotient edge change
    sheet alike, and every quotient facet has exactly two preimages.
    Offending vertices are named by their ids in the sphere.
    """
    names, groups, tau, lab = _sphere_arrays(sc)
    nv = len(tau)
    idx = np.arange(nv, dtype=np.int32)
    t = np.where(tau >= 0, tau, idx)
    not_free = (tau < 0) | (t == idx) | (tau[t] != idx)
    bad_inv = _first(not_free)
    bad_lab = _first(~not_free & ((lab == 0) | (lab[t] != -lab)))
    if bad_inv < nv and bad_inv <= bad_lab:
        raise QuotientError("involution is not a free order-2 map")
    if bad_lab < nv:
        v, w = names[bad_lab], names[tau[bad_lab]]
        raise QuotientError(f"labels of antipodes {v!r}, {w!r} are not opposite and nonzero")
    positive = lab > 0
    nq = int(positive.sum())
    qid = np.empty(nv, dtype=np.int32)
    qid[positive] = qid[tau[positive]] = np.arange(nq, dtype=np.int32)
    del t, not_free, positive

    edges = pair_keys(groups, nv)  # sphere edges, u*nv + v with u < v
    u, v = (edges // nv).astype(np.int32), (edges % nv).astype(np.int32)
    tu, tv = tau[u], tau[v]
    i = _first(tu == v)
    if i < len(u):
        raise QuotientError(f"antipodal vertices {names[u[i]]!r}, {names[v[i]]!r} share an edge")
    image = np.minimum(tu, tv).astype(np.int64) * nv + np.maximum(tu, tv)
    del tu, tv
    # tau is free, so the images of distinct edges are distinct: all are edges iff
    # they sort to the edges, and only otherwise is each one searched
    if not np.array_equal(np.sort(image), edges):
        i = _first(edges[np.minimum(np.searchsorted(edges, image), len(edges) - 1)] != image)
        raise QuotientError(
            f"edge ({names[u[i]]!r}, {names[v[i]]!r}) has no edge as its antipodal image")
    del edges, image

    # quotient edge key a*nq + b (a < b), doubled, plus 1 where the lift changes sheet
    a, b = qid[u], qid[v]
    lifts = np.minimum(a, b).astype(np.int64) * (2 * nq) + 2 * np.maximum(a, b)
    lifts += (lab[u] < 0) != (lab[v] < 0)
    del a, b, u, v
    lifts.sort()
    qkey, flip = lifts >> 1, (lifts & 1).astype(bool)
    first = run_starts(qkey)
    i = _first(~first[1:] & (flip[1:] != flip[:-1]))
    if i < len(qkey) - 1:
        e = divmod(int(qkey[i]), nq)
        raise QuotientError(f"edge {e} lifts ambiguously")
    qkey, flip = qkey[first], flip[first]
    del lifts, first

    rows, conflicts = [], 0
    for F in groups:
        R = np.sort(qid[F], axis=1)
        keys = lex_keys(R, nq)
        order = np.argsort(keys)
        starts = np.flatnonzero(run_starts(keys[order]))  # equal keys, equal rows
        conflicts += int((np.diff(np.append(starts, len(R))) != 2).sum())
        rows.append(R[order[starts]])
    if conflicts:
        raise QuotientError(f"identification conflict on {conflicts} facets")
    # Q's edges are the sphere's edges' images, and its vertices are 0..nq-1
    Q = SimplicialComplex._from_index_rows(rows, range(nq), edge_keys=qkey)
    return Q, Cochain1._from_edge_values(Q, flip.astype(np.int64), RING_Z2)


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
    """The complete graph on vertices 1..k; k must be an integer, at least 2."""
    k = require_int(k, "vertex count")
    if k < 2:
        raise ParameterError("complete graph needs at least 2 vertices")
    _require_fixture_facets(k * (k - 1) // 2, f"the complete graph on {k} vertices")
    return SimplicialComplex(combinations(range(1, k + 1), 2))


def gen_polygon(m: int) -> SimplicialComplex:
    """The m-cycle on vertices 0..m-1; m must be an integer, at least 3."""
    m = require_int(m, "vertex count")
    if m < 3:
        raise ParameterError("polygon needs at least 3 vertices")
    _require_fixture_facets(m, f"the {m}-gon")
    return SimplicialComplex(tuple(sorted((i, (i + 1) % m))) for i in range(m))


def _require_fixture_facets(count: int, what: str) -> None:
    if count > MAX_FIXTURE_FACETS:
        raise CapacityError(f"{what} would have {count:,} facets, "
                            f"above the cap of {MAX_FIXTURE_FACETS:,}")


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

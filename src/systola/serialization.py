"""Canonical JSON interchange formats.

Complex files: ``{"facets": [[int, ...], ...], "vertices": [int, ...]}``
with every facet ascending and the facet list sorted; this is byte-stable
under read/write round trips.  Cochain files: ``{"edges": [[u, v], ...],
"values": [...]}`` aligned by index, edges sorted, covering every edge of
the complex they belong to.  Loading validates every field: labels and
values must be JSON integers (not floats or booleans), Z2 values 0 or 1,
and malformed documents raise :class:`~systola.errors.ParameterError`.

The loaders take an array path: facets of one width become sorted, distinct
int64 rows relabelled by ``np.unique`` (``_from_index_rows``), and cochain
edges that are exactly the complex's edges, mapped by ``_indices``,
order the values into the edge vector.  Facets of several widths (nested
faces to absorb) and any document that fails a check take the label path,
``build_complex`` or ``Cochain1``: an equal result, or the label path's own error.
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .cochains import RING_Z, RING_Z2, Cochain1
from .complexes import SimplicialComplex, _as_tuples, _distinct_rows, _indices, build_complex
from .errors import ParameterError


def _require_int_labels(X: SimplicialComplex):
    if any(not isinstance(v, int) or isinstance(v, bool) for v in X.vertices):
        raise ParameterError("serialization needs integer vertex labels")


def _parse(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{kind} document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{kind} document must be a JSON object")
    return doc


def _only_ints(items) -> bool:
    # type(), not isinstance(): JSON true and false load as bools, which are ints
    return set(map(type, items)) <= {int}


def _label_lists(rows, field: str) -> list:
    """``rows``, checked to be a list of lists of integer labels, or ParameterError."""
    if (type(rows) is not list or not set(map(type, rows)) <= {list}
            or not _only_ints(chain.from_iterable(rows))):
        raise ParameterError(f"'{field}' must be a list of lists of integer labels")
    return rows


def _int_rows(rows):
    """The label lists as an int64 array, each row sorted; None unless they are
    nonempty, of one width and in int64 range."""
    with suppress(OverflowError, ValueError):  # ValueError: rows of several widths
        A = np.sort(np.array(rows, dtype=np.int64), axis=1)
        return A if A.size else None
    return None


def dumps_complex(X: SimplicialComplex) -> str:
    _require_int_labels(X)
    doc = {
        "facets": [list(f) for f in sorted(X.facets)],
        "vertices": list(X.vertices),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads_complex(text: str) -> SimplicialComplex:
    doc = _parse(text, "complex")
    if "facets" not in doc:
        raise ParameterError("complex document needs a 'facets' field")
    rows = _label_lists(doc["facets"], "facets")
    A = _int_rows(rows)
    if A is not None and (A[:, 1:] > A[:, :-1]).all():  # no facet repeats a vertex
        labels, inverse = np.unique(A, return_inverse=True)
        X = SimplicialComplex._from_index_rows(
            [_distinct_rows(inverse.reshape(A.shape), len(labels))], labels.tolist())
    else:
        X = build_complex(rows)
    declared = doc.get("vertices")
    if declared is not None:
        if type(declared) is not list or not _only_ints(declared):
            raise ParameterError("'vertices' must be a list of integer labels")
        extra = set(declared) - set(X.vertices)
        if extra:
            raise ParameterError(
                f"declared vertices missing from every facet: {sorted(extra)!r}")
    return X


def write_complex(X: SimplicialComplex, path) -> None:
    Path(path).write_text(dumps_complex(X))


def _read_text(path, kind: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{kind} file {str(path)!r} is not UTF-8: {exc.reason}") from None


def read_complex(path) -> SimplicialComplex:
    return loads_complex(_read_text(path, "complex"))


def dumps_cochain(c: Cochain1) -> str:
    _require_int_labels(c.complex)
    # edge-key order is sorted label order, so the values align with the edges
    doc = {
        "edges": [list(e) for e in _as_tuples(c.complex.face_rows(1), c.complex.vertices)],
        "values": c.edge_values().tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads_cochain(text: str, X: SimplicialComplex, ring: str = RING_Z2) -> Cochain1:
    doc = _parse(text, "cochain")
    if "edges" not in doc or "values" not in doc:
        raise ParameterError("cochain document needs 'edges' and 'values' fields")
    edges = _label_lists(doc["edges"], "edges")
    values = doc["values"]
    if type(values) is not list or not _only_ints(values):
        raise ParameterError("cochain 'values' must be a list of integers")
    if ring == RING_Z2 and not set(values) <= {0, 1}:
        raise ParameterError("Z2 cochain 'values' must be 0 or 1")
    if len(edges) != len(values):
        raise ParameterError("'edges' and 'values' have different lengths")
    if set(map(len, edges)) - {2}:
        raise ParameterError("cochain 'edges' must be vertex pairs")
    keys, A = X.edge_keys(), _int_rows(edges)
    if A is not None and len(A) == len(keys) and ring in (RING_Z2, RING_Z):
        ends = _indices(X, A.ravel()).reshape(A.shape)
        if (ends >= 0).all():
            given = ends[:, 0] * X.num_vertices + ends[:, 1]
            order = np.argsort(given)
            if np.array_equal(given[order], keys):  # the pairs are exactly the edges
                vector = np.array(values, dtype=np.int64 if ring == RING_Z2 else object)
                return Cochain1._from_edge_values(X, vector[order], ring)
    edges = list(map(tuple, edges))
    listed = {(u, v) if u < v else (v, u) for u, v in edges}
    if len(listed) != len(edges):
        raise ParameterError("cochain 'edges' lists an edge twice")
    # the cochain refuses a non-edge, so as many pairs as edges cover them all
    if len(listed) < len(X.edge_keys()):
        missing = X.faces(1) - listed
        raise ParameterError(
            f"cochain 'edges' must cover every edge; {len(missing)} missing, "
            f"e.g. {min(missing)!r}")
    return Cochain1(X, dict(zip(edges, values)), ring)


def write_cochain(c: Cochain1, path) -> None:
    Path(path).write_text(dumps_cochain(c))


def read_cochain(path, X: SimplicialComplex, ring: str = RING_Z2) -> Cochain1:
    return loads_cochain(_read_text(path, "cochain"), X, ring)

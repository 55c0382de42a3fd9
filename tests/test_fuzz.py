"""Small random JSON complexes and cochains, whose labels include true, 1.0,
strings and ints past int64, through the loaders and the core API: every
call either answers or raises a ``SystolaError``, never another exception."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola.errors import SystolaError

INTS = st.integers(-2, 6)
ODD = st.sampled_from([True, False, 1.0, 2.5, "a", None, 2 ** 63, -2 ** 63 - 1, 2 ** 70])
LABELS = INTS | ODD
VALUES = st.one_of(st.integers(-3, 3), st.sampled_from([True, 1.0, "1", 2 ** 70]))


def _call(f, *args, **kwargs):
    """f's answer, or None if it refused the input with a ``SystolaError``."""
    try:
        return f(*args, **kwargs)
    except SystolaError:
        return None


def _cochain_text(data, X, ring):
    """A cochain document on X's edges, often edited: a label, a value or an
    edge replaced, an edge dropped or repeated."""
    edges = [list(e) for e in sorted(X.faces(1))]
    top = 1 if ring == sy.RING_Z2 else 3
    values = data.draw(st.lists(st.integers(0, top), min_size=len(edges), max_size=len(edges)))
    edit = data.draw(st.sampled_from(["none", "label", "value", "edge", "drop", "repeat"]))
    if edges and edit != "none":
        i = data.draw(st.integers(0, len(edges) - 1))
        if edit == "label":
            edges[i][data.draw(st.integers(0, 1))] = data.draw(LABELS)
        elif edit == "value":
            values[i] = data.draw(VALUES)
        elif edit == "edge":
            edges[i] = data.draw(st.lists(LABELS, max_size=3))
        elif edit == "drop":
            del edges[i], values[i]
        else:
            edges.append(edges[i])
            values.append(values[i])
    return json.dumps({"edges": edges, "values": values})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_only_systola_errors_escape(data):
    # well-formed small-int documents, one in four edited, so that most load
    facets = data.draw(st.lists(st.lists(INTS, min_size=1, max_size=4, unique=True), max_size=8))
    doc = {"facets": facets, "vertices": sorted({v for f in facets for v in f})}
    edit = data.draw(st.sampled_from(["none"] * 9 + ["facet", "label", "vertex"]))
    if edit == "facet":  # any labels, maybe none or repeated
        facets.append(data.draw(st.lists(LABELS, max_size=3)))
    elif edit == "label" and facets:
        facets[0][0] = data.draw(ODD)
    elif edit == "vertex":
        doc["vertices"].append(data.draw(LABELS))
    X = _call(sy.loads_complex, json.dumps(doc))
    if X is None:
        return
    assert sy.loads_complex(sy.dumps_complex(X)) == X
    mixed = data.draw(st.lists(st.sampled_from(X.vertices) | LABELS if X.vertices else LABELS,
                               max_size=5))
    _call(X.has_face, mixed)
    S = _call(sy.induced, X, mixed)
    _call(sy.h1_basis, X)
    ring = data.draw(st.sampled_from([sy.RING_Z2, sy.RING_Z]))
    c = _call(sy.loads_cochain, _cochain_text(data, X, ring), X, ring)
    if c is None:
        return
    assert sy.loads_cochain(sy.dumps_cochain(c), X, ring) == c
    fiber = data.draw(st.sampled_from([2, 3, 5, 2 ** 40]))
    _call(sy.loop_norm, X, c, fiber)
    for W in (mixed, S):
        if W is not None:
            _call(sy.restriction_is_zero, c, W)
    cup = _call(sy.cup_power, [c, c])
    if cup is not None:
        _call(sy.class_is_nonzero, cup)
    cover = _call(sy.build_cover, X, c, fiber)
    n = data.draw(st.integers(1, 3))
    for mode in ("exhaustive", "heuristic"):
        _call(sy.combinatorial_essentiality, X, n, cover, mode=mode, budget_ms=1)
        _call(sy.combinatorial_essentiality, X, n, mode=mode, budget_ms=1)

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import systola as sy
from systola.errors import DomainError, MalformedFaceError, ParameterError


def test_complex_round_trip(tmp_path, rp2):
    path = tmp_path / "rp2.cx"
    sy.write_complex(rp2, path)
    again = sy.read_complex(path)
    assert again == rp2


def test_complex_serialization_is_byte_stable(tmp_path, rp2):
    first = sy.dumps_complex(rp2)
    assert first == sy.dumps_complex(sy.loads_complex(first))
    assert first.endswith("\n")


def test_cochain_round_trip(tmp_path, rp2, rp2_class):
    path = tmp_path / "xi.cochain"
    sy.write_cochain(rp2_class, path)
    again = sy.read_cochain(path, rp2)
    assert again.values == rp2_class.values


def test_cochain_covers_every_edge(rp2, rp2_class):
    import json
    doc = json.loads(sy.dumps_cochain(rp2_class))
    assert len(doc["edges"]) == len(rp2.faces(1)) == len(doc["values"])
    assert doc["edges"] == sorted(doc["edges"])


def test_integer_cochain_round_trip(tmp_path):
    X = sy.gen_polygon(4)
    xi = sy.Cochain1(X, {(0, 1): 2, (1, 2): -1}, sy.RING_Z)
    path = tmp_path / "z.cochain"
    sy.write_cochain(xi, path)
    again = sy.read_cochain(path, X, sy.RING_Z)
    assert again.values == xi.values


def test_non_integer_labels_rejected():
    X = sy.build_complex([[(1, 0), (2, 0)]])
    with pytest.raises(ParameterError):
        sy.dumps_complex(X)


def test_bad_documents_rejected(tmp_path):
    with pytest.raises(ParameterError):
        sy.loads_complex('{"vertices": [1, 2]}')
    with pytest.raises(ParameterError):
        sy.loads_complex('{"facets": [[1, 2]], "vertices": [1, 2, 9]}')
    X = sy.gen_polygon(3)
    with pytest.raises(ParameterError):
        sy.loads_cochain('{"edges": [[0, 1]], "values": [1, 0]}', X)


def test_generated_quotient_round_trip(tmp_path):
    Q, xi, _ = sy.gen_projective_space(2, 4)
    cpath, xpath = tmp_path / "q.cx", tmp_path / "q.cx.cocycle"
    sy.write_complex(Q, cpath)
    sy.write_cochain(xi, xpath)
    Q2 = sy.read_complex(cpath)
    xi2 = sy.read_cochain(xpath, Q2)
    assert Q2 == Q
    assert sy.loop_norm(Q2, xi2) == 4


# Each malformed document must fail with ParameterError, never with a raw
# JSON, value or type error, and never be coerced silently.
_TRIANGLE = '{"facets": [[0, 1, 2]], "vertices": [0, 1, 2]}'
_EDGES = '[[0, 1], [0, 2], [1, 2]]'


def test_malformed_json_rejected():
    with pytest.raises(ParameterError, match="not valid JSON"):
        sy.loads_complex('{"facets": [[0, 1]')
    with pytest.raises(ParameterError, match="not valid JSON"):
        sy.loads_cochain('{"edges": ', sy.gen_polygon(3))


def test_non_object_document_rejected():
    with pytest.raises(ParameterError):
        sy.loads_complex('[[0, 1]]')


@pytest.mark.parametrize("value", ['"x"', "1.7", "1.0", "true", "null"])
def test_non_integer_cochain_value_rejected(value):
    X = sy.loads_complex(_TRIANGLE)
    text = f'{{"edges": {_EDGES}, "values": [{value}, 0, 0]}}'
    with pytest.raises(ParameterError, match="integers"):
        sy.loads_cochain(text, X)


@pytest.mark.parametrize("value", [2, -1, 3])
def test_z2_cochain_value_outside_0_1_rejected(value):
    # a Z cochain written by dumps_cochain must not read back over Z2 reduced mod 2
    X = sy.gen_polygon(4)
    text = sy.dumps_cochain(sy.Cochain1(X, {(0, 1): value}, sy.RING_Z))
    with pytest.raises(ParameterError, match="0 or 1"):
        sy.loads_cochain(text, X)
    assert sy.loads_cochain(text, X, sy.RING_Z).values == {(0, 1): value}


@pytest.mark.parametrize("doc", [
    '{"facets": [[1, "a"]]}',
    '{"facets": [[1, 2.0]]}',
    '{"facets": [[true, 2]]}',
    '{"facets": [[1, 2]], "vertices": [1, "2"]}',
    '{"facets": "12"}',
])
def test_non_integer_vertex_labels_rejected(doc):
    with pytest.raises(ParameterError, match="integer labels"):
        sy.loads_complex(doc)


def test_non_integer_cochain_edge_labels_rejected():
    X = sy.loads_complex(_TRIANGLE)
    with pytest.raises(ParameterError, match="integer labels"):
        sy.loads_cochain('{"edges": [[0, "a"], [0, 2], [1, 2]], "values": [1, 0, 0]}', X)


def test_partial_cochain_edge_list_rejected():
    X = sy.loads_complex(_TRIANGLE)
    with pytest.raises(ParameterError, match="cover every edge"):
        sy.loads_cochain('{"edges": [[0, 1], [1, 2]], "values": [1, 1]}', X)
    with pytest.raises(ParameterError, match="twice"):
        sy.loads_cochain('{"edges": [[0, 1], [1, 0], [1, 2]], "values": [1, 1, 0]}', X)
    with pytest.raises(ParameterError, match="pairs"):
        sy.loads_cochain('{"edges": [[0, 1], [0, 2], [0, 1, 2]], "values": [1, 1, 0]}', X)


def _facet_lists(rng):
    """Facets of one to three widths on sparse, negative and large int labels (a
    few beyond int64), shuffled, each unsorted, some listed twice."""
    big = rng.random() < 0.1
    pool = [rng.choice((-1, 1)) * rng.randrange(2 ** (70 if big else 62)) for _ in range(12)]
    labels = sorted(set(pool[:rng.randrange(1, 13)]))
    sizes = range(1, min(len(labels), 4) + 1)
    widths = rng.sample(sizes, rng.randrange(1, min(len(sizes), 3) + 1))
    facets = [rng.sample(labels, rng.choice(widths)) for _ in range(rng.randrange(1, 16))]
    facets += [f[::-1] for f in rng.sample(facets, rng.randrange(len(facets) + 1))]
    rng.shuffle(facets)
    return facets


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.sampled_from((sy.RING_Z2, sy.RING_Z)))
def test_array_loaders_equal_the_label_path(seed, ring):
    # one-width documents take the array path, the rest build_complex; either way
    # the complex and its cochains equal those the label path builds
    rng = random.Random(seed)
    facets = _facet_lists(rng)
    want = sy.build_complex(facets)
    got = sy.loads_complex(json.dumps({"facets": facets}))
    assert got == want and got.facets == want.facets and got.vertices == want.vertices
    assert type(got.vertices[0]) is int and got.dim == want.dim
    assert np.array_equal(got.edge_keys(), want.edge_keys())
    assert sy.dumps_complex(got) == sy.dumps_complex(want)
    values = {e: rng.choice((0, 1) if ring == sy.RING_Z2 else (0, 1, -3, 2 ** 61, -2 ** 70))
              for e in sorted(want.faces(1))}
    pairs = [list(e) if rng.randrange(2) else list(e[::-1]) for e in values]
    order = rng.sample(range(len(pairs)), len(pairs))
    text = json.dumps({"edges": [pairs[i] for i in order],
                       "values": [list(values.values())[i] for i in order]})
    c, reference = sy.loads_cochain(text, got, ring), sy.Cochain1(want, values, ring)
    assert c.values == reference.values
    assert c.edge_values().dtype == reference.edge_values().dtype
    assert np.array_equal(c.edge_values(), reference.edge_values())
    assert sy.dumps_cochain(c) == sy.dumps_cochain(reference)


_T = '{"facets": [[0, 1, 2]]}'


@pytest.mark.parametrize("complex_doc, cochain_doc, ring, error, message", [
    ('{"facets": [[1, 2], [2, 2]]}', None, None, MalformedFaceError,
     r"face \(2, 2\) repeats vertex 2"),
    ('{"facets": [[5, 5, 5]]}', None, None, MalformedFaceError, r"face \(5, 5, 5\) repeats"),
    ('{"facets": [[]]}', None, None, MalformedFaceError, "empty face"),
    ('{"facets": [[1, 2], [2, 3]], "vertices": [1, 2, 3, 4]}', None, None, ParameterError,
     r"declared vertices missing from every facet: \[4\]"),
    (_T, '{"edges": [[0, 1], [0, 2], [0, 1]], "values": [1, 0, 0]}', "Z2", ParameterError,
     "cochain 'edges' lists an edge twice"),
    (_T, '{"edges": [[0, 1], [0, 2], [1, 1]], "values": [1, 0, 0]}', "Z", DomainError,
     r"\(1, 1\) is not an edge"),
    (_T, '{"edges": [[0, 1], [0, 2], [5, 6]], "values": [1, 0, 0]}', "Z2", DomainError,
     r"\(5, 6\) is not an edge"),
    (_T, '{"edges": [[0, 1], [0, 2], [1, 2], [0, 3]], "values": [1, 0, 0, 1]}', "Z2",
     DomainError, r"\(0, 3\) is not an edge"),
    (_T, '{"edges": [[0, 1], [0, 2], [18446744073709551616, 2]], "values": [1, 0, 0]}', "Z",
     DomainError, r"\(2, 18446744073709551616\) is not an edge"),
    (_T, '{"edges": [[1, 0], [2, 0], [2, 1]], "values": [1, 0, 1]}', "Q", ParameterError,
     "unknown coefficient ring 'Q'"),
])
def test_documents_the_array_path_hands_back_keep_their_errors(complex_doc, cochain_doc, ring,
                                                              error, message):
    # each passes the field checks but fails a check of the array path, so the
    # label path decides, with its own error type and message
    with pytest.raises(error, match=f"^{message}"):
        X = sy.loads_complex(complex_doc)
        sy.loads_cochain(cochain_doc, X, ring)

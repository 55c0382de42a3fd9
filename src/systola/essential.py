"""Combinatorial essentiality via partitions into inessential vertex sets.

Two decidable inessentiality tests are supported: the forest criterion
for 1-dimensional complexes (a subgraph maps trivially to the ambient
fundamental group iff every component is a tree) and cover-relative
triviality for an explicitly supplied covering.  Both count the components
of <W> by the one restriction test of ``cochains``, the cover test for the
cocycle mod the fiber and the forest test for the zero cochain mod 1: a
forest has |W| - c edges for c components.  Both are monotone (a block that fails
makes every superset fail), so exhaustive search over restricted-growth
strings tests each block as it grows and prunes there.  Both searches
see a block as an int bitmask over the vertex order and share one dict
from mask to verdict, so each distinct block is tested once.  The
heuristic search only ever produces witnesses, never essentiality claims.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .cochains import Cochain1, _restricted_components, _restriction_table
from .complexes import SimplicialComplex, _as_mask, _VertexMask
from .covers import Cover, is_pi_inessential
from .errors import CapacityError, DimensionError, ParameterError, require_int
from .gf2 import _bits

MAX_EXHAUSTIVE_VERTICES = 14


@dataclass(frozen=True)
class VertexPartition:
    """An ordered partition of a vertex set into nonempty disjoint blocks."""

    blocks: tuple

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ParameterError("empty partition block")
            if seen & b:
                raise ParameterError("partition blocks overlap")
            seen |= b

    def covered(self) -> frozenset:
        return frozenset().union(*self.blocks)

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class EssentialityVerdict:
    """Outcome of an essentiality decision.

    ``essential`` is True or False for a completed exhaustive search;
    a heuristic search that finds no witness reports None, read as
    "not disproved".  A witness is present exactly when essential is
    False.  ``block_tests`` counts the distinct blocks the search tested,
    in both modes; each is tested once.
    """

    essential: bool | None
    witness: VertexPartition | None
    method: str
    block_tests: int = 0

    def __post_init__(self):
        if (self.witness is not None) != (self.essential is False):
            raise ParameterError("witness must be present iff essential is False")

    @property
    def exhaustive_complete(self) -> bool:
        """Whether the search ran to completion: exactly the exhaustive ones do."""
        return self.method == "exhaustive"

    @property
    def status(self) -> str:
        if self.essential is True:
            return "essential"
        if self.essential is False:
            return "not-essential"
        return "not-disproved"


def is_inessential_graph(X: SimplicialComplex, W) -> bool:
    """Forest criterion: true iff every component of <W> is a tree.

    Only valid for complexes of dimension at most 1, where subgraph
    inclusions inject fundamental groups.  Decided by the restriction test
    of the 1-skeleton mod 1, whose table is built once per complex.
    """
    if X.dim > 1:
        raise DimensionError("forest criterion applies to 1-dimensional complexes")
    return _block_test(X, None)(W)


def subdivision_vertex_lower_bound(n: int) -> int:
    """Vertex lower bound (n+1)(n+2)/2 attached to an n-essential subdivision."""
    n = require_int(n, "n", 1)
    return (n + 1) * (n + 2) // 2


def _is_forest(X, W) -> bool:
    """Whether <W> is a forest: one with |W| - c edges (2 ends each), c its
    component count, both read off the restriction table of X's zero cochain."""
    zero = X.derived("zero cochain", lambda X: Cochain1(X, {}))
    W = _as_mask(X, W)
    count, table = _restricted_components(zero, 1, W), _restriction_table(zero, 1)
    if type(table) is list:
        ends = sum((table[i] & W).bit_count() for i in _bits(W))
    else:
        inside = set(_bits(W))
        ends = sum(w in inside for i in inside for w, _ in table[i])
    return ends == 2 * (W.bit_count() - count)


def _block_test(X, cover):
    if cover is not None:
        if not isinstance(cover, Cover):
            raise ParameterError("cover must be a Cover instance")
        if cover.base is not X:
            raise ParameterError("cover does not cover this complex")
        return lambda block: is_pi_inessential(cover, block)
    if X.dim <= 1:
        return lambda W: _is_forest(X, W)
    raise ParameterError(
        "essentiality for complexes of dimension > 1 needs an explicit cover")


def _exhaustive(m, n, passes):
    """The first partition of vertices 0..m-1 into at most n <= m blocks that
    all ``passes``, in restricted-growth order, as bitmasks (bit i for vertex
    i); None if there is none."""
    masks = [0] * n

    def rec(i, used):
        if i == m:
            return used
        bit = 1 << i
        for j in range(used + (used < n)):
            old = masks[j]
            if passes(old | bit):
                masks[j] = old | bit
                found = rec(i + 1, used + (j == used))
                if found is not None:
                    return found
                masks[j] = old
        return None

    used = rec(0, 0)
    return None if used is None else masks[:used]


def _heuristic(m, n, passes, rng, deadline, max_rounds):
    """A partition of vertices 0..m-1 into at most n blocks that all
    ``passes``, or None.  Each round draws a label per vertex, then 4m times
    moves a random vertex of a random failing block to a random label; the
    blocks are bitmasks, one per label, in the order of their lowest vertex.
    With no vertices the empty partition is the witness, as in the
    exhaustive search."""
    if m == 0:
        return []
    rounds = 0
    while rounds < max_rounds and time.monotonic() < deadline:
        rounds += 1
        masks = [0] * n
        for i in range(m):
            masks[rng.randrange(n)] |= 1 << i
        for _ in range(4 * m):
            bad = sorted((a for a in range(n) if masks[a] and not passes(masks[a])),
                         key=lambda a: masks[a] & -masks[a])
            if not bad:
                return sorted(filter(None, masks), key=lambda w: w & -w)
            a = rng.choice(bad)
            dest = rng.randrange(n)
            s = bin(masks[a])[:1:-1]  # vertex i of the block at s[i]
            k = rng.choice(range(s.count("1")))  # its k-th vertex, drawn as by rng.choice
            bit = 1 << len(s) - 1 - len(s.split("1", k + 1)[-1])  # the "1" before the rest
            masks[a] ^= bit
            masks[dest] |= bit
            if time.monotonic() >= deadline:
                break
    return None


def combinatorial_essentiality(X: SimplicialComplex, n: int,
                               cover: Cover | None = None,
                               mode: str = "exhaustive",
                               budget_ms: int = 1000,
                               seed: int = 0) -> EssentialityVerdict:
    """Decide whether V(X) can be split into at most n inessential blocks.

    Exhaustive mode enumerates restricted-growth partitions (capped at
    14 vertices) and is a proof either way; heuristic mode searches for
    a witness within the time budget (at least 1 ms, checked in both modes)
    and never claims essentiality.
    Both criteria are monotone under shrinking a block, so the exhaustive
    search tests each block as it grows and prunes a branch at the first
    block that fails.  Both modes ask one mask -> verdict dict, so every
    distinct block is tested once and ``block_tests`` is the size of that
    dict.  The witness re-check runs the same test on the labelled blocks, so
    it checks the decoding and bookkeeping; the brute-force oracles of the
    tests and of the benchmark check the test itself.  ``n`` and
    ``budget_ms`` must be integers (bools refused); ``n`` above the vertex
    count is taken as the vertex count: no partition has more nonempty blocks.
    """
    n = require_int(n, "n", 1)
    budget_ms = require_int(budget_ms, "budget_ms", 1)
    test = _block_test(X, cover)
    m = len(X.vertices)
    n = min(n, m)

    class Verdicts(dict):
        def __missing__(self, mask):
            ok = self[mask] = test(_VertexMask(mask))
            return ok

    # The exhaustive search asks about the same blocks again and again (K13
    # with n = 6: 178,132 asks of 363 blocks); a hit here is one C-level dict
    # lookup, where a Python closure would cost about twice as much.
    verdicts = Verdicts()
    passes = verdicts.__getitem__

    if mode == "exhaustive":
        if m > MAX_EXHAUSTIVE_VERTICES:
            raise CapacityError(
                f"exhaustive search capped at {MAX_EXHAUSTIVE_VERTICES} vertices "
                f"({m} given); use the heuristic mode")
        found = _exhaustive(m, n, passes)
    elif mode == "heuristic":
        rng = random.Random(seed)
        deadline = time.monotonic() + budget_ms / 1000.0
        found = _heuristic(m, n, passes, rng, deadline, max_rounds=10_000)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if found is None:
        return EssentialityVerdict(True if mode == "exhaustive" else None, None, mode,
                                   len(verdicts))
    witness = VertexPartition(tuple(frozenset(X.vertices[i] for i in _bits(w)) for w in found))
    if not all(test(b) for b in witness.blocks):
        raise ParameterError("internal error: unsound witness")
    return EssentialityVerdict(False, witness, mode, len(verdicts))

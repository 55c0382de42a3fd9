"""Independent re-checks of systola's answers.

Nothing here imports systola.  The checks read the same canonical JSON
texts the workloads hand to the program and decide each question the
slow, obvious way:

* balls by a dict-based breadth-first search;
* triviality of a cover over a vertex set by building the preimage
  graph explicitly and requiring every component to project
  injectively (this also decides whether a Z2 class restricts to zero);
* the forest criterion by union-find over the induced edges.

They run outside the timed region, so an unsound but faster block test
in the program shows up as a failed check.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations


class Complex:
    """Vertices, edges and adjacency of a complex given as canonical JSON."""

    __slots__ = ("vertices", "edges", "adj")

    def __init__(self, text):
        doc = json.loads(text)
        edges = set()
        for facet in doc["facets"]:
            edges.update(combinations(sorted(facet), 2))
        self.vertices = frozenset(v for facet in doc["facets"] for v in facet)
        self.edges = tuple(sorted(edges))
        self.adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)


def edge_values(text) -> dict:
    """Edge (u, v) with u < v -> value on u -> v, from a cochain text."""
    doc = json.loads(text)
    return {tuple(e): v for e, v in zip(doc["edges"], doc["values"]) if v}


def ball(X: Complex, x, r) -> frozenset:
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if dist[u] == r:
            continue
        for w in X.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return frozenset(dist)


def cover_trivial_over(X: Complex, values, fiber, W) -> bool:
    """Does the fiber-sheeted cover given by ``values`` split over <W>?"""
    W = set(W)
    adj = {}
    for u, v in X.edges:
        if u in W and v in W:
            shift = values.get((u, v), 0)
            for s in range(fiber):
                a, b = (u, s), (v, (s + shift) % fiber)
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
    seen = set()
    for v in W:
        for s in range(fiber):
            if (v, s) in seen:
                continue
            comp = [(v, s)]
            seen.add((v, s))
            i = 0
            while i < len(comp):
                for y in adj.get(comp[i], ()):
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                i += 1
            if len({p[0] for p in comp}) != len(comp):
                return False
    return True


def is_forest(X: Complex, W) -> bool:
    """Does the subgraph induced by W contain no cycle?"""
    parent = {v: v for v in W}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in X.edges:
        if u in parent and v in parent:
            ru, rv = root(u), root(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def is_partition(vertices, blocks, n) -> bool:
    """At most n nonempty, pairwise disjoint blocks covering ``vertices``."""
    seen = set()
    for b in blocks:
        if not b or seen & set(b):
            return False
        seen |= set(b)
    return 1 <= len(blocks) <= n and seen == set(vertices)

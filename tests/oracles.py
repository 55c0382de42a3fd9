"""Independent brute-force oracles.

The oracles here deliberately avoid the library's code paths: cycle
enumeration by DFS, cover triviality by explicit preimage components,
distances by dict-based BFS.  Acceptance and agreement tests compare
library results against these.
"""

from __future__ import annotations

import time
from collections import deque

import systola as sy
from systola.gf2 import Echelon, kernel_basis


# -- independent oracles -----------------------------------------------------

def simple_cycles(adjacency, members=None):
    """All simple cycles of an undirected graph, as vertex lists.

    Each cycle is produced once, rooted at its smallest vertex with its
    two directions deduplicated.
    """
    if members is None:
        members = set(adjacency)
    members = set(members)
    cycles = []

    def dfs(root, u, path, on_path):
        for w in adjacency.get(u, ()):
            if w not in members:
                continue
            if w == root and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(list(path))
            elif w > root and w not in on_path:
                on_path.add(w)
                path.append(w)
                dfs(root, w, path, on_path)
                path.pop()
                on_path.remove(w)

    for root in sorted(members):
        dfs(root, root, [root], {root})
    return cycles


def cycle_holonomy(cochain, cycle, modulus=2):
    total = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total += cochain.value(a, b)
    return total % modulus


def brute_is_cocycle(cochain):
    """Oracle: the coboundary of a 1-cochain, summed with ``value`` over
    every triangle of ``faces(2)``, vanishes (mod 2 over Z2)."""
    for a, b, d in cochain.complex.faces(2):
        delta = cochain.value(a, b) + cochain.value(b, d) - cochain.value(a, d)
        if delta % 2 if cochain.ring == sy.RING_Z2 else delta:
            return False
    return True


def brute_restriction_is_zero(cochain, W):
    """Oracle: a cocycle restricts to a coboundary iff every simple cycle
    inside the induced subcomplex evaluates to zero."""
    adj = cochain.complex.adjacency()
    for cycle in simple_cycles(adj, W):
        if cycle_holonomy(cochain, cycle):
            return False
    return True


def integer_restriction_is_zero(cochain, W):
    """Oracle over the integers: relax p(v) = p(u) + c(u, v) over the edge
    list of the induced subgraph until nothing changes, rooting each
    untouched vertex at 0, then require every listed edge to agree."""
    W = set(W)
    edges = [(u, v) for u, v in cochain.complex.faces(1) if u in W and v in W]
    p = {}
    for root in sorted(W):
        if root in p:
            continue
        p[root] = 0
        changed = True
        while changed:
            changed = False
            for u, v in edges:
                if u in p and v not in p:
                    p[v] = p[u] + cochain.value(u, v)
                    changed = True
                elif v in p and u not in p:
                    p[u] = p[v] - cochain.value(u, v)
                    changed = True
    return all(p[v] - p[u] == cochain.value(u, v) for u, v in edges)


def brute_cover_trivial_over(cover, W):
    """Oracle for pi-inessentiality: build the preimage subgraph explicitly
    and require every component to project injectively."""
    W = set(W)
    N = cover.fiber
    xi = cover.cocycle
    adj = {}
    for u, v in cover.base.faces(1):
        if u in W and v in W:
            for s in range(N):
                t = (s + xi.value(u, v)) % N
                adj.setdefault((u, s), []).append((v, t))
                adj.setdefault((v, t), []).append((u, s))
    seen = set()
    for v in W:
        for s in range(N):
            start = (v, s)
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        queue.append(y)
            projected = {p[0] for p in comp}
            if len(projected) != len(comp):
                return False
    return True


def total_adjacency(cover):
    """Oracle: the total graph as a dict (v, sheet) -> neighbours, every
    vertex a key, built edge by edge from ``cocycle.value``."""
    N = cover.fiber
    adj = {(v, s): [] for v in cover.base.vertices for s in range(N)}
    for u, v in cover.base.faces(1):
        g = cover.cocycle.value(u, v)
        for s in range(N):
            t = (s + g) % N
            adj[(u, s)].append((v, t))
            adj[(v, t)].append((u, s))
    return adj


def bfs_distances(adjacency, source, limit=sy.INFINITY):
    """Oracle: deque-BFS distances from source in a dict adjacency, only
    those at most limit."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        p = queue.popleft()
        if dist[p] == limit:
            continue
        for q in adjacency[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def graph_components(adjacency):
    """Oracle: the vertex sets of a dict adjacency's components, by DFS."""
    seen, parts = set(), []
    for root in adjacency:
        if root not in seen:
            part, stack = {root}, [root]
            while stack:
                for q in adjacency[stack.pop()]:
                    if q not in part:
                        part.add(q)
                        stack.append(q)
            seen |= part
            parts.append(frozenset(part))
    return parts


def brute_loop_lengths(cover):
    """Oracle: base vertex x -> the least length of a nontrivial loop at x
    (inf if none), the least dict-BFS distance from (x, 0) to some (x, g),
    g != 0, in the total graph of ``total_adjacency``."""
    adj = total_adjacency(cover)
    lengths = {}
    for x in cover.base.vertices:
        dist = bfs_distances(adj, (x, 0))
        lengths[x] = min((dist[(x, g)] for g in range(1, cover.fiber) if (x, g) in dist),
                         default=sy.INFINITY)
    return lengths


def brute_homotopy_radius(cover):
    """Oracle radius: scan balls by brute force with the preimage check."""
    X = cover.base
    r = 0
    while True:
        grew = False
        for x in X.vertices:
            b = sy.ball(X, x, r)
            if not brute_cover_trivial_over(cover, b):
                return r - 1
            if len(sy.ball(X, x, r + 1)) > len(b):
                grew = True
        if not grew:
            return sy.INFINITY
        r += 1


def graph_girth(X):
    """Shortest cycle length of a graph complex, inf if a forest."""
    best = sy.INFINITY
    adj = X.adjacency()
    for root in X.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def is_closed_pseudomanifold(X):
    """Oracle: X is pure, every ridge lies in exactly two facets, and the
    dual graph (facets joined across shared ridges) is connected."""
    facets = [tuple(sorted(f)) for f in X.facets]
    n = X.dim
    if any(len(f) != n + 1 for f in facets):
        return False
    cofaces = {}
    for i, f in enumerate(facets):
        for k in range(n + 1):
            cofaces.setdefault(f[:k] + f[k + 1:], []).append(i)
    if any(len(pair) != 2 for pair in cofaces.values()):
        return False
    dual = {i: [] for i in range(len(facets))}
    for a, b in cofaces.values():
        dual[a].append(b)
        dual[b].append(a)
    seen = {0}
    queue = deque([0])
    while queue:
        for j in dual[queue.popleft()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(facets)


def parity_class_is_nonzero(c):
    """Oracle for a top-degree Z2 class on a closed Z2-pseudomanifold with a
    connected dual graph: H^n is Z2, detected by the parity of the support.
    None when the complex is not such a pseudomanifold or c is not top-degree."""
    X = c.complex
    if c.degree != X.dim or not is_closed_pseudomanifold(X):
        return None
    return len(c.support) % 2 == 1


# -- GF(2) oracles: plain elimination with a full reduced echelon form ---------

def brute_rref(vectors):
    """Fully reduced echelon rows, sorted by pivot bit; each pivot bit occurs
    in exactly one row."""
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    rows = sorted(ech.rows.values(), key=lambda r: r & -r)
    for i in range(len(rows) - 1, -1, -1):
        piv = rows[i] & -rows[i]
        for j in range(i):
            if rows[j] & piv:
                rows[j] ^= rows[i]
    return rows


def brute_kernel_basis(constraints, n_cols):
    """Kernel basis read off the reduced echelon form: one vector per free
    coordinate j < n_cols, ascending, with j set and the pivots of the rows
    that contain j."""
    rows = brute_rref(constraints)
    pivot_bits = {r & -r for r in rows}
    basis = []
    for j in range(n_cols):
        bit = 1 << j
        if bit in pivot_bits:
            continue
        x = bit
        for r in rows:
            if r & bit:
                x |= r & -r
        basis.append(x)
    return basis


def brute_in_span(vectors, target):
    """Span membership by inserting every vector into one echelon."""
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.reduce(target) == 0


class ReferenceContraction:
    """Sequential reference for ``gf2.peel``: a dict union-find over
    coordinates with a ground class, contracting one support at a time."""

    GROUND = -1

    def __init__(self, grounded=()):
        self.parent = {}
        for i in grounded:
            self.join(i)

    def find(self, i):
        while self.parent.get(i, i) != i:
            i = self.parent[i]
        return i

    def join(self, a, b=GROUND):
        """Merge the classes of a and b (the ground by default); the ground
        stays a root."""
        a, b = self.find(a), self.find(b)
        if a != b:
            if a == self.GROUND:
                a, b = b, a
            self.parent[a] = b

    def project(self, support):
        """Roots of the ungrounded classes that support meets an odd number
        of times."""
        odd = set()
        for i in support:
            odd ^= {self.find(i)}
        odd.discard(self.GROUND)
        return odd

    def peel(self, supports):
        """Contract the supports (coordinate sequences) one at a time: weight
        1 grounds its coordinate, weight 2 joins its two, and a longer one
        is projected first and contracted if that leaves at most 2.  Passes
        repeat until one contracts nothing; returns the rest, projected,
        each of weight at least 3."""
        heavy = supports
        while True:
            rest = []
            for s in heavy:
                if len(s) > 2:
                    s = self.project(s)
                    if len(s) > 2:
                        rest.append(s)
                        continue
                if s:
                    self.join(*s)
            if len(rest) == len(heavy):
                return rest
            heavy = rest


def kruskal_forest(edges, nv):
    """Indices of the edges that Kruskal keeps scanning from the highest
    index down, with a dict union-find over the vertices 0..nv-1."""
    uf = ReferenceContraction()
    kept = set()
    for i in range(len(edges) - 1, -1, -1):
        a, b = edges[i]
        if uf.find(a) != uf.find(b):
            uf.join(a, b)
            kept.add(i)
    return kept


def brute_cup_power(classes):
    """Support of the Alexander-Whitney product: every n-face of
    ``faces(n)`` on which each class k is 1 on the edge (v_{k-1}, v_k)."""
    X, n = classes[0].complex, len(classes)
    return {f for f in X.faces(n)
            if all(c.value(f[k], f[k + 1]) for k, c in enumerate(classes))}


def brute_class_is_nonzero(c):
    """Nonzero test by plain elimination: every coboundary column an int with
    one bit per k-face, the target tested with ``brute_in_span``."""
    kfaces = sorted(c.complex.faces(c.degree))
    fidx = {f: i for i, f in enumerate(kfaces)}
    target = 0
    for f in c.support:
        target |= 1 << fidx[f]
    columns = {}
    for f in kfaces:
        for i in range(len(f)):
            ridge = f[:i] + f[i + 1:]
            columns[ridge] = columns.get(ridge, 0) | 1 << fidx[f]
    return not brute_in_span([columns[t] for t in sorted(columns)], target)


def reference_h1_basis(X):
    """H^1 basis by eliminating every triangle constraint: one kernel vector
    per free edge coordinate from ``kernel_basis`` on the full system, each
    kept as its residual against the vertex stars and the vectors kept
    before it."""
    edges = sorted(X.faces(1))
    m = len(edges)
    eidx = {e: i for i, e in enumerate(edges)}
    constraints = []
    for a, b, d in sorted(X.faces(2)):
        constraints.append((1 << eidx[(a, b)]) | (1 << eidx[(b, d)]) | (1 << eidx[(a, d)]))
    kernel = kernel_basis(constraints, m)
    reps = Echelon()
    for v in X.vertices:
        bits = 0
        for u in X.adjacency()[v]:
            bits |= 1 << eidx[tuple(sorted((u, v)))]
        reps.insert(bits)
    basis = []
    for vec in kernel:
        residual = reps.insert(vec)
        if residual:
            vals = {edges[i]: 1 for i in range(m) if residual >> i & 1}
            basis.append(sy.Cochain1(X, vals, sy.RING_Z2))
    return basis


# -- essentiality oracle: the heuristic with a verdict per label ---------------

def reference_heuristic(vertices, n, test, rng, deadline, max_rounds):
    """The seeded heuristic search over labelled vertex groups.

    Same draws as ``essential._heuristic``: one ``randrange(n)`` per vertex,
    then per move ``choice`` of a failing label, ``randrange(n)`` for the
    destination and ``choice`` of a vertex.  Groups are rebuilt from the
    labels every move and listed in the order of their lowest vertex; a
    label's verdict is kept until a move changes its group.  Returns the
    blocks as frozensets, or None.
    """
    m = len(vertices)
    rounds = 0
    while rounds < max_rounds and time.monotonic() < deadline:
        rounds += 1
        assign = [rng.randrange(n) for _ in range(m)]
        ok = {}
        for _ in range(4 * m):
            groups = {}
            for v, a in zip(vertices, assign):
                groups.setdefault(a, set()).add(v)
            for a, b in groups.items():
                if a not in ok:
                    ok[a] = test(frozenset(b))
            bad = [a for a in groups if not ok[a]]
            if not bad:
                return [frozenset(b) for b in groups.values()]
            a = rng.choice(bad)
            movers = [i for i in range(m) if assign[i] == a]
            dest = rng.randrange(n)
            assign[rng.choice(movers)] = dest
            del ok[a]
            ok.pop(dest, None)
            if time.monotonic() >= deadline:
                break
    return None

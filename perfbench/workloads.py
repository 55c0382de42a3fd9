"""The three workloads: inputs from a seed, one timed pass, output checks.

Each workload object has

* ``setup(sy, seed, tiny=False)``: build the inputs (``tiny`` gives the
  warm-up and test size);
* ``run_pass(sy, inputs, tracer)``: the timed work, calling only public
  ``systola`` functions, returning everything it computed;
* ``check(inputs, output)``: a list of booleans, one per output checked;
* ``sizes(sy, inputs)``: V, E and facets of every input complex.

The seed varies the inputs without changing how much work a pass does,
so that runs with different seeds time the same computation: ``grid``
echoes it in every CSV row, ``cohomology`` draws its ball centres from
it, and ``essential`` draws fresh vertex labels from it (in the same
order, so every search visits vertices in the same sequence).
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

import oracle

EXPECTED = Path(__file__).resolve().parent / "expected"

# The heuristic searches need at most a few seconds; a budget this far
# above that means the wall-clock deadline never decides their answer.
HEURISTIC_BUDGET_MS = 600_000

# (1, 4), (1, 6) and (1, 8) fail the essential-complex bound by design:
# the s-cycle has s vertices while the bound evaluates to s + 1.
RED_BY_DESIGN = {(1, 4), (1, 6), (1, 8)}


def _size(X) -> dict:
    return {"V": X.num_vertices, "E": len(X.faces(1)), "facets": len(X.facets)}


# -- grid ----------------------------------------------------------------


class Grid:
    """``verify_grid`` over n <= 4, s <= 6, compared with the stored CSV."""

    name = "grid"
    FULL = (4, 6)
    TINY = (2, 5)

    def setup(self, sy, seed, tiny=False):
        n_max, s_max = self.TINY if tiny else self.FULL
        return {"n_max": n_max, "s_max": s_max, "seed": seed,
                "expected": expected_grid_lines(n_max, s_max, seed)}

    def run_pass(self, sy, inputs, tracer):
        report = sy.verify_grid(inputs["n_max"], inputs["s_max"], seed=inputs["seed"],
                                threads=1)
        return report.to_csv_text()

    def check(self, inputs, output):
        lines = output.splitlines()
        expected = inputs["expected"]
        results = [len(lines) == len(expected)]
        results += [a == b for a, b in zip(lines, expected)]
        results += [grid_row_invariants(row) for row in csv.DictReader(io.StringIO(output))]
        return results

    def sizes(self, sy, inputs):
        out = {}
        for n in range(1, inputs["n_max"] + 1):
            for s in range(3, inputs["s_max"] + 1):
                Q, _ = sy.quotient(sy.gen_symmetric_sphere(n, s))
                out[f"rp-{n}-{s}"] = _size(Q)
        return out


def expected_grid_lines(n_max, s_max, seed) -> list:
    """Header and rows of the stored n <= 4, s <= 8 CSV inside the grid,
    with the seed column set to ``seed``."""
    lines = (EXPECTED / "verify_n4_s8.csv").read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if int(cells[2]) <= n_max and int(cells[3]) <= s_max:
            cells[1] = str(seed)
            out.append(",".join(cells))
    return out


def grid_row_invariants(row) -> bool:
    """The paper's claims for one grid row: systole s, both radii s//2 - 1,
    at most s^n vertices, cup certified for n <= 3, and red only by design."""
    n, s = int(row["n"]), int(row["s"])
    return (row["cover_systole"] == str(s)
            and row["homotopy_radius"] == row["homology_radius"] == str(s // 2 - 1)
            and int(row["vertices"]) <= s ** n
            and row["cup_essential"] == ("1" if n <= 3 else "")
            and row["ok_all"] == ("0" if (n, s) in RED_BY_DESIGN else "1"))


# -- cohomology ----------------------------------------------------------


class Cohomology:
    """CLI-style queries on projective-space quotients loaded from JSON text."""

    name = "cohomology"
    FULL = ((3, 8), (4, 4))
    TINY = ((2, 4),)
    BALLS = 16  # centres per radius per complex

    def setup(self, sy, seed, tiny=False):
        cells = self.TINY if tiny else self.FULL
        balls = 2 if tiny else self.BALLS
        queries = []
        for n, s in cells:
            Q, xi = sy.quotient(sy.gen_symmetric_sphere(n, s))
            rng = random.Random(f"{seed}/{n}/{s}")
            centres = [(r, x) for r in (s // 2 - 1, s // 2)
                       for x in rng.sample(Q.vertices, balls)]
            queries.append({"name": f"rp-{n}-{s}", "n": n, "s": s,
                            "complex": sy.dumps_complex(Q), "cochain": sy.dumps_cochain(xi),
                            "centres": centres})
        return {"queries": queries}

    def run_pass(self, sy, inputs, tracer):
        out = []
        for q in inputs["queries"]:
            X = sy.loads_complex(q["complex"])
            xi = sy.loads_cochain(q["cochain"], X)
            balls = []
            for r, x in q["centres"]:
                B = sy.ball(X, x, r)
                balls.append((B, sy.restriction_is_zero(xi, B)))
            out.append({"cocycle": sy.is_cocycle(xi),
                        "h1_rank": len(sy.h1_basis(X)),
                        "cup_nonzero": sy.class_is_nonzero(sy.cup_power([xi] * q["n"], X)),
                        "balls": balls})
        return out

    def check(self, inputs, output):
        expected = json.loads((EXPECTED / "cohomology.json").read_text())
        results = []
        for q, got in zip(inputs["queries"], output):
            want = expected[q["name"]]
            results += [got["cocycle"], got["h1_rank"] == want["h1_rank"],
                        got["cup_nonzero"] == want["cup_nonzero"]]
            X = oracle.Complex(q["complex"])
            values = oracle.edge_values(q["cochain"])
            for (r, x), (B, zero) in zip(q["centres"], got["balls"]):
                # Below the homology triviality radius every ball restricts to zero.
                theory = True if r == q["s"] // 2 - 1 else zero
                results.append(B == oracle.ball(X, x, r)
                               and zero == oracle.cover_trivial_over(X, values, 2, B) == theory)
        results.append(len(output) == len(inputs["queries"]))
        return results

    def sizes(self, sy, inputs):
        return {q["name"]: _size(sy.loads_complex(q["complex"])) for q in inputs["queries"]}


# -- essential -----------------------------------------------------------


class Essential:
    """Thousands of small block tests: exhaustive, forest, cyclic-cover and
    heuristic essentiality searches on small complexes."""

    name = "essential"

    def setup(self, sy, seed, tiny=False):
        rng = random.Random(f"{seed}/essential")
        searches = []

        def add(name, X, ns, cochain=None, fiber=2, mode="exhaustive", seeds=(0,)):
            X, cochain = _relabel(sy, X, cochain, rng)
            xtext = sy.dumps_complex(X)
            ctext = None if cochain is None else sy.dumps_cochain(cochain)
            ring = None if cochain is None else cochain.ring
            for n in ns:
                for h in seeds:
                    tag = f"{name}.n{n}" + (f".h{h}" if mode == "heuristic" else "")
                    searches.append({"name": tag, "n": n, "complex": xtext,
                                     "cochain": ctext, "ring": ring, "fiber": fiber,
                                     "mode": mode, "seed": h})

        rp2 = sy.gen_named("rp2-six")
        add("rp2-six", rp2, (1, 2, 3), sy.h1_basis(rp2)[0])
        if not tiny:
            torus = sy.gen_named("torus-seven")
            for label, xi in zip("ab", sy.h1_basis(torus)):
                add(f"torus-seven.{label}", torus, (1, 2, 3), xi)
            Q, xi = sy.quotient(sy.gen_symmetric_sphere(2, 4))
            add("rp-2-4", Q, (2, 3), xi)
        for k in ((5,) if tiny else range(3, 15)):
            half = (k + 1) // 2
            add(f"complete-{k}", sy.gen_complete_graph(k), [n for n in (half - 1, half) if n])
        for m in ((5,) if tiny else range(3, 15)):
            add(f"polygon-{m}", sy.gen_polygon(m), (1, 2))
        for N in ((3,) if tiny else (3, 5)):
            for m in ((5,) if tiny else (5, 9, 12)):
                P = sy.gen_polygon(m)
                edge = rng.choice(sorted(P.faces(1)))
                xi = sy.Cochain1(P, {edge: rng.randrange(1, N)}, sy.RING_Z)
                add(f"polygon-{m}.z{N}", P, (1, 2, 3), xi, fiber=N)
        for s, seeds in (((5, (1,)),) if tiny else ((5, range(8)), (6, range(4)))):
            Q, xi = sy.quotient(sy.gen_symmetric_sphere(3, s))
            add(f"rp-3-{s}", Q, (4,), xi, mode="heuristic", seeds=seeds)
        return {"searches": searches}

    def run_pass(self, sy, inputs, tracer):
        out = []
        for q in inputs["searches"]:
            with tracer.span("essential.search"):
                X = sy.loads_complex(q["complex"])
                cover = None
                if q["cochain"] is not None:
                    xi = sy.loads_cochain(q["cochain"], X, q["ring"])
                    cover = sy.build_cover(X, xi, q["fiber"])
                if q["mode"] == "heuristic":
                    with tracer.span("essential.heuristic"):
                        v = sy.combinatorial_essentiality(
                            X, q["n"], cover=cover, mode="heuristic",
                            budget_ms=HEURISTIC_BUDGET_MS, seed=q["seed"])
                else:
                    v = sy.combinatorial_essentiality(X, q["n"], cover=cover)
            blocks = None if v.witness is None else sorted(sorted(b) for b in v.witness.blocks)
            out.append((v.status, blocks))
        return out

    def check(self, inputs, output):
        expected = json.loads((EXPECTED / "essential.json").read_text())
        results = [len(output) == len(inputs["searches"])]
        for q, (status, blocks) in zip(inputs["searches"], output):
            ok = status == expected[q["name"]]
            if blocks is not None:
                ok = ok and witness_is_sound(q, blocks)
            results.append(ok)
        return results

    def sizes(self, sy, inputs):
        out = {}
        for q in inputs["searches"]:
            family = q["name"].split(".n")[0]
            if family not in out:
                out[family] = _size(sy.loads_complex(q["complex"]))
        return out

    @staticmethod
    def trace_metrics(tracer, inputs, output):
        """Block tests per heuristic witness, and the block tests of every
        search (which must repeat exactly)."""
        per_search = tracer.counts_under("essential.search", "covers.is_pi_inessential")
        heuristic = tracer.counts_under("essential.heuristic", "covers.is_pi_inessential")
        witnesses = sum(1 for q, (status, _) in zip(inputs["searches"], output)
                        if q["mode"] == "heuristic" and status == "not-essential")
        ratio = sum(heuristic) / witnesses if witnesses else 0
        return {"essential.heuristic.tests_per_witness": ratio}, per_search


def witness_is_sound(search, blocks) -> bool:
    """Re-check a witness partition with the independent oracle."""
    X = oracle.Complex(search["complex"])
    if not oracle.is_partition(X.vertices, blocks, search["n"]):
        return False
    if search["cochain"] is None:
        return all(oracle.is_forest(X, b) for b in blocks)
    values = oracle.edge_values(search["cochain"])
    return all(oracle.cover_trivial_over(X, values, search["fiber"], b) for b in blocks)


def _relabel(sy, X, cochain, rng):
    """Fresh increasing integer labels drawn from rng, same vertex order."""
    old = X.vertices
    new = sorted(rng.sample(range(1, 8 * len(old) + 8), len(old)))
    m = dict(zip(old, new))
    Y = sy.build_complex([tuple(m[v] for v in f) for f in X.facets])
    if cochain is None:
        return Y, None
    values = {(m[u], m[v]): val for (u, v), val in cochain.values.items()}
    return Y, sy.Cochain1(Y, values, cochain.ring)


WORKLOADS = {w.name: w for w in (Grid(), Cohomology(), Essential())}

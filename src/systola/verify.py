"""End-to-end verification pipeline over the projective-space grid.

For each (n, s) cell: generate the symmetric sphere, take its quotient,
rebuild the double cover from the classifying cocycle, then measure and
check everything the construction promises: vertex budget s^n, cover
systole exactly s, the triviality-radius identity, and the vertex lower
bounds (the cup-product bound only where the cup certificate is
computed, n <= ``CUP_MAX_DIM``).

The essential bound column holds the displayed closed form
``essential_vertex_lower_bound``, one above the bound the ball-growth
recursion proves.  At n = 1 and even s the quotient is the s-cycle with
s vertices while the displayed form is s + 1, so ``ok_essential_bound``
stays red at (1, 4), (1, 6) and (1, 8), and ``verify-all`` exits 2 on
grids that contain them.  The acceptance check C3 passes: it checks
every row against the recursion bound and certifies those cells as
essential counterexamples to the displayed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import ClassVar

from .bounds import cup_vertex_lower_bound, essential_vertex_lower_bound
from .cochains import class_is_nonzero, cup_power
from .covers import build_cover, cover_systole, homotopy_triviality_radius
from .errors import ParameterError, require_int
from .generators import gen_symmetric_sphere, quotient

FORMAT_VERSION = 1

# Largest n whose cup certificate (xi^n nonzero) the grid computes.
CUP_MAX_DIM = 3


@dataclass(frozen=True)
class VerificationRow:
    """One grid cell; its fields, then ``ok_all``, are the report's row columns."""

    n: int
    s: int
    vertices: int
    vertex_budget: int
    cover_systole: object
    homotopy_radius: object
    homology_radius: object
    essential_bound: int
    cup_bound: int
    cup_essential: bool | None
    ok_vertex_budget: bool
    ok_systole: bool
    ok_radius_identity: bool
    ok_essential_bound: bool
    ok_cup_bound: bool

    @property
    def ok_all(self) -> bool:
        return (self.ok_vertex_budget and self.ok_systole and self.ok_radius_identity
                and self.ok_essential_bound and self.ok_cup_bound)


_ROW_COLUMNS = (*(f.name for f in fields(VerificationRow)), "ok_all")
CSV_COLUMNS = ("format_version", "seed", *_ROW_COLUMNS)


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple
    seed: int
    format_version: ClassVar[int] = FORMAT_VERSION

    @property
    def all_passed(self) -> bool:
        return all(r.ok_all for r in self.rows)

    def failed_rows(self):
        return [r for r in self.rows if not r.ok_all]

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            values = (self.format_version, self.seed, *(getattr(r, c) for c in _ROW_COLUMNS))
            lines.append(",".join(map(_csv_cell, values)))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rows = [{c: _json_cell(getattr(r, c)) for c in _ROW_COLUMNS} for r in self.rows]
        return {"format_version": self.format_version, "seed": self.seed,
                "rows": rows, "all_passed": self.all_passed}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if val is True:
        return "1"
    if val is False:
        return "0"
    if isinstance(val, float) and math.isinf(val):
        return "inf"
    return str(val)


def _json_cell(val):
    if isinstance(val, float) and math.isinf(val):
        return "inf"
    return val


def measure_cell(n: int, s: int) -> VerificationRow:
    """Generate, quotient, measure and check one grid cell."""
    sphere = gen_symmetric_sphere(n, s)
    Q, xi = quotient(sphere)
    cover = build_cover(Q, xi, 2)
    vertices = Q.num_vertices
    budget = s ** n
    sys_val = cover_systole(cover)
    r_homotopy = homotopy_triviality_radius(cover)
    # homology_triviality_radius(Q, [xi]) is by definition the radius of this cover
    r_homology = r_homotopy
    cup_ok = None
    if n <= CUP_MAX_DIM:
        cup_ok = class_is_nonzero(cup_power([xi] * n, Q))
    essential_bound = essential_vertex_lower_bound(n, s)
    cup_bound = cup_vertex_lower_bound(n, s)
    return VerificationRow(
        n=n, s=s, vertices=vertices, vertex_budget=budget,
        cover_systole=sys_val,
        homotopy_radius=r_homotopy,
        homology_radius=r_homology,
        essential_bound=essential_bound,
        cup_bound=cup_bound,
        cup_essential=cup_ok,
        ok_vertex_budget=vertices <= budget,
        ok_systole=sys_val == s,
        ok_radius_identity=r_homotopy == s // 2 - 1,
        ok_essential_bound=vertices >= essential_bound,
        ok_cup_bound=(cup_ok is not True) or vertices >= cup_bound,
    )


def verify_grid(n_max: int, s_max: int, seed: int = 0, threads: int = 1) -> VerificationReport:
    """Run the full grid 1 <= n <= n_max, 3 <= s <= s_max, in (n, s) order.

    The cells run one after another.  ``threads`` is still accepted, and
    only as 1, because the benchmark's grid workload passes ``threads=1``;
    it goes when that workload drops it.
    """
    if not 1 <= require_int(n_max, "n_max", 1) <= 4:
        raise ParameterError("n_max must lie in 1..4")
    if not 3 <= require_int(s_max, "s_max", 3) <= 8:
        raise ParameterError("s_max must lie in 3..8")
    require_int(seed, "seed", 0)
    if require_int(threads, "threads", 1) != 1:
        raise ParameterError(f"threads must be 1, got {threads!r}; the grid runs serially")
    cells = [(n, s) for n in range(1, n_max + 1) for s in range(3, s_max + 1)]
    rows = [measure_cell(n, s) for n, s in cells]
    return VerificationReport(tuple(rows), seed=seed)

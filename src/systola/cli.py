"""Command-line front end.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed
inputs), 2 when a verification command finds a failing check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .cochains import RING_Z, RING_Z2, class_is_nonzero, cup_power, h1_basis
from .complexes import barycentric_subdivision
from .covers import build_cover, cover_systole, homology_triviality_radius, \
    homotopy_triviality_radius
from .errors import SystolaError
from .essential import combinatorial_essentiality
from .generators import gen_complete_graph, gen_named, gen_polygon, \
    gen_projective_space
from .serialization import read_cochain, read_complex, write_cochain, write_complex
from .verify import verify_grid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def _emit(args, plain, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _parse_fiber(text: str):
    text = text.lower()
    digits = text[1:]
    if text.startswith("z") and digits.isascii() and digits.isdigit() and int(digits) >= 2:
        n = int(digits)
        return (RING_Z2, 2) if n == 2 else (RING_Z, n)
    raise _UsageError(f"bad fiber {text!r}; expected z2 or zN")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad rational {text!r}") from exc


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part]


# -- subcommand handlers ---------------------------------------------------

# gen shapes written together with their H^1 basis
_H1_SHAPES = {"rp2-six": lambda args: gen_named("rp2-six"),
              "torus7": lambda args: gen_named("torus-seven"),
              "polygon": lambda args: gen_polygon(args.m)}


def _cmd_gen(args) -> int:
    out = Path(args.output)
    if args.shape == "rp":
        Q, xi, sphere = gen_projective_space(args.dim, args.systole)
        X, classes = (sphere.complex, []) if args.sphere else (Q, [xi])
    elif args.shape == "complete":
        X, classes = gen_complete_graph(args.k), []
    else:
        X = _H1_SHAPES[args.shape](args)
        classes = h1_basis(X)
    write_complex(X, out)
    suffix = [".cocycle"] + [f".cocycle{i}" for i in range(2, len(classes) + 1)]
    for c, sfx in zip(classes, suffix):
        write_cochain(c, str(out) + sfx)
    names = [str(out)] + [str(out) + s for s in suffix[: len(classes)]]
    _emit(args, "\n".join(names), {"written": names})
    return 0


def _cmd_systole(args) -> int:
    """``systole`` and ``lnorm``: the same number (``loop_norm`` is the cover
    systole), reported under the subcommand's JSON key."""
    X = read_complex(args.complex)
    ring, fiber = _parse_fiber(args.fiber)
    xi = read_cochain(args.cocycle, X, ring)
    value = cover_systole(build_cover(X, xi, fiber))
    _emit(args, _fmt(value), {args.key: _fmt(value)})
    return 0


def _cmd_radius(args) -> int:
    ring, fiber = _parse_fiber(args.fiber)
    X = read_complex(args.complex)
    if not args.cocycle:
        raise _UsageError("at least one --cocycle file is required")
    if args.which == "homotopy":
        if len(args.cocycle) != 1:
            raise _UsageError("homotopy radius takes exactly one --cocycle")
        xi = read_cochain(args.cocycle[0], X, ring)
        value = homotopy_triviality_radius(build_cover(X, xi, fiber))
    else:
        if fiber != 2:
            raise _UsageError(f"the homology radius is over Z2; bad fiber {args.fiber!r}")
        classes = [read_cochain(p, X, RING_Z2) for p in args.cocycle]
        value = homology_triviality_radius(X, classes)
    _emit(args, _fmt(value), {"radius": _fmt(value), "kind": args.which})
    return 0


def _cmd_cup(args) -> int:
    X = read_complex(args.complex)
    classes = [read_cochain(p, X, RING_Z2) for p in args.classes]
    nonzero = class_is_nonzero(cup_power(classes, X))
    _emit(args, "nonzero" if nonzero else "zero", {"cup_nonzero": nonzero})
    return 0


def _cmd_essential(args) -> int:
    X = read_complex(args.complex)
    cover = None
    if args.cover:
        xi = read_cochain(args.cover, X, RING_Z2)
        cover = build_cover(X, xi, 2)
    mode = "heuristic" if args.heuristic else "exhaustive"
    verdict = combinatorial_essentiality(
        X, args.n, cover=cover, mode=mode, budget_ms=args.budget, seed=args.seed)
    blocks = None
    if verdict.witness is not None:
        blocks = [sorted(b) for b in verdict.witness.blocks]
    plain = verdict.status
    if blocks is not None:
        plain += "\n" + json.dumps(blocks)
    _emit(args, plain, {"status": verdict.status, "method": verdict.method,
                        "witness": blocks})
    return 0


def _cmd_subdivide(args) -> int:
    X = read_complex(args.complex)
    write_complex(barycentric_subdivision(X), args.output)
    _emit(args, args.output, {"written": [args.output]})
    return 0


# Each ``bounds`` table has one evaluator returning (plain text, JSON payload).

def _ball_table(args, table, **params):
    if args.csv:
        lines = ["n,i,value"]
        for n_row in range(table.min_n, table.min_n + len(table.rows)):
            for i, v in enumerate(table.row(n_row)):
                lines.append(f"{n_row},{i},{v}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
    value = table.value(args.n, args.i)
    return _fmt(value), {"n": args.n, "i": args.i, **params, "value": value}


def _bound_b(args):
    return _ball_table(args, bounds_mod.essential_ball_bounds(args.n, args.i, args.r),
                       r=args.r)


def _bound_breve(args):
    return _ball_table(args, bounds_mod.cup_ball_bounds(args.n, args.i))


def _bound_thm12(args):
    chain = [_fmt(v) for v in bounds_mod.essential_vertex_bound_chain(args.n, args.sys)]
    return chain[0], {"n": args.n, "sys": args.sys, "value": chain[0], "chain": chain}


def _bound_thm16(args):
    value = _fmt(bounds_mod.cup_vertex_lower_bound(args.n, args.sys))
    return value, {"n": args.n, "sys": args.sys, "value": value}


def _bound_fvec(args):
    fb = bounds_mod.fvector_lower_bounds(args.n, args.s)
    return (f"f0>={fb.f0} f{args.n - 1}>={fb.f_codim1}",
            {"n": args.n, "s": args.s, "f0": fb.f0, "f_codim1": fb.f_codim1,
             "fk": {str(k): v for k, v in fb.fk.items()}})


def _bound_vn(args):
    value = str(bounds_mod.ball_volume_lower_bound(_fraction(args.r), _fraction_list(args.L)))
    return value, {"value": value}


def _bound_lemma41(args):
    grid = _fraction_list(args.grid) if args.grid else ()
    ok = bounds_mod.volume_recursion_check(_fraction_list(args.L), grid)
    return "ok" if ok else "violated", {"ok": ok}


def _cmd_bounds(args) -> int:
    plain, payload = args.evaluate(args)
    _emit(args, plain, {"kind": args.table, **payload})
    return 0 if payload.get("ok", True) else 2


def _cmd_verify_all(args) -> int:
    report = verify_grid(args.n_max, args.s_max, seed=args.seed)
    if args.csv:
        Path(args.csv).write_text(report.to_csv_text())
    if args.json:
        print(report.to_json_text(), end="")
    else:
        print(report.to_csv_text(), end="")
        print(f"# seed={report.seed} rows={len(report.rows)} "
              f"failed={len(report.failed_rows())}")
    return 0 if report.all_passed else 2


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="systola",
                     description="Edge-path systoles, Z2 cup products and "
                                 "covering complexes for simplicial complexes.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit structured JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a complex (and its cocycles)")
    gsub = g.add_subparsers(dest="shape", required=True)
    grp = gsub.add_parser("rp", parents=[common],
                          help="projective-space quotient with systole s")
    grp.add_argument("--dim", type=int, required=True)
    grp.add_argument("--systole", type=int, required=True)
    grp.add_argument("--sphere", action="store_true",
                     help="write the double-cover sphere instead of the quotient")
    gsub.add_parser("polygon", parents=[common]).add_argument("--m", type=int, required=True)
    gsub.add_parser("complete", parents=[common]).add_argument("--k", type=int, required=True)
    for name in ("rp2-six", "torus7"):
        gsub.add_parser(name, parents=[common])
    for sp in gsub.choices.values():
        sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(func=_cmd_gen)

    for name, key, text in (("systole", "systole", "cover-relative systole from a cocycle"),
                            ("lnorm", "loop_norm", "shortest loop with nontrivial evaluation")):
        s = sub.add_parser(name, parents=[common], help=text)
        s.add_argument("complex")
        s.add_argument("--cocycle", required=True)
        s.add_argument("--fiber", default="z2", help="z2 (double) or zN (cyclic)")
        s.set_defaults(func=_cmd_systole, key=key)

    r = sub.add_parser("radius", parents=[common], help="triviality radii")
    r.add_argument("which", choices=("homotopy", "homology"))
    r.add_argument("complex")
    r.add_argument("--cocycle", action="append", default=[])
    r.add_argument("--fiber", default="z2")
    r.set_defaults(func=_cmd_radius)

    c = sub.add_parser("cup", parents=[common], help="is the cup product of the classes nonzero?")
    c.add_argument("complex")
    c.add_argument("--classes", nargs="+", required=True)
    c.set_defaults(func=_cmd_cup)

    e = sub.add_parser("essential", parents=[common], help="combinatorial n-essentiality")
    e.add_argument("complex")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--cover", help="cocycle file defining the test cover")
    mode = e.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--heuristic", action="store_true")
    e.add_argument("--budget", type=int, default=1000, help="heuristic budget, ms")
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_cmd_essential)

    sd = sub.add_parser("subdivide", parents=[common], help="barycentric subdivision")
    sd.add_argument("complex")
    sd.add_argument("-o", "--output", required=True)
    sd.set_defaults(func=_cmd_subdivide)

    b = sub.add_parser("bounds", help="exact bound evaluators")
    bsub = b.add_subparsers(dest="table", required=True)
    for name, evaluate, flags in (("b", _bound_b, ("--n", "--i", "--r")),
                                  ("breve", _bound_breve, ("--n", "--i")),
                                  ("thm12", _bound_thm12, ("--n", "--sys")),
                                  ("thm16", _bound_thm16, ("--n", "--sys")),
                                  ("fvec", _bound_fvec, ("--n", "--s")),
                                  ("vn", _bound_vn, ()),
                                  ("lemma41", _bound_lemma41, ())):
        tp = bsub.add_parser(name, parents=[common])
        for flag in flags:
            tp.add_argument(flag, type=int, required=True)
        tp.set_defaults(func=_cmd_bounds, evaluate=evaluate)
    for name in ("b", "breve"):
        bsub.choices[name].add_argument("--csv", help="dump the whole table as CSV")
    bsub.choices["vn"].add_argument("--r", required=True)
    bsub.choices["vn"].add_argument("--L", required=True, help="comma-separated rationals")
    bsub.choices["lemma41"].add_argument("--L", required=True)
    bsub.choices["lemma41"].add_argument("--grid", default="")

    va = sub.add_parser("verify-all", parents=[common],
                        help="generate and check the whole grid")
    va.add_argument("--n-max", type=int, default=4)
    va.add_argument("--s-max", type=int, default=8)
    va.add_argument("--csv", help="also write the report CSV here")
    va.add_argument("--seed", type=int, default=0)
    va.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SystolaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

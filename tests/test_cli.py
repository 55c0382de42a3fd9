import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import systola as sy
from systola.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Every subcommand, plain and --json, with the refusals its handler owns:
# (command, exit code, stdout, stderr), run in a directory holding the inputs.
TRANSCRIPT = [
    ("gen rp --dim 2 --systole 4 -o rp24.cx", 0, "rp24.cx\nrp24.cx.cocycle\n", ""),
    ("gen rp --dim 2 --systole 4 -o rp24j.cx --json", 0,
     '{"written": ["rp24j.cx", "rp24j.cx.cocycle"]}\n', ""),
    ("gen rp --dim 2 --systole 3 --sphere -o s23.cx", 0, "s23.cx\n", ""),
    ("gen polygon --m 5 -o c5j.cx --json", 0, '{"written": ["c5j.cx", "c5j.cx.cocycle"]}\n', ""),
    ("gen complete --k 7 -o k7g.cx", 0, "k7g.cx\n", ""),
    ("gen complete --k 4 -o k4j.cx --json", 0, '{"written": ["k4j.cx"]}\n', ""),
    ("gen rp2-six -o rp2j.cx --json", 0, '{"written": ["rp2j.cx", "rp2j.cx.cocycle"]}\n', ""),
    ("gen torus7 -o t7g.cx", 0, "t7g.cx\nt7g.cx.cocycle\nt7g.cx.cocycle2\n", ""),
    ("gen", 1, "", "usage error: the following arguments are required: shape\n"),
    ("systole rp2.cx --cocycle rp2.cx.cocycle", 0, "3\n", ""),
    ("systole rp2.cx --cocycle rp2.cx.cocycle --json", 0, '{"systole": "3"}\n', ""),
    ("lnorm rp2.cx --cocycle rp2.cx.cocycle", 0, "3\n", ""),
    ("lnorm rp2.cx --cocycle rp2.cx.cocycle --json", 0, '{"loop_norm": "3"}\n', ""),
    ("systole c8.cx --cocycle c8.cx.cocycle --fiber Z2", 0, "8\n", ""),
    ("systole c8.cx --cocycle c8.cx.cocycle --fiber z02", 0, "8\n", ""),
    ("systole c8.cx --cocycle c8.cx.cocycle --fiber z3", 0, "8\n", ""),
    ("systole c8.cx --cocycle c8.cx.cocycle --fiber z1", 1, "",
     "usage error: bad fiber 'z1'; expected z2 or zN\n"),
    ("systole missing.cx --cocycle c8.cx.cocycle", 1, "",
     "error: [Errno 2] No such file or directory: 'missing.cx'\n"),
    ("radius homotopy c8.cx --cocycle c8.cx.cocycle", 0, "3\n", ""),
    ("radius homotopy c8.cx --cocycle c8.cx.cocycle --json", 0,
     '{"kind": "homotopy", "radius": "3"}\n', ""),
    ("radius homology c8.cx --cocycle c8.cx.cocycle", 0, "3\n", ""),
    ("radius homology c8.cx --cocycle c8.cx.cocycle --json", 0,
     '{"kind": "homology", "radius": "3"}\n', ""),
    ("radius homology t7.cx --cocycle t7.cx.cocycle --cocycle t7.cx.cocycle2", 0, "0\n", ""),
    ("radius homotopy t7.cx --cocycle t7.cx.cocycle --cocycle t7.cx.cocycle2", 1, "",
     "usage error: homotopy radius takes exactly one --cocycle\n"),
    ("radius homotopy c8.cx", 1, "", "usage error: at least one --cocycle file is required\n"),
    ("radius homology c8.cx --cocycle c8.cx.cocycle --fiber z5", 1, "",
     "usage error: the homology radius is over Z2; bad fiber 'z5'\n"),
    ("cup t7.cx --classes t7.cx.cocycle t7.cx.cocycle2", 0, "nonzero\n", ""),
    ("cup t7.cx --classes t7.cx.cocycle t7.cx.cocycle --json", 0, '{"cup_nonzero": false}\n', ""),
    ("cup rp2.cx --classes rp2.cx.cocycle rp2.cx.cocycle rp2.cx.cocycle", 1, "",
     "error: product of degree 3 exceeds complex dimension 2\n"),
    ("essential k7.cx --n 3 --exhaustive", 0, "essential\n", ""),
    ("essential k7.cx --n 4 --json", 0, '{"method": "exhaustive", "status": "not-essential", '
     '"witness": [[1, 2], [3, 4], [5, 6], [7]]}\n', ""),
    ("essential k7.cx --n 4 --heuristic --seed 1", 0,
     "not-essential\n[[1, 5], [2, 4], [3], [6, 7]]\n", ""),
    ("essential k7.cx --n 4 --exhaustive --heuristic", 1, "",
     "usage error: argument --heuristic: not allowed with argument --exhaustive\n"),
    ("essential rp2.cx --n 2 --cover rp2.cx.cocycle", 0, "essential\n", ""),
    ("essential rp2.cx --n 3 --cover rp2.cx.cocycle --json", 0,
     '{"method": "exhaustive", "status": "not-essential", '
     '"witness": [[1, 2, 3], [4, 5], [6]]}\n', ""),
    ("subdivide rp2.cx -o sd.cx", 0, "sd.cx\n", ""),
    ("subdivide rp2.cx -o sdj.cx --json", 0, '{"written": ["sdj.cx"]}\n', ""),
    ("bounds b --n 3 --i 2 --r 5", 0, "14\n", ""),
    ("bounds b --n 3 --i 2 --r 5 --json", 0,
     '{"i": 2, "kind": "b", "n": 3, "r": 5, "value": 14}\n', ""),
    ("bounds b --n 3 --i 9 --r 5", 1, "", "error: entries beyond i = r+1 = 6 are undefined\n"),
    ("bounds breve --n 2 --i 2", 0, "13\n", ""),
    ("bounds breve --n 2 --i 2 --json --csv br.csv", 0,
     '{"i": 2, "kind": "breve", "n": 2, "value": 13}\n', ""),
    ("bounds thm12 --n 2 --sys 3", 0, "4\n", ""),
    ("bounds thm12 --n 2 --sys 3 --json", 0,
     '{"chain": ["4", "3", "2"], "kind": "thm12", "n": 2, "sys": 3, "value": "4"}\n', ""),
    ("bounds thm16 --n 2 --sys 6", 0, "12\n", ""),
    ("bounds thm16 --n 2 --sys 6 --json", 0,
     '{"kind": "thm16", "n": 2, "sys": 6, "value": "12"}\n', ""),
    ("bounds fvec --n 3 --s 4", 0, "f0>=0 f2>=8\n", ""),
    ("bounds fvec --n 3 --s 4 --json", 0, '{"f0": 0, "f_codim1": 8, '
     '"fk": {"1": 0, "2": -4, "3": -8}, "kind": "fvec", "n": 3, "s": 4}\n', ""),
    ("bounds vn --r 2 --L 2,4", 0, "4\n", ""),
    ("bounds vn --r 2 --L 2,4 --json", 0, '{"kind": "vn", "value": "4"}\n', ""),
    ("bounds vn --r x --L 2,4", 1, "", "usage error: bad rational 'x'\n"),
    ("bounds lemma41 --L 2,4 --grid 1/2,7/3", 0, "ok\n", ""),
    ("bounds lemma41 --L 2,4 --json", 0, '{"kind": "lemma41", "ok": true}\n', ""),
    ("bounds lemma41 --L 4,2", 1, "", "error: lengths must be nondecreasing\n"),
    ("bounds", 1, "", "usage error: the following arguments are required: table\n"),
    ("verify-all --n-max 1 --s-max 3", 0,
     "format_version,seed,n,s,vertices,vertex_budget,cover_systole,homotopy_radius,"
     "homology_radius,essential_bound,cup_bound,cup_essential,ok_vertex_budget,ok_systole,"
     "ok_radius_identity,ok_essential_bound,ok_cup_bound,ok_all\n"
     "1,0,1,3,3,3,3,0,0,3,2,1,1,1,1,1,1,1\n# seed=0 rows=1 failed=0\n", ""),
    ("verify-all --n-max 1 --s-max 3 --json", 0,
     '{\n  "all_passed": true,\n  "format_version": 1,\n  "rows": [\n    {\n'
     '      "cover_systole": 3,\n      "cup_bound": 2,\n      "cup_essential": true,\n'
     '      "essential_bound": 3,\n      "homology_radius": 0,\n      "homotopy_radius": 0,\n'
     '      "n": 1,\n      "ok_all": true,\n      "ok_cup_bound": true,\n'
     '      "ok_essential_bound": true,\n      "ok_radius_identity": true,\n'
     '      "ok_systole": true,\n      "ok_vertex_budget": true,\n      "s": 3,\n'
     '      "vertex_budget": 3,\n      "vertices": 3\n    }\n  ],\n  "seed": 0\n}\n', ""),
    ("verify-all --n-max 1 --s-max 3 --threads 2", 1, "",
     "usage error: unrecognized arguments: --threads 2\n"),
]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    for name, X in (("rp2", sy.gen_named("rp2-six")), ("c8", sy.gen_polygon(8)),
                    ("t7", sy.gen_named("torus-seven")), ("k7", sy.gen_named("complete-7"))):
        sy.write_complex(X, d / f"{name}.cx")
        if name != "k7":
            for i, c in enumerate(sy.h1_basis(X), 1):
                sy.write_cochain(c, d / f"{name}.cx.cocycle{i if i > 1 else ''}")
    return d


@pytest.mark.parametrize("command, code, stdout, stderr", TRANSCRIPT,
                         ids=[case[0] for case in TRANSCRIPT])
def test_cli_transcript(cli_dir, monkeypatch, capsys, command, code, stdout, stderr):
    monkeypatch.chdir(cli_dir)
    assert run(capsys, *command.split()) == (code, stdout, stderr)


def test_gen_and_systole_pipeline(tmp_path, capsys):
    out = tmp_path / "rp2.cx"
    code, stdout, _ = run(capsys, "gen", "rp2-six", "-o", str(out))
    assert code == 0
    assert stdout.splitlines() == [str(out), str(out) + ".cocycle"]
    code, stdout, _ = run(capsys, "systole", str(out), "--cocycle",
                          str(out) + ".cocycle")
    assert code == 0 and stdout.strip() == "3"
    code, stdout, _ = run(capsys, "lnorm", str(out), "--cocycle",
                          str(out) + ".cocycle")
    assert code == 0 and stdout.strip() == "3"
    for command, key in (("systole", "systole"), ("lnorm", "loop_norm")):
        code, stdout, _ = run(capsys, command, str(out), "--cocycle",
                              str(out) + ".cocycle", "--json")
        assert code == 0 and stdout == '{"%s": "3"}\n' % key


def test_gen_round_trip_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.cx", tmp_path / "b.cx"
    assert run(capsys, "gen", "rp", "--dim", "2", "--systole", "4", "-o", str(a))[0] == 0
    sy.write_complex(sy.read_complex(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_gen_sphere_flag(tmp_path, capsys):
    q, s = tmp_path / "q.cx", tmp_path / "s.cx"
    run(capsys, "gen", "rp", "--dim", "2", "--systole", "3", "-o", str(q))
    run(capsys, "gen", "rp", "--dim", "2", "--systole", "3", "--sphere", "-o", str(s))
    assert sy.read_complex(q).num_vertices * 2 == sy.read_complex(s).num_vertices


def test_radius_commands(tmp_path, capsys):
    out = tmp_path / "q.cx"
    run(capsys, "gen", "rp", "--dim", "1", "--systole", "8", "-o", str(out))
    cocycle = str(out) + ".cocycle"
    code, stdout, _ = run(capsys, "radius", "homotopy", str(out), "--cocycle", cocycle)
    assert code == 0 and stdout.strip() == "3"
    code, stdout, _ = run(capsys, "radius", "homology", str(out), "--cocycle", cocycle)
    assert code == 0 and stdout.strip() == "3"


def test_cyclic_fiber_flag(tmp_path, capsys):
    out = tmp_path / "c.cx"
    sy.write_complex(sy.gen_polygon(5), out)
    xi = sy.Cochain1(sy.read_complex(out), {(0, 1): 1}, sy.RING_Z)
    sy.write_cochain(xi, str(out) + ".cocycle")
    code, stdout, _ = run(capsys, "systole", str(out), "--cocycle",
                          str(out) + ".cocycle", "--fiber", "z3")
    assert code == 0 and stdout.strip() == "5"


def test_cup_command(tmp_path, capsys):
    out = tmp_path / "t7.cx"
    run(capsys, "gen", "torus7", "-o", str(out))
    c1, c2 = str(out) + ".cocycle", str(out) + ".cocycle2"
    code, stdout, _ = run(capsys, "cup", str(out), "--classes", c1, c2)
    assert code == 0 and stdout.strip() == "nonzero"
    code, stdout, _ = run(capsys, "cup", str(out), "--classes", c1, c1)
    assert code == 0 and stdout.strip() == "zero"


def test_essential_command(tmp_path, capsys):
    out = tmp_path / "k7.cx"
    run(capsys, "gen", "complete", "--k", "7", "-o", str(out))
    code, stdout, _ = run(capsys, "essential", str(out), "--n", "3", "--exhaustive")
    assert code == 0 and stdout.strip() == "essential"
    code, stdout, _ = run(capsys, "essential", str(out), "--n", "4", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "not-essential"
    assert sum(len(b) for b in doc["witness"]) == 7


def test_essential_budget_below_one_ms_exits_1(tmp_path, capsys):
    out = tmp_path / "k7.cx"
    run(capsys, "gen", "complete", "--k", "7", "-o", str(out))
    for budget in ("0", "-1"):
        code, stdout, err = run(capsys, "essential", str(out), "--n", "4",
                                "--heuristic", "--budget", budget)
        assert code == 1 and stdout == "" and err.startswith("error:") and "budget" in err


def test_subdivide_command(tmp_path, capsys):
    src, dst = tmp_path / "t.cx", tmp_path / "sd.cx"
    sy.write_complex(sy.build_complex([[1, 2, 3]]), src)
    code, _, _ = run(capsys, "subdivide", str(src), "-o", str(dst))
    assert code == 0
    assert sy.f_vector(sy.read_complex(dst)).counts == (7, 12, 6)


def test_bounds_commands(capsys, tmp_path):
    assert run(capsys, "bounds", "b", "--n", "3", "--i", "2", "--r", "5")[1].strip() == "14"
    assert run(capsys, "bounds", "breve", "--n", "2", "--i", "2")[1].strip() == "13"
    assert run(capsys, "bounds", "thm12", "--n", "2", "--sys", "3")[1].strip() == "4"
    assert run(capsys, "bounds", "thm16", "--n", "2", "--sys", "6")[1].strip() == "12"
    assert run(capsys, "bounds", "vn", "--r", "2", "--L", "2,4")[1].strip() == "4"
    code, stdout, _ = run(capsys, "bounds", "lemma41", "--L", "2,4", "--grid", "1/2,7/3")
    assert code == 0 and stdout.strip() == "ok"
    csv_path = tmp_path / "b.csv"
    run(capsys, "bounds", "b", "--n", "2", "--i", "3", "--r", "2", "--csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,i,value"
    assert "2,3,15" in lines


def test_bounds_json_chain(capsys):
    code, stdout, _ = run(capsys, "bounds", "thm12", "--n", "2", "--sys", "3", "--json")
    doc = json.loads(stdout)
    assert doc["chain"] == ["4", "3", "2"]


def test_verify_all_small_grid_matches_golden(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify-all", "--n-max", "2", "--s-max", "3",
                     "--csv", str(csv_path))
    assert code == 0
    assert csv_path.read_text() == (GOLDEN / "verify_n2_s3.csv").read_text()


def test_verify_all_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "verify-all", "--n-max", "2", "--s-max", "3", "--csv", str(a))
    run(capsys, "verify-all", "--n-max", "2", "--s-max", "3", "--csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_reports_known_bound_gap(capsys):
    # the n=1, s=4 cell trips the essential-bound check: the 4-cycle has 4
    # vertices, one below the displayed closed form (see C3 in
    # test_acceptance.py and the docstring of essential_vertex_lower_bound)
    code, stdout, _ = run(capsys, "verify-all", "--n-max", "1", "--s-max", "4",
                          "--json")
    assert code == 2
    doc = json.loads(stdout)
    bad = [r for r in doc["rows"] if not r["ok_all"]]
    assert [(r["n"], r["s"]) for r in bad] == [(1, 4)]
    assert bad[0]["ok_essential_bound"] is False
    assert bad[0]["ok_systole"] is True


def test_verify_all_json_mode(capsys):
    code, stdout, _ = run(capsys, "verify-all", "--n-max", "1", "--s-max", "3",
                          "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["format_version"] == 1
    assert doc["seed"] == 0
    assert doc["rows"][0]["vertices"] == 3


def test_usage_and_error_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "bounds", "b", "--n", "3", "--i", "9", "--r", "5")
    assert code == 1 and "undefined" in err
    code, _, err = run(capsys, "systole", str(tmp_path / "missing.cx"),
                       "--cocycle", "also-missing")
    assert code == 1
    code, _, err = run(capsys, "gen", "rp", "--dim", "0", "--systole", "3",
                       "-o", str(tmp_path / "x.cx"))
    assert code == 1
    out = tmp_path / "rp2.cx"
    run(capsys, "gen", "rp2-six", "-o", str(out))
    for fiber in ("q9", "z\u00b2"):
        code, _, err = run(capsys, "systole", str(out),
                           "--cocycle", str(out) + ".cocycle", "--fiber", fiber)
        assert code == 1 and "fiber" in err
    # the homology radius is over Z2 only, so any other fiber is refused
    run(capsys, "gen", "polygon", "--m", "8", "-o", str(tmp_path / "c8.cx"))
    for fiber in ("q9", "z5"):
        code, out_text, err = run(capsys, "radius", "homology", str(tmp_path / "c8.cx"),
                                  "--cocycle", str(tmp_path / "c8.cx.cocycle"),
                                  "--fiber", fiber)
        assert code == 1 and out_text == "" and "fiber" in err
    code, out_text, err = run(capsys, "verify-all", "--n-max", "1", "--s-max", "3",
                              "--threads", "2")
    assert code == 1 and out_text == "" and err.startswith("usage error: ")
    code, _, err = run(capsys, "systole", str(tmp_path), "--cocycle", str(out) + ".cocycle")
    assert code == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "systole c8.cx --cocycle c8.cx.cocycle --fiber z100000000000",
    "systole c8.cx --cocycle c8.cx.cocycle --fiber z100000000000000000000000",
    "radius homotopy c8.cx --cocycle c8.cx.cocycle --fiber z100000000000",
    "cup tri.cx --classes tri.c",
    "cup tri.cx --classes tri.c --json",
])
def test_refusals_exit_1_without_a_traceback(cli_dir, monkeypatch, capsys, argv):
    # a huge cyclic fiber, and a non-cocycle on the filled triangle
    monkeypatch.chdir(cli_dir)
    tri = sy.build_complex([[0, 1, 2]])
    sy.write_complex(tri, "tri.cx")
    sy.write_cochain(sy.Cochain1(tri, {(0, 1): 1}), "tri.c")
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_essential_with_n_above_the_vertex_count(cli_dir, monkeypatch, capsys):
    monkeypatch.chdir(cli_dir)
    code, out, err = run(capsys, "essential", "k7.cx", "--n", "100000000000", "--heuristic",
                         "--seed", "1")
    assert (code, err) == (0, "") and out.startswith("not-essential\n")


def test_gen_refuses_an_oversized_quotient(tmp_path, capsys):
    out = tmp_path / "big.cx"
    code, _, err = run(capsys, "gen", "rp", "--dim", "9", "--systole", "3", "-o", str(out))
    assert code == 1 and "facets" in err and not out.exists()


@pytest.mark.parametrize("complex_text, cochain_text", [
    ('{"facets": [[0, 1], [0, 2], [1, 2]', None),
    ('{"facets": [[1, "a"]]}', None),
    (None, '{"edges": [[0, 1], [0, 2], [1, 2]], "values": ["x", 0, 0]}'),
    (None, '{"edges": [[0, 1], [0, 2], [1, 2]], "values": [1.7, 0, 0]}'),
    (None, '{"edges": [[0, 1], [0, 2], [1, 2]], "values": [true, 0, 0]}'),
    (None, '{"edges": [[0, 1], [0, 2], [1, 2]], "values": [2, 0, 0]}'),
    (None, '{"edges": [[0, 1], [1, 2]], "values": [1, 0]}'),
    (None, '{"edges": [[0, 1], [0, 2], [1, 2]'),
    (b'{"facets": [[0, 1], [0, 2], [1, 2]]}\xff', None),
    (None, b'{"edges": [[0, 1], [0, 2], [1, 2]], "values": [0, 0, 0]}\xff'),
])
def test_malformed_inputs_exit_1(tmp_path, capsys, complex_text, cochain_text):
    # on a 3-cycle every cochain is a cocycle, so only the loader can refuse
    cx, xi = tmp_path / "t.cx", tmp_path / "t.cocycle"
    for path, data in ((cx, complex_text or '{"facets": [[0, 1], [0, 2], [1, 2]]}'),
                       (xi, cochain_text
                        or '{"edges": [[0, 1], [0, 2], [1, 2]], "values": [0, 0, 0]}')):
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    code, out, err = run(capsys, "systole", str(cx), "--cocycle", str(xi))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_python_m_systola_runs_the_cli():
    src = str(Path(sy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "systola", "bounds", "thm12", "--n", "2", "--sys", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "4\n", "")


def test_no_systola_import_loads_scipy():
    # every module, a small grid and the CLI's help run on numpy alone
    src = str(Path(sy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "\n".join((
        "import contextlib, importlib, io, pkgutil, sys",
        "import systola as sy",
        "for m in pkgutil.iter_modules(sy.__path__):",
        "    importlib.import_module('systola.' + m.name)",
        "sy.verify_grid(2, 4)",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):",
        "    sy.cli.main(['--help'])",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

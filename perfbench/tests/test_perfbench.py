"""Tests of the benchmark itself: workloads at tiny size, the tracer, the
checks and the metric declarations.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from metrics import END_TO_END, PER_LAYER, TARGETS
from tracer import NullTracer, TraceTarget, Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# -- workloads at tiny size ------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_tiny_and_checks_pass(name, trace):
    result, meta = run.run_workload(workloads.WORKLOADS[name], seed=7, seconds=0,
                                    trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 5
    names = [n for n, _ in END_TO_END] if not trace else [n for n, _, _ in PER_LAYER]
    assert sorted(result["metrics"]) == sorted(names)
    assert meta["inputs"] and meta["nproc"] >= 1


def test_tiny_grid_is_the_2_5_grid():
    sy = run.fresh_import()
    grid = workloads.WORKLOADS["grid"]
    inputs = grid.setup(sy, 3, tiny=True)
    text = grid.run_pass(sy, inputs, NullTracer())
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [(r["n"], r["s"], r["seed"]) for r in rows][-1] == ("2", "5", "3")
    assert all(grid.check(inputs, text))


def test_same_seed_repeats_exact_counts():
    """Block tests per search, dijkstra sources, connected-components calls
    and GF(2) vector counts repeat exactly."""
    counted = [name for name, unit, _ in PER_LAYER if unit == "count"]
    seen = []
    for _ in range(2):
        per_workload = {}
        for name, w in workloads.WORKLOADS.items():
            sy = run.fresh_import()
            inputs = w.setup(sy, 11, tiny=True)
            with Tracer(TARGETS) as tracer:
                out = w.run_pass(sy, inputs, tracer)
            summary = tracer.summary()
            per_workload[name] = {m: summary.get(m.rpartition(".")[0], {})
                                  .get(m.rpartition(".")[2], 0) for m in counted}
            if hasattr(w, "trace_metrics"):
                per_workload[name]["per_search"] = w.trace_metrics(tracer, inputs, out)[1]
        seen.append(per_workload)
    assert seen[0] == seen[1]
    assert seen[0]["grid"]["covers.csgraph.dijkstra.sources"] > 0
    assert seen[0]["grid"]["covers.csgraph.connected_components.calls"] > 0
    assert seen[0]["cohomology"]["gf2.in_span.vectors"] > 0
    assert sum(seen[0]["essential"]["per_search"]) > 0


# -- checks catch wrong answers --------------------------------------------

def test_unsound_block_test_fails_the_oracle(monkeypatch):
    sy = run.fresh_import()
    monkeypatch.setattr(sy.essential, "is_pi_inessential", lambda cover, block: True)
    w = workloads.WORKLOADS["essential"]
    inputs = w.setup(sy, 0, tiny=True)
    assert not all(w.check(inputs, w.run_pass(sy, inputs, NullTracer())))


def test_wrong_grid_row_is_caught():
    sy = run.fresh_import()
    grid = workloads.WORKLOADS["grid"]
    inputs = grid.setup(sy, 0, tiny=True)
    text = grid.run_pass(sy, inputs, NullTracer())
    bad = text.replace("\n1,0,2,4,13,16,4,1,1,", "\n1,0,2,4,13,16,5,1,1,")
    assert bad != text
    assert all(grid.check(inputs, text)) and not all(grid.check(inputs, bad))


# -- expected files agree with the golden CSV and with theory --------------

def test_expected_grid_matches_golden_and_invariants():
    golden = ROOT / "tests" / "golden" / "verify_n2_s3.csv"
    if not golden.is_file():
        pytest.skip("golden CSVs are not in this checkout")
    assert "\n".join(workloads.expected_grid_lines(2, 3, 0)) + "\n" == golden.read_text()
    text = (BENCH / "expected" / "verify_n4_s8.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 24
    assert all(workloads.grid_row_invariants(r) for r in rows)
    red = {(int(r["n"]), int(r["s"])) for r in rows if r["ok_all"] == "0"}
    assert red == {(1, 4), (1, 6), (1, 8)}


def test_expected_verdicts_follow_theory():
    verdicts = json.loads((BENCH / "expected" / "essential.json").read_text())
    for name, status in verdicts.items():
        family, _, rest = name.partition(".n")
        n = int(rest.split(".")[0]) if not family.startswith("torus") else None
        essential = status == "essential"
        if family.startswith("complete-"):
            assert essential == (int(family.split("-")[1]) > 2 * n), name
        elif family.startswith("polygon-"):
            assert essential == (n == 1), name
        elif family in ("rp2-six", "rp-2-4"):
            assert essential == (n <= 2), name
        elif family.startswith("rp-3-"):
            assert status == "not-essential", name
    cohomology = json.loads((BENCH / "expected" / "cohomology.json").read_text())
    assert all(v == {"h1_rank": 1, "cup_nonzero": True} for v in cohomology.values())


# -- tracer ----------------------------------------------------------------

def _bindings(sy):
    return {
        "systola.covers.cover_systole": (sy.covers, "cover_systole"),
        "systola.verify.cover_systole": (sy.verify, "cover_systole"),
        "systola.cover_systole": (sy, "cover_systole"),
        "systola.covers.dijkstra": (sy.covers, "dijkstra"),
        "systola.essential.is_pi_inessential": (sy.essential, "is_pi_inessential"),
        "systola.gf2.in_span": (sy.gf2, "in_span"),
        "SimplicialComplex.faces": (sy.complexes.SimplicialComplex, "faces"),
    }


def test_tracer_wraps_every_binding_and_restores_on_exception():
    sy = run.fresh_import()
    before = {k: vars(ns)[a] for k, (ns, a) in _bindings(sy).items()}
    with pytest.raises(RuntimeError):
        with Tracer(TARGETS):
            during = {k: vars(ns)[a] for k, (ns, a) in _bindings(sy).items()}
            raise RuntimeError("boom")
    assert all(during[k] is not before[k] for k in before)
    assert {k: vars(ns)[a] for k, (ns, a) in _bindings(sy).items()} == before


def test_tracer_missing_name_fails_before_patching():
    sy = run.fresh_import()
    before = {k: vars(ns)[a] for k, (ns, a) in _bindings(sy).items()}
    targets = TARGETS + (TraceTarget("covers.nope", "systola.covers", "no_such_function"),)
    with pytest.raises(LookupError, match="no_such_function"):
        with Tracer(targets):
            pass
    with pytest.raises(LookupError, match="not imported"):
        with Tracer([TraceTarget("x", "systola.no_such_module", "f")]):
            pass
    assert {k: vars(ns)[a] for k, (ns, a) in _bindings(sy).items()} == before


def test_tracer_self_time_and_counts():
    sy = run.fresh_import()
    Q, xi = sy.quotient(sy.gen_symmetric_sphere(2, 4))
    with Tracer(TARGETS) as tracer:
        sy.homology_triviality_radius(Q, [xi])
    s = tracer.summary()
    outer = s["covers.homology_triviality_radius"]
    inner = s["covers.homotopy_triviality_radius"]["s"] + s["covers.build_cover"]["s"]
    assert outer["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner, abs=1e-6)
    assert s["covers.csgraph.connected_components"]["calls"] > 0


# -- declarations ------------------------------------------------------------

def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, unit, moves in PER_LAYER:
        assert NAME_RE.fullmatch(name) and len(name) <= 64 and moves
    for entry in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]:
        assert NAME_RE.fullmatch(entry["name"])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(n, u) for n, u, _ in PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""

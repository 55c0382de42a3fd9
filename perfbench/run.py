"""Run a systola benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

A run sets up ``SETUP_REPEATS`` times, each a fresh import of systola
plus input generation, and reports the median as ``setup_s``.  It warms
up with one pass at the tiny size, then repeats full passes until
``--seconds`` have elapsed and reports the fastest pass as ``wall_s`` and
the process's peak resident set as ``peak_rss_mb``.  The fastest pass,
not the median, because on a shared host other tenants slow this one
down for seconds at a time; contention only ever lengthens a pass, and
the median of a run follows how much of it such a spell covered.  All
pass times are kept in the line before the result.  With ``--trace 1``
the run alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (median over passes; counts are exact), plus
the tracing overhead.  Every output is checked; the counts of checks
made and failed go into the result.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the revision,
library versions, CPU count and input sizes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, TARGETS, layer_metrics
from tracer import NullTracer, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
UNITS = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}
COUNT_METRICS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def fresh_import():
    """Import systola anew, so that every setup pays for its import."""
    for name in [m for m in sys.modules if m == "systola" or m.startswith("systola.")]:
        del sys.modules[name]
    return importlib.import_module("systola")


def timed_pass(workload, sy, inputs, tracer):
    t0 = time.perf_counter()
    out = workload.run_pass(sy, inputs, tracer)
    return time.perf_counter() - t0, out


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Set up, warm up and measure one workload; return (result, meta).

    ``tiny`` measures the warm-up size instead of the full one.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sy = fresh_import()
        inputs = workload.setup(sy, seed, tiny)
        setups.append(time.perf_counter() - t0)

    warm = workload.setup(sy, seed, tiny=True)
    checks = workload.check(warm, workload.run_pass(sy, warm, NullTracer()))

    # Every pass must give the same outputs as the first, and every traced
    # pass the same counts; later outputs are compared and dropped at once,
    # so the number of passes does not show in peak_rss_mb.
    plain, traced, layers, first, first_counts = [], [], [], None, None
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        if trace and len(traced) < len(plain):
            with Tracer(TARGETS) as tracer:
                dt, out = timed_pass(workload, sy, inputs, tracer)
            traced.append(dt)
            values = layer_metrics(tracer.summary())
            per_search = []
            if hasattr(workload, "trace_metrics"):
                extra, per_search = workload.trace_metrics(tracer, inputs, out)
                values.update(extra)
            layers.append(values)
            counts = ([values[m] for m in COUNT_METRICS], per_search)
            if first_counts is None:
                first_counts = counts
            else:
                checks.append(counts == first_counts)
            del tracer
        else:
            dt, out = timed_pass(workload, sy, inputs, NullTracer())
            plain.append(dt)
        if first is None:
            first = out
        else:
            checks.append(out == first)
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks += workload.check(inputs, first)

    if trace:
        metrics = {name: statistics.median(v[name] for v in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = min(traced) - min(plain)
        for name, _, _ in PER_LAYER:
            metrics.setdefault(name, 0)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": min(plain),
                   "peak_rss_mb": peak_rss_mb}
    failed = checks.count(False)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    meta = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "untraced_passes": len(plain), "traced_passes": len(traced),
            "setup_runs": setups, "pass_times": plain, "traced_pass_times": traced,
            **environment(sy), "inputs": workload.sizes(sy, inputs)}
    return result, meta


def environment(sy) -> dict:
    import numpy
    import scipy
    return {"git_revision": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "systola": sy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary_line(name, result) -> str:
    m = result["metrics"]
    parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    frac = result["failed"] / result["attempted"]
    parts.append(f"failed_frac {frac:.4g} ({result['failed']}/{result['attempted']} checks)")
    return f"{name}: " + ", ".join(parts)


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(summary_line(name, result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "systola" / "__init__.py").is_file():
        print(f"error: no systola sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Single-threaded by design: pin native thread pools before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    result, meta = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    print(summary_line(args.workload, result))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

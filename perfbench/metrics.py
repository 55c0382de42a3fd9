"""Metric names, units, and the systola functions the traced run wraps.

Every per-layer metric says which end-to-end metric it should move and
on which workload; later changes cite these names.  ``BENCHMARK.json``
lists the same names (a test keeps the two in step).
"""

from __future__ import annotations

from tracer import TraceTarget

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _dijkstra_sources(args, kwargs):
    indices = kwargs.get("indices")
    return args[0].shape[0] if indices is None else len(indices)


def _first_len(args, kwargs):
    return len(args[0])


TARGETS = (
    TraceTarget("verify.measure_cell", "systola.verify", "measure_cell"),
    TraceTarget("bounds", "systola.bounds", "essential_vertex_lower_bound"),
    TraceTarget("bounds", "systola.bounds", "cup_vertex_lower_bound"),
    TraceTarget("generators.gen_symmetric_sphere", "systola.generators", "gen_symmetric_sphere"),
    TraceTarget("generators.quotient", "systola.generators", "quotient"),
    TraceTarget("covers.build_cover", "systola.covers", "build_cover"),
    TraceTarget("covers.cover_systole", "systola.covers", "cover_systole"),
    TraceTarget("covers.homotopy_triviality_radius", "systola.covers",
                "homotopy_triviality_radius"),
    TraceTarget("covers.homology_triviality_radius", "systola.covers",
                "homology_triviality_radius"),
    TraceTarget("covers.csgraph.dijkstra", "systola.covers", "dijkstra",
                _dijkstra_sources, "sources"),
    TraceTarget("covers.csgraph.connected_components", "systola.covers",
                "connected_components"),
    TraceTarget("covers.is_pi_inessential", "systola.covers", "is_pi_inessential"),
    TraceTarget("covers.ball", "systola.covers", "ball"),
    TraceTarget("essential.combinatorial_essentiality", "systola.essential",
                "combinatorial_essentiality"),
    TraceTarget("cochains.h1_basis", "systola.cochains", "h1_basis"),
    TraceTarget("cochains.cup_power", "systola.cochains", "cup_power"),
    TraceTarget("cochains.class_is_nonzero", "systola.cochains", "class_is_nonzero"),
    TraceTarget("cochains.restriction_is_zero", "systola.cochains", "restriction_is_zero"),
    TraceTarget("gf2.in_span", "systola.gf2", "in_span", _first_len, "vectors"),
    TraceTarget("gf2.kernel_basis", "systola.gf2", "kernel_basis", _first_len, "constraints"),
    TraceTarget("serialization.loads_complex", "systola.serialization", "loads_complex"),
    TraceTarget("serialization.loads_cochain", "systola.serialization", "loads_cochain"),
    TraceTarget("complexes.faces", "systola.complexes", "SimplicialComplex.faces"),
)

# (metric, unit, the end-to-end metric and workload it should move).
# "<span>.s" is inclusive seconds summed over one pass, "<span>.self_s"
# the same minus the time of child spans; counts are exact per pass.
PER_LAYER = (
    ("verify.measure_cell.s", "s", "grid wall_s"),
    ("verify.measure_cell.self_s", "s", "grid wall_s"),
    ("bounds.s", "s", "grid wall_s"),
    ("generators.gen_symmetric_sphere.s", "s", "grid wall_s (about 7%); cohomology setup_s"),
    ("generators.quotient.s", "s", "grid wall_s (about 7%); cohomology setup_s"),
    ("covers.build_cover.s", "s", "grid wall_s and peak_rss_mb"),
    ("covers.build_cover.calls", "count", "grid wall_s and peak_rss_mb (2 per cell today)"),
    ("covers.cover_systole.s", "s", "grid wall_s; no change on cohomology"),
    ("covers.homotopy_triviality_radius.s", "s", "grid wall_s; no change on cohomology"),
    ("covers.homology_triviality_radius.self_s", "s", "grid wall_s; no change on cohomology"),
    ("covers.csgraph.dijkstra.calls", "count", "grid wall_s"),
    ("covers.csgraph.dijkstra.sources", "count", "grid wall_s"),
    ("covers.csgraph.dijkstra.s", "s", "grid wall_s"),
    ("covers.csgraph.connected_components.calls", "count", "grid wall_s"),
    ("covers.csgraph.connected_components.s", "s", "grid wall_s"),
    ("covers.is_pi_inessential.calls", "count", "essential wall_s"),
    ("covers.is_pi_inessential.s", "s", "essential wall_s"),
    ("essential.combinatorial_essentiality.s", "s", "essential wall_s"),
    ("essential.combinatorial_essentiality.self_s", "s", "essential wall_s"),
    ("essential.heuristic.tests_per_witness", "tests/witness", "essential wall_s"),
    ("cochains.h1_basis.s", "s", "cohomology wall_s"),
    ("cochains.cup_power.s", "s", "cohomology wall_s"),
    ("cochains.class_is_nonzero.s", "s", "cohomology wall_s"),
    ("cochains.restriction_is_zero.s", "s", "cohomology wall_s"),
    ("covers.ball.s", "s", "cohomology wall_s"),
    ("gf2.in_span.s", "s", "cohomology wall_s"),
    ("gf2.in_span.vectors", "count", "cohomology wall_s"),
    ("gf2.kernel_basis.s", "s", "cohomology wall_s"),
    ("gf2.kernel_basis.constraints", "count", "cohomology wall_s"),
    ("serialization.loads_complex.s", "s", "cohomology wall_s"),
    ("serialization.loads_cochain.s", "s", "cohomology wall_s"),
    ("complexes.faces.s", "s", "cohomology wall_s"),
    ("complexes.faces.calls", "count", "cohomology wall_s"),
    ("trace.overhead_s", "s", "none: traced wall_s minus untraced wall_s"),
)


def layer_metrics(summary: dict) -> dict:
    """Values of the span-derived PER_LAYER metrics; 0 where no span ran."""
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in ("trace", "essential.heuristic"):
            continue
        out[name] = summary.get(span, {}).get(field, 0)
    return out

"""The benchmark's metric catalogue.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds; ``test_perfbench.py`` keeps the two in step.  Each
layer metric names the end-to-end metric and workload it should move, which
is the prediction a later optimisation is judged against.
"""

from __future__ import annotations

WORKLOADS = (
    ("screen", "many distinct tiny exact problems from criterion 4's signed grid plus "
               "feasible diagonal draws: per-call overhead, Polynomial building, tiny simplex"),
    ("networks", "full analysis of single 3-9 species networks and the cascade: "
                 "full-QFI exact elimination dominates, cost grows about as n^5"),
    ("simulate", "seeded RK4/RKF45 trajectories on the conserved fixtures: the float "
                 "integrator, with almost no exact work"),
    ("cli", "sessions of in-process crnkit.cli.main calls, every subcommand with --json --out: "
            "argparse, format sniffing, manifests and the exit-2 path"),
)

# (name, unit, better, bound).  Reported with --trace 0 on every workload.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better, what it should move).  Reported with --trace 1 on
# every workload; a layer a workload never reaches reads 0.  Per-operation
# values divide by the operations completed in the traced phase.
PER_LAYER = (
    ("qfi.find_quadratic_first_integrals.self_ms", "ms/op", "lower", "ops_per_s, latency_p50_ms on screen"),
    ("qfi.find_quadratic_first_integrals.calls", "calls/op", "lower", "ops_per_s on screen"),
    ("qfi.lie_derivative.self_ms", "ms/op", "lower", "ops_per_s, latency_p50_ms on screen"),
    ("qfi.lie_derivative.calls", "calls/op", "lower", "ops_per_s on screen"),
    ("qfi.generate.self_ms", "ms/op", "lower", "ops_per_s on screen"),
    ("qfi.found_ratio", "ratio", "higher", "decision mix on screen; must not change"),
    ("poly.Polynomial.constructed", "count/op", "lower", "ops_per_s on screen and cli"),
    ("poly.parse_system.self_ms", "ms/op", "lower", "ops_per_s on cli"),
    ("poly.system_build.self_ms", "ms/op", "lower", "ops_per_s on screen"),
    ("linalg.nullspace_basis.self_ms", "ms/op", "lower", "ops_per_s, latency_tail_ms on networks"),
    ("linalg.nullspace_basis.calls", "calls/op", "lower", "ops_per_s on networks"),
    ("linalg.nullspace_basis.cells", "cells/op", "lower", "ops_per_s on networks"),
    ("linalg.nullspace_basis.max_bits", "bits", "lower", "latency_tail_ms on networks"),
    ("linalg.positive_vector_in_span.self_ms", "ms/op", "lower", "latency_p50_ms on screen; conservation checks on cli"),
    ("linalg.positive_vector_in_span.calls", "calls/op", "lower", "latency_p50_ms on screen"),
    ("linalg.positive_vector_in_span.feasible_ratio", "ratio", "higher", "decision mix on screen; must not change"),
    ("linalg.symmetric_inertia.self_ms", "ms/op", "lower", "latency_p50_ms on networks"),
    ("conservation.kinetic_conservation.self_ms", "ms/op", "lower", "latency_p50_ms on screen and networks"),
    ("conservation.stoichiometric_conservation.self_ms", "ms/op", "lower", "latency_p50_ms on networks"),
    ("conservation.found_ratio", "ratio", "higher", "decision mix on screen and networks; must not change"),
    ("network.parse_network.self_ms", "ms/op", "lower", "latency_p50_ms on networks; ops_per_s on cli"),
    ("network.parse_network.calls", "calls/op", "lower", "ops_per_s on cli"),
    ("kinetics.induced_kinetic_ode.self_ms", "ms/op", "lower", "latency_p50_ms on networks; ops_per_s on cli"),
    ("kinetics.negative_cross_effect.self_ms", "ms/op", "lower", "latency_p50_ms on networks; ops_per_s on cli"),
    ("kinetics.canonical_realization.self_ms", "ms/op", "lower", "latency_p50_ms on networks; ops_per_s on cli"),
    ("sim.integrate.self_ms", "ms/op", "lower", "ops_per_s (steps/s) on simulate only"),
    ("sim.compile_rhs.self_ms", "ms/op", "lower", "ops_per_s on simulate only"),
    ("sim.rhs_evals", "count/op", "lower", "ops_per_s on simulate only"),
    ("sim.accepted_steps", "count/op", "lower", "ops_per_s on simulate only"),
    ("sim.rkf45.accept_ratio", "ratio", "higher", "ops_per_s on simulate only"),
    ("sim.drift_report.self_ms", "ms/op", "lower", "ops_per_s on simulate only"),
    ("cli.main.self_ms", "ms/op", "lower", "ops_per_s on cli (includes filesystem time)"),
    ("cli.out_bytes", "bytes/op", "lower", "ops_per_s on cli"),
    ("cli.fs_ms", "ms/op", "lower", "filesystem time in CLI calls, left out of cli op times; raw"),
    ("cli.exit2_ratio", "ratio", "lower", "input mix on cli; must not change"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("op.outside_spans.self_ms", "ms/op", "lower", "time in an operation outside every span"),
    ("trace.traced_ops_per_s", "1/s", "higher", "tracing overhead, against trace.untraced_ops_per_s"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "tracing overhead baseline"),
    ("trace.overhead_ratio", "ratio", "lower", "traced over untraced time for the same operations"),
)

# layer spans whose summed self time is reported as <name>.self_ms
SELF_TIME_SPANS = tuple(
    name[: -len(".self_ms")] for name, *_ in PER_LAYER
    if name.endswith(".self_ms") and not name.startswith("op.")
)
CALL_COUNT_SPANS = tuple(
    name[: -len(".calls")] for name, *_ in PER_LAYER if name.endswith(".calls")
)


def benchmark_json(run_seconds: int) -> dict:
    """The content BENCHMARK.json must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }

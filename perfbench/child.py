"""One workload process: set up, run the closed loop, check every answer.

``run.py`` starts this script and passes the time it did so (``--t0``, a
``perf_counter_ns`` reading, which is system-wide on Linux), so the set-up
time covers interpreter start, ``import crnkit`` and input generation.  The
script prints one JSON object on stdout.

With ``--trace 1`` the run has two phases over the same inputs: a traced
phase of half the measured time, whose answers are checked, then the same
operations again untraced, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECISIONS = HERE / "decisions.json"
WORKDIR = ROOT / ".perfbench"


def import_crnkit():
    """Import crnkit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "crnkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no crnkit sources under {src}")
    sys.path.insert(0, str(src))
    import crnkit
    import crnkit.cli  # noqa: F401  (the cli workload calls crnkit.cli.main)

    if Path(crnkit.__file__).resolve().parent != (src / "crnkit").resolve():
        raise SystemExit(f"perfbench: imported crnkit from {crnkit.__file__}, not {src}")
    return crnkit


def load_decisions() -> dict:
    """Stored decisions per pool item: {pool: {"default": t, "other": {i: t}}}."""
    return json.loads(DECISIONS.read_text())


def stored_token(decisions: dict, key) -> str | None:
    pool, index = key
    entry = decisions.get(pool)
    if entry is None:
        return None
    return entry["other"].get(str(index), entry["default"])


def no_spans(name):
    """Span context used when tracing is off."""
    return nullcontext()


# Speed calibration.  Shared virtual machines switch between speed states
# (the same operation takes 1.0x to 1.8x its best time, with no stolen CPU
# time), and the share of time spent slow changes from minute to minute,
# which would swamp a real change.  A fixed probe runs before the first
# operation and after every WINDOW_NS of operation time.  Each operation's
# time is scaled by PROBE_NOMINAL_NS over the mean of the two probes around
# its window, so times read as on a machine where the probe takes 2 ms (on
# the 2-vCPU x86-64 VM measured, Python 3.11, it takes 1.4 ms in the fast
# state and 2.5 ms in the slow one).
# Repeating the same 3,000 screen operations, this cut the run-to-run spread
# of the median latency from 13 % to under 1 %, and of the total time from
# 9 % to 1 %.
WINDOW_NS = 20_000_000
PROBE_NOMINAL_NS = 2_000_000


def calibration_probe() -> int:
    """Time a fixed piece of pure-Python work: Fractions, dicts, tuples, floats."""
    start = perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    table: dict = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
    x = 0.5
    for _ in range(1500):
        x = x * 0.999 + 0.001 * x * x
    return perf_counter_ns() - start


@dataclass
class LoopRun:
    """One closed-loop run: raw operation times and the calibration probes."""

    latencies: list = field(default_factory=list)  # raw ns per operation
    untimed: list = field(default_factory=list)  # ns left out of each operation's time
    windows: list = field(default_factory=list)  # window of each operation
    probes: list = field(default_factory=list)  # probe w opens window w, w + 1 closes it

    @property
    def busy_ns(self) -> int:
        return sum(self.latencies)

    def speed_factors(self) -> list[float]:
        """Per operation: nominal probe time over the probe times around it."""
        per_window = [
            2 * PROBE_NOMINAL_NS / (self.probes[w] + self.probes[w + 1])
            for w in range(len(self.probes) - 1)
        ]
        return [per_window[w] for w in self.windows]

    def calibrated(self) -> list[float]:
        """Operation times in ns, scaled to the nominal machine speed."""
        return [t * f for t, f in zip(self.latencies, self.speed_factors())]


def closed_loop(workload, api, schedule, first, seconds, spans, on_result,
                tracer=None, limit=None):
    """Run operations back to back until `seconds` of operation time or `limit`.

    The loop stops only at the end of a block of ``workload.block`` operations,
    so every run holds the same mix of input classes.  After each operation,
    outside its time, ``on_result(key, plain input, output, error)`` gets the
    outcome.  Calibration probes also run outside the operations' time.
    """
    run = LoopRun(probes=[calibration_probe()])
    budget = seconds * 1e9
    # the budget counts calibrated time, so a run holds about the same
    # operations whatever speed state the machine is in
    calibrated_busy = window_busy = 0.0
    for i, key in enumerate(schedule):
        if limit is not None and i >= limit:
            break
        data = first if i == 0 else workload.plain(key)
        if tracer is not None:
            tracer.op = i
        start = perf_counter_ns()
        try:
            output, error = workload.run(api, key, data, spans), None
        except Exception as exc:  # a crash is a failed operation, not a failed run
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - start
        untimed = 0
        if error is None:
            try:
                untimed = workload.untimed_ns(output)
                output = workload.after(data, output)
            except Exception as exc:  # e.g. an --out directory that was never written
                output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed -= untimed
        run.latencies.append(elapsed)
        run.untimed.append(untimed)
        run.windows.append(len(run.probes) - 1)
        on_result(key, data, output, error)
        window_busy += elapsed
        if window_busy >= WINDOW_NS:
            run.probes.append(calibration_probe())
            calibrated_busy += window_busy * 2 * PROBE_NOMINAL_NS / (run.probes[-2] + run.probes[-1])
            window_busy = 0
        if limit is None and calibrated_busy >= budget and (i + 1) % workload.block == 0:
            break
    if window_busy:
        run.probes.append(calibration_probe())
    return run


class Checker:
    """Checks each answer against crnkit and the stored decisions."""

    def __init__(self, workload, crnkit, decisions):
        self.workload, self.crnkit, self.decisions = workload, crnkit, decisions
        self.attempted = self.failed = self.steps = 0
        self.messages: list[str] = []

    def __call__(self, key, data, output, error):
        from workloads import CheckFailed

        self.attempted += 1
        try:
            if error is not None:
                raise CheckFailed(error)
            self.workload.check(self.crnkit, key, data, output)
            want = stored_token(self.decisions, key)
            got = self.workload.token(key, data, output)
            if want is not None and got != want:
                raise CheckFailed(f"decision {got!r} differs from stored {want!r}")
            if self.workload.name == "simulate":
                self.steps += self.workload.steps(output)
        except Exception as exc:  # any failure of the answer counts, then the run goes on
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{key}: {type(exc).__name__}: {exc}")


def latency_summary(latencies_ns) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    tail_index = max(0, n - 11)
    return {
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_tail_ms": ordered[tail_index] / 1e6,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples": n,
    }


def layer_metrics(tracer, run: LoopRun, results, workload) -> dict:
    """Per-operation layer metrics; self times are calibrated like op times."""
    from metrics import CALL_COUNT_SPANS, SELF_TIME_SPANS

    ops = len(results)
    factors = run.speed_factors()
    totals = tracer.totals()
    counts = tracer.counts
    calibrated_self: dict[str, float] = {}
    root = [0] * ops
    for _, parent, op, name, start, end, self_ns in tracer.spans:
        calibrated_self[name] = calibrated_self.get(name, 0.0) + self_ns * factors[op]
        if parent is None:
            root[op] += end - start
    out = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_ms"] = calibrated_self.get(name, 0.0) / ops / 1e6
    for name in CALL_COUNT_SPANS:
        out[f"{name}.calls"] = totals.get(name, {}).get("calls", 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    qfi_calls = totals.get("qfi.find_quadratic_first_integrals", {}).get("calls", 0)
    out["qfi.found_ratio"] = ratio(counts["qfi.found"], qfi_calls)
    out["poly.Polynomial.constructed"] = counts["poly.Polynomial.constructed"] / ops
    out["linalg.nullspace_basis.cells"] = counts["linalg.nullspace_basis.cells"] / ops
    out["linalg.nullspace_basis.max_bits"] = tracer.max_bits
    pvis_calls = totals.get("linalg.positive_vector_in_span", {}).get("calls", 0)
    out["linalg.positive_vector_in_span.feasible_ratio"] = ratio(
        counts["linalg.positive_vector_in_span.feasible"], pvis_calls
    )
    conservation_calls = sum(
        totals.get(n, {}).get("calls", 0)
        for n in ("conservation.kinetic_conservation", "conservation.stoichiometric_conservation")
    )
    out["conservation.found_ratio"] = ratio(counts["conservation.found"], conservation_calls)
    out["sim.rhs_evals"] = counts["sim.rhs_evals"] / ops
    out["sim.accepted_steps"] = counts["sim.accepted_steps"] / ops
    out["sim.rkf45.accept_ratio"] = ratio(
        counts["sim.rkf45.accepted"], counts["sim.rkf45.rhs_evals"] / 6
    )
    calls = [c for r in results if workload.name == "cli" and r[2] is not None for c in r[2]]
    out["cli.out_bytes"] = sum(c[3] for c in calls) / ops
    out["cli.fs_ms"] = sum(run.untimed) / ops / 1e6
    out["cli.exit2_ratio"] = sum(c[0] == 2 for c in calls) / len(calls) if calls else 0.0
    outside = sum(
        (t + u - r) * f for t, u, r, f in zip(run.latencies, run.untimed, root, factors)
    )
    out["op.outside_spans.self_ms"] = outside / ops / 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_start = perf_counter_ns()
    crnkit = import_crnkit()
    import_s = (perf_counter_ns() - import_start) / 1e9

    import workloads

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, workdir)
        schedule = workload.schedule(args.seed)
        first = workload.plain(schedule[0])
        setup_s = (perf_counter_ns() - args.t0) / 1e9
        report = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            report.update(measure(args, crnkit, workload, schedule, first))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(args, crnkit, workload, schedule, first) -> dict:
    checker = Checker(workload, crnkit, load_decisions())
    # Objects that exist before the first operation (imports, the input
    # schedule, the stored decisions) leave the collector's view, so its
    # pauses scale with what the operations allocate, not with the harness.
    gc.collect()
    gc.freeze()
    if args.trace == 0:
        # answers are checked as they come, so memory does not grow with the run
        run = closed_loop(workload, crnkit, schedule, first, args.seconds, no_spans, checker)
        calibrated = run.calibrated()
        calibrated_s = sum(calibrated) / 1e9
        report = {
            "attempted": checker.attempted,
            "failed": checker.failed,
            "messages": checker.messages,
            "ops_per_s": checker.attempted / calibrated_s,
            "raw_ops_per_s": checker.attempted / (run.busy_ns / 1e9),
            "probe_ms": statistics.median(run.probes) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **latency_summary(calibrated),
        }
        if workload.name == "simulate":
            report["steps_per_s"] = checker.steps / calibrated_s
        return report

    from tracer import Tracer

    # the traced phase keeps its answers and checks them once tracing is off
    results: list = []
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(
            workload, crnkit, schedule, first, args.seconds / 2, tracer.span,
            lambda *result: results.append(result), tracer,
        )
    finally:
        tracer.remove()
    layers = layer_metrics(tracer, traced, results, workload)
    for result in results:
        checker(*result)
    ops = len(results)
    plain = closed_loop(
        workload, crnkit, schedule, workload.plain(schedule[0]), args.seconds, no_spans,
        lambda *result: None, limit=ops,
    )
    traced_ns, plain_ns = sum(traced.calibrated()), sum(plain.calibrated())
    layers["trace.traced_ops_per_s"] = ops / (traced_ns / 1e9)
    layers["trace.untraced_ops_per_s"] = ops / (plain_ns / 1e9)
    layers["trace.overhead_ratio"] = traced_ns / plain_ns
    WORKDIR.mkdir(exist_ok=True)
    tracer.dump(WORKDIR / f"trace-{workload.name}.jsonl.gz")
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
        "missing": tracer.missing,
        "layers": layers,
        "spans": len(tracer.spans),
        "span_self_ns": sum(s[6] for s in tracer.spans),
        "span_root_ns": tracer.root_ns(),
    }


if __name__ == "__main__":
    sys.exit(main())

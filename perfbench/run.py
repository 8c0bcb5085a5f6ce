"""crnkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0

Workloads: screen, networks, simulate, cli (see ``metrics.WORKLOADS``).
Load is a closed loop with one client in one single-threaded process: each
operation starts when the previous one returns.  The workload runs in a
child process (``child.py``) started ``SETUP_RUNS`` times; all but the last
only set up, and ``setup_s`` is the median over all of them.

Every answer is checked after the timed loop; a wrong answer, a crash or an
unexpected exit code counts in ``failed``.  Readable lines come first on
stdout, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter_ns

from child import PROBE_NOMINAL_NS
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
TIME_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before the workload started")
    cmd += ["--t0", str(perf_counter_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("screen", "networks", "simulate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # on SIGTERM, raise inside subprocess.run, which then kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = monotonic() + TIME_LIMIT_S
    try:
        setups = [run_child(args, deadline, setup_only=True) for _ in range(SETUP_RUNS - 1)]
        report = run_child(args, deadline, setup_only=False)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(report)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, {failed} failed (failed_ratio {failed / attempted:.6f})")
    for message in report["messages"]:
        print(f"  failure: {message}")

    if args.trace == 0:
        values = {name: report[name] for name, *_ in END_TO_END if name != "setup_s"}
        values["setup_s"] = setup_s
        print(f"  latency_tail_ms is p{report['tail_percentile']:.2f} of "
              f"{report['samples']} samples; times are calibrated to a "
              f"{PROBE_NOMINAL_NS / 1e6:g} ms probe (median probe {report['probe_ms']:.3f} ms, "
              f"raw ops_per_s {report['raw_ops_per_s']:.6g})")
        if "steps_per_s" in report:
            print(f"  steps_per_s {report['steps_per_s']:.1f} 1/s (accepted integrator steps)")
        catalogue = END_TO_END
    else:
        values = dict(report["layers"])
        values["setup.import_s"] = import_s
        if report["missing"]:
            print(f"  missing wrapped names (reported as 0): {', '.join(report['missing'])}")
        print(f"  {report['spans']} spans; self times sum to {report['span_self_ns']} ns, "
              f"outermost spans to {report['span_root_ns']} ns")
        catalogue = PER_LAYER
    metrics = {}
    for name, unit, *_ in catalogue:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

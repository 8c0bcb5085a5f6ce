"""Record the stored decisions of every pool item into decisions.json.

    python3 perfbench/record_decisions.py

It also ranks each networks pool's items by their calibrated cost (the
faster of two timed runs) into network_costs.json, which the networks
schedule uses to spread every run evenly over cheap and dear networks.

A decision is the part of an answer that is unique mathematically: found or
not, basis dimension, signature, exit code.  Every item is checked as in a
benchmark run before its decision is stored, so a wrong answer is never
recorded.  Re-record only when a pool's generator changes on purpose; a
commit that changes crnkit's answers must not re-record.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from time import perf_counter_ns

from child import DECISIONS, PROBE_NOMINAL_NS, WORKDIR, calibration_probe, import_crnkit, no_spans


def pools(workloads):
    screen, networks, cli = (workloads.make(n, WORKDIR / "record") for n in ("screen", "networks", "cli"))
    yield screen, "screen-grid", workloads.GRID_SIZE
    yield screen, "screen-feasible", workloads.FEASIBLE_POOL
    for n in workloads.NETWORK_SIZES:
        yield networks, f"networks-{n}", workloads.NETWORK_POOL_PER_CLASS
    yield networks, "networks-cascade", workloads.NETWORK_POOL_PER_CLASS
    yield cli, "cli", workloads.CLI_POOL


def timed_run(workload, crnkit, key, data):
    """Run one operation; returns (output, calibrated ns)."""
    before = calibration_probe()
    start = perf_counter_ns()
    output = workload.run(crnkit, key, data, no_spans)
    elapsed = perf_counter_ns() - start
    return output, elapsed * 2 * PROBE_NOMINAL_NS / (before + calibration_probe())


def main() -> int:
    crnkit = import_crnkit()
    import workloads

    (WORKDIR / "record").mkdir(parents=True, exist_ok=True)
    stored, ranked = {}, {}
    try:
        for workload, pool, size in pools(workloads):
            tokens, costs = [], []
            for index in range(size):
                key = (pool, index)
                data = workload.plain(key)
                if workload.name == "networks":
                    output, cost = timed_run(workload, crnkit, key, data)
                    costs.append(min(cost, timed_run(workload, crnkit, key, data)[1]))
                else:
                    output = workload.run(crnkit, key, data, no_spans)
                output = workload.after(data, output)
                workload.check(crnkit, key, data, output)
                tokens.append(workload.token(key, data, output))
            if costs:
                ranked[pool] = sorted(range(size), key=costs.__getitem__)
            default = Counter(tokens).most_common(1)[0][0]
            stored[pool] = {
                "default": default,
                "other": {str(i): t for i, t in enumerate(tokens) if t != default},
            }
            print(f"{pool}: {size} items, {len(stored[pool]['other'])} differ from "
                  f"{default!r}", flush=True)
    finally:
        shutil.rmtree(WORKDIR / "record", ignore_errors=True)
    DECISIONS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    workloads.NETWORK_COSTS.write_text(json.dumps(ranked, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

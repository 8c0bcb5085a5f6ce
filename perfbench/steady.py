"""Run workloads on several seeds and report each metric's median and spread.

    python3 perfbench/steady.py --workload networks --seeds 1-10 --seconds 15
    python3 perfbench/steady.py --workload screen networks simulate cli --seeds 1

The second form runs all four workloads on one seed and prints every metric
by name and unit.  Spread is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median;
it needs two seeds or more.  With ``--json FILE`` the per-run values and the
summaries are written out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("screen", "networks", "simulate", "cli")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_seeds(workload: str, seeds: list[int], seconds: float, trace: int) -> dict:
    runs = []
    for seed in seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.monotonic() - start
        runs.append(result)
        values = " ".join(
            f"{k}={v['value']:.5g} {v['unit']}" for k, v in result["metrics"].items()
        )
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={result['wall_s']:.1f}s {values}", flush=True)
    out = {"runs": runs}
    if len(runs) > 1:
        out["summary"] = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in out["summary"].items():
            print(f"{workload} {name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    try:
        results = {w: run_seeds(w, seeds, args.seconds, args.trace) for w in args.workload}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "workloads": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

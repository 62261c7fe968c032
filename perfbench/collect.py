"""Run the benchmark several times per workload and summarise the runs.

    python3 perfbench/collect.py --seeds 1-10 [--seconds 20] [--workload NAME ...]
                                 [--out FILE] [--against FILE]

Each run is `run.py --trace 0` with its own seed, one after another. For every
end-to-end metric the summary gives the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median, and
marks a spread above a third of the metric's bound in BENCHMARK.json. With
`--against`, it also compares each median with that of an earlier summary
and marks a metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {child.returncode}\n{child.stderr}")
    lines = child.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    return {"seed": seed, "env": env, **result}


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in parse_seeds(args.seeds)]
        metrics = {
            name: summarise([run["metrics"][name]["value"] for run in runs]) for name in bounds
        }
        summary["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "env": [run["env"] for run in runs],
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary['workloads'][workload]['correct']} "
              f"failed={summary['workloads'][workload]['failed']}"
              f"/{summary['workloads'][workload]['attempted']}")
        for name, stats in metrics.items():
            bound = bounds[name]["bound"]
            flag = "  SPREAD > bound/3" if stats["spread"] > bound / 3 else ""
            line = (f"  {name:12s} median {stats['median']:.6g} "
                    f"[{stats['q1']:.6g}, {stats['q3']:.6g}] spread {stats['spread']:.3f}"
                    f" (bound {bound}){flag}")
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                change = (stats["median"] - before) / before
                worse = change < -bound if bounds[name]["better"] == "higher" else change > bound
                line += f"  vs {before:.6g}: {change:+.3f}{'  WORSE' if worse else ''}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qkr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real user path, `qkr.cli.main`, in-process from one process and
one thread. A workload is a stream of jobs; a job is one CLI invocation whose
seed comes from `--seed` and the job's index (see jobs.py). Jobs run in a
closed loop, one after another, for `--seconds`, and every job's output is
checked. Outputs go to `.bench_work/` in the checkout.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the probes, then
the job stream untraced and traced for half of `--seconds` each, and prints
the per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it record the
environment and each metric in readable form. NOTES.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS, job_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so output paths echo the same everywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 15
MIN_JOBS = 100  # so that at least ten jobs lie beyond p90
DEFAULT_SEED = 0
# Printed with the metrics but not declared in BENCHMARK.json (see NOTES.md).
READOUT_UNITS = {"job_ms_p50": "ms"}

# sha256 of (stdout, NUL, output file) of job 0 at the default seed.
PINNED = {
    "session-n1024-accept": "2f3f84f03f5ee6c3392f2c94f257266b9f76c8e5d57f5c3a5ec42bbc7d1e4f5c",
    "session-n64-eve": "4fd921463d770986a0b0a5bc384928ec16280c9f506b99d83dfadef4a7ef1dc6",
    "tamper-fuzz": "7ee69a552c072908020a82a48aca3ff93c01f17d37f688136a6d9b043dfc23ab",
    "sweep-n-large": "7d19c8382586d450d0ab7a39c7f8baa2e57752e365a6ac6831dc69bb80491349",
}

# Time for a fresh interpreter to import qkr and build the CLI parser,
# measured inside the child so interpreter start-up is excluded.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qkr.cli\n"
    "qkr.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_qkr():
    if not (SRC / "qkr" / "__init__.py").is_file():
        raise Abort(f"no qkr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qkr.cli

    if Path(qkr.__file__).resolve().parent != (SRC / "qkr").resolve():
        raise Abort(f"imported qkr from {qkr.__file__}, not from {SRC}")
    return qkr.cli


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(child.stdout))
    return statistics.median(samples)


class JobRunner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.out = str(WORK / f"{workload.name}.out")
        self.tracer = None

    def argv(self, seed: int, index: int) -> list:
        return self.workload.argv(job_seed(self.workload.name, seed, index), self.out)

    def run(self, argv: list) -> dict:
        """Run one job and check its output. A job fails on a nonzero exit,
        an exception, or a failed check."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        stdout, stderr = io.StringIO(), io.StringIO()
        tracer = self.tracer
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            span = tracer.begin("job") if tracer else None
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed job, not a failed benchmark
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(span)
        data = Path(self.out).read_bytes() if os.path.exists(self.out) else b""
        text = stdout.getvalue()
        if tracer:
            tracer.counts["cli.bytes_written"] += len(text.encode()) + len(data)
        ops, problems = 0, []
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[-200:]}"
        if error is None:
            try:
                ops, problems = self.workload.check(text, data)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        digest = hashlib.sha256(text.encode() + b"\0" + data).hexdigest()
        return {"seconds": elapsed, "ops": 0 if problems else ops,
                "problems": problems, "digest": digest}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, argv, job) -> None:
        self.attempted += 1
        if job["problems"]:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)}: {'; '.join(job['problems'][:3])}")


def check_determinism(runner: JobRunner, seed: int, tally: Tally) -> None:
    """Job 0 of this seed twice must give identical bytes, and job 0 of the
    default seed must match the pinned digest."""
    argv = runner.argv(seed, 0)
    first, second = runner.run(argv), runner.run(argv)
    tally.add(argv, first)
    if first["digest"] != second["digest"]:
        second["problems"].append("output differs from an identical earlier job")
    tally.add(argv, second)
    argv = runner.argv(DEFAULT_SEED, 0)
    pinned = runner.run(argv)
    if pinned["digest"] != PINNED[runner.workload.name]:
        pinned["problems"].append(f"digest {pinned['digest']} differs from the pinned one")
    tally.add(argv, pinned)


def job_stream(runner: JobRunner, seed: int, seconds: float, tally: Tally, min_jobs=0):
    """Run jobs until `seconds` have passed (and at least `min_jobs` ran,
    within three times `seconds`). Returns per-job seconds and total ops."""
    times, ops = [], 0
    start = time.perf_counter()
    index = 0
    while True:
        argv = runner.argv(seed, index)
        job = runner.run(argv)
        tally.add(argv, job)
        times.append(job["seconds"])
        ops += job["ops"]
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (index >= min_jobs or elapsed >= 3 * seconds):
            return times, ops


def end_to_end(runner, seed, seconds, tally) -> tuple:
    setup_s = measure_setup()
    times, ops = job_stream(runner, seed, seconds, tally, MIN_JOBS)
    ms = sorted(t * 1e3 for t in times)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    beyond = sum(t > p90 for t in ms)
    notes = {
        "job_ms_p50": f"n={len(ms)} jobs; printed only",
        "job_ms_p90": f"n={len(ms)} jobs, {beyond} beyond p90",
    }
    metrics = {
        "ops_per_s": ops / sum(times),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, notes


def per_layer(runner, seed, seconds, tally) -> tuple:
    from probes import run_probes
    from spans import Tracer, layer_metrics

    metrics = run_probes(seed)
    times, ops = job_stream(runner, seed, seconds / 2, tally)
    untraced = ops / sum(times)
    runner.tracer = tracer = Tracer()
    tracer.install()
    try:
        times, ops = job_stream(runner, seed, seconds / 2, tally)
    finally:
        tracer.uninstall()
        runner.tracer = None
    traced = ops / sum(times)
    layers, job_ns, self_ns = layer_metrics(tracer, len(times))
    metrics.update(layers)
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = traced
    metrics["trace.overhead_ratio"] = untraced / traced if traced else 0.0
    path = WORK / f"spans-{runner.workload.name}.csv"
    spans = tracer.write(path)
    notes = {
        "trace.job_ms": f"{len(times)} traced jobs; self times + other = "
                        f"{self_ns / 1e6:.3f} ms of {job_ns / 1e6:.3f} ms traced job time",
        "trace.overhead_ratio": "untraced / traced ops_per_s",
    }
    if self_ns != job_ns:
        tally.problems.append(f"self times sum to {self_ns} ns, traced jobs took {job_ns} ns")
    print(f"spans: {spans} written to {path}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: set before numpy is first imported (by qkr).
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    os.chdir(ROOT)
    cli = load_qkr()
    WORK.mkdir(exist_ok=True)

    runner = JobRunner(cli, WORKLOADS[args.workload])
    tally = Tally()
    check_determinism(runner, args.seed, tally)
    measure = per_layer if args.trace else end_to_end
    values, notes = measure(runner, args.seed, args.seconds, tally)

    missing = sorted(set(units) - set(values))
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    print("env " + json.dumps(env, sort_keys=True))
    shown = {**units, **READOUT_UNITS}
    for name, value in values.items():
        if name in shown:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} = {value:.6g} {shown[name]}{note}")
    print(f"failed_jobs_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

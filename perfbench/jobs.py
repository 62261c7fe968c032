"""The four workloads: how each job's command line is made from a seed, and
how each job's output is checked.

A job is one `qkr` CLI invocation. Its seed is derived from the benchmark's
`--seed` and the job's index, so a run's job stream is fixed by its seed.
Every job writes to one output file (`--out`) and may print to stdout; the
check reads both and returns the number of operations the job completed
together with a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

SESSION_N1024_ROUNDS = 5
SESSION_N64_ROUNDS = 100
FUZZ_ROUNDS = 12000
SWEEP_STEPS = 3
SWEEP_START = 1024
SWEEP_STOP = 1 << 18

SWEEP_COLUMNS = [
    "n",
    "rate",
    "p_corr",
    "log2_bound_total",
    "log2_term_tag",
    "log2_term_reject",
    "log2_term_accept",
]


@dataclass(frozen=True)
class Workload:
    name: str
    # (job_seed, out_path) -> argv for qkr.cli.main
    argv: Callable[[int, str], list]
    # (stdout, out_bytes) -> (operations completed, problems)
    check: Callable[[str, bytes], tuple]


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _check_session(expected_rounds: int):
    def check(stdout: str, data: bytes) -> tuple:
        problems = []
        record = json.loads(stdout)
        config, summary = record["config"], record["summary"]
        rounds = summary["rounds"]
        if rounds != expected_rounds:
            problems.append(f"summary has {rounds} rounds, expected {expected_rounds}")
        if summary["key_agreement"] is not True:
            problems.append("key_agreement is false")
        if summary["mismatches"] != 0:
            problems.append(f"{summary['mismatches']} accepted rounds decrypted wrong")
        rejects = rounds - summary["accepts"]
        per_reject = config["n"] + config["lambda"] + config["q_bits"]
        if summary["consumed_bits"] != rejects * per_reject:
            problems.append(
                f"consumed_bits {summary['consumed_bits']} != {rejects} rejects * {per_reject}"
            )
        lines = data.decode().splitlines()
        if len(lines) != rounds:
            problems.append(f"rounds file has {len(lines)} lines, expected {rounds}")
        # Exact for the oracle code: it decodes iff at most floor(n*beta)
        # payloads flipped, and a decoded round always verifies.
        t = math.floor(config["n"] * config["beta"])
        for i, line in enumerate(lines):
            result = json.loads(line)
            if result["omega"] != int(result["errors_injected"] <= t):
                problems.append(
                    f"round {i}: omega={result['omega']} with "
                    f"{result['errors_injected']} errors and t={t}"
                )
        return rounds, problems

    return check


def _check_fuzz(stdout: str, data: bytes) -> tuple:
    problems = []
    report = json.loads(data)
    if report["rounds"] != FUZZ_ROUNDS:
        problems.append(f"report has {report['rounds']} rounds, expected {FUZZ_ROUNDS}")
    if report["false_accepts"] != 0 or report["successful_forgeries"] != 0:
        problems.append(
            f"false_accepts={report['false_accepts']} "
            f"successful_forgeries={report['successful_forgeries']}"
        )
    return report["rounds"], problems


def _log2_sum(values) -> float:
    peak = max(values)
    return peak + math.log2(math.fsum(2.0 ** (v - peak) for v in values))


def _check_sweep(stdout: str, data: bytes) -> tuple:
    problems = []
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return 0, [f"unexpected header {rows[:1]}"]
    body = rows[1:]
    if len(body) != SWEEP_STEPS:
        problems.append(f"{len(body)} rows, expected {SWEEP_STEPS}")
    for row in body:
        total, tag, reject, accept = (float(c) for c in row[3:7])
        # Cells carry 10 significant digits, so compare at that precision.
        expected = _log2_sum([tag, reject, accept])
        if not math.isclose(total, expected, rel_tol=1e-8, abs_tol=1e-8):
            problems.append(f"n={row[0]}: log2_bound_total {total} != log2-sum {expected}")
    return len(body), problems


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "session-n1024-accept",
            lambda s, out: ["run", "--gamma", "0.05", "--rounds", str(SESSION_N1024_ROUNDS),
                            "--seed", str(s), "--out", out],
            _check_session(SESSION_N1024_ROUNDS),
        ),
        Workload(
            "session-n64-eve",
            lambda s, out: ["run", "--n", "64", "--eta", "0.3", "--rounds", str(SESSION_N64_ROUNDS),
                            "--seed", str(s), "--out", out],
            _check_session(SESSION_N64_ROUNDS),
        ),
        Workload(
            "tamper-fuzz",
            lambda s, out: ["attack", "tamper_fuzz", "--rounds", str(FUZZ_ROUNDS),
                            "--seed", str(s), "--out", out],
            _check_fuzz,
        ),
        Workload(
            "sweep-n-large",
            lambda s, out: ["sweep", "n", "--start", str(SWEEP_START + s % 64),
                            "--stop", str(SWEEP_STOP - s % 1024), "--steps", str(SWEEP_STEPS),
                            "--gamma", "0.05", "--out", out],
            _check_sweep,
        ),
    ]
}

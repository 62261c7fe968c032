"""Span tracing of qkr's layers from outside the package.

`Tracer.install()` wraps the public functions of each qkr module. A module
function is replaced in every qkr namespace that binds it (so
`qkr.protocol.hash_F` is wrapped as well as `qkr.hashing.hash_F`); a method
is replaced on its class. Each call records one span (name, start, end,
parent) in memory; counters are added at the same boundaries. The spans are
written out once, after the traced phase.

A layer's self time is the time of its spans minus the time of their direct
children. The benchmark opens a root span named `job` around each CLI
invocation, so the root spans' self time is the part of a job no layer
covers; it is reported as `other`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "job"
FIELDS = 4  # name id, start ns, end ns, offset of the parent span (-1 for a root)


def _count_mul_adds(counts, args, result):
    seed = args[0]
    counts["hashing.toeplitz.mul_adds"] += seed.in_len * seed.out_len


def _count_gf_mults(counts, args, result):
    # Horner's rule over ceil(len/lambda) message blocks plus the length
    # block, then one final multiply by the key.
    key, message = args[0], args[1]
    counts["hashing.mac.gf_mults"] += -(-len(message) // key.tag_bits) + 2


def _count_words(counts, args, result):
    counts["primitives.random.words_drawn"] += max(0, args[1])


def _count_decode_ok(counts, args, result):
    counts["ecc.decode.ok"] += result.ok


def _count_flips(counts, args, result):
    sent = args[1]
    counts["qsim.transmit.qubits"] += len(sent)
    counts["qsim.transmit.flips"] += int(np.count_nonzero(sent.payloads != result.payloads))


def _count_reservoir(counts, args, result):
    counts["protocol.reservoir.bits_drawn"] += args[1]


def _count_accepts(counts, args, result):
    summary = result.summary
    counts["protocol.rounds"] += summary.rounds
    counts["protocol.useful_accepts"] += summary.accepts - summary.mismatches


def _count_terms(counts, args, result):
    n, beta, gamma = args[:3]
    t = math.floor(n * beta)
    if t < n and 0.0 < gamma < 1.0:
        counts["analysis.p_corr.terms"] += t + 1


def _key_update_name(args, kwargs):
    omega = args[2] if len(args) > 2 else kwargs["omega"]
    return "protocol.key_update.accept" if omega else "protocol.key_update.reject"


def targets():
    """(owner, attribute, span name, counter) for every traced function."""
    from qkr import analysis, attacks, cli, ecc, hashing, primitives, protocol, qsim

    strings = [(cls, "__init__", "primitives.strings", None)
               for cls in (primitives.BitString, primitives.TritString, primitives.BasisString)]
    random = [(primitives.RandomSource, name, "primitives.random", None)
              for name in ("__init__", "stream", "bit_array", "bits", "floats", "bernoulli",
                           "integers_below", "trits", "basis_string")]
    random.append((primitives.RandomSource, "raw_words", "primitives.random", _count_words))
    return strings + random + [
        (hashing.ToeplitzSeed, "apply", "hashing.toeplitz", _count_mul_adds),
        (hashing, "hash_F", "hashing.hash_F", None),
        (hashing, "hash_G", "hashing.hash_G", None),
        (hashing, "mac_tag", "hashing.mac", _count_gf_mults),
        (hashing, "mac_verify", "hashing.mac", None),
        (ecc.Code, "encode", "ecc.encode", None),
        (ecc.Code, "decode", "ecc.decode", _count_decode_ok),
        (qsim, "transmit", "qsim.transmit", _count_flips),
        (protocol.KeyState, "random", "protocol.key_setup", None),
        (protocol, "alice_encrypt", "protocol.encrypt", None),
        (protocol, "bob_decrypt", "protocol.decrypt", None),
        (protocol, "feedback_tag", "protocol.feedback", None),
        (protocol, "alice_check_feedback", "protocol.feedback", None),
        (protocol, "key_update", _key_update_name, None),
        (protocol.Reservoir, "draw_bits", "protocol.reservoir", _count_reservoir),
        (protocol, "run_session", "protocol.session", _count_accepts),
        (attacks, "tamper_fuzz", "attacks.tamper_fuzz", None),
        (attacks, "fuzz_batch", "attacks.fuzz_batch", None),
        (attacks, "gf64_mul_words", "attacks.gf64_mul", None),
        (attacks, "pack_bits_to_words", "attacks.pack_words", None),
        (analysis, "p_corr", "analysis.p_corr", _count_terms),
        (analysis, "diamond_bound", "analysis.diamond_bound", None),
        (cli, "main", "cli.main", None),
    ]


LAYERS = [
    "hashing.toeplitz", "hashing.hash_F", "hashing.hash_G", "hashing.mac",
    "primitives.strings", "primitives.random", "ecc.encode", "ecc.decode", "qsim.transmit",
    "protocol.key_setup", "protocol.encrypt", "protocol.decrypt", "protocol.feedback",
    "protocol.key_update.accept", "protocol.key_update.reject", "protocol.reservoir",
    "protocol.session", "attacks.tamper_fuzz", "attacks.fuzz_batch", "attacks.gf64_mul",
    "attacks.pack_words", "analysis.p_corr", "analysis.diamond_bound", "cli.main",
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buf = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        base = len(self.buf)
        parent = self.stack[-1] if self.stack else -1
        self.buf.extend((self._id(name), time.perf_counter_ns(), 0, parent))
        self.stack.append(base)
        return base

    def end(self, base: int) -> None:
        self.buf[base + 2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, name, counter):
        # begin() and end() inlined, with everything bound to locals: this
        # runs on every traced call, up to tens of thousands a second.
        buf, stack, counts, clock = self.buf, self.stack, self.counts, time.perf_counter_ns
        pick = name if callable(name) else None
        fixed = None if pick else self._id(name)
        ids = self._id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = len(buf)
            name_id = fixed if pick is None else ids(pick(args, kwargs))
            buf.extend((name_id, clock(), 0, stack[-1] if stack else -1))
            stack.append(base)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[base + 2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "qkr" or key.startswith("qkr.")]
        for owner, attr, name, counter in targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, counter))
                else:
                    wrapped = self._wrap(raw, name, counter)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _table(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, FIELDS)

    def totals(self) -> tuple:
        """Per span name: (self ns, entries, spans), plus the root spans'
        summed duration. An entry is a span whose parent has another name,
        so nested calls within one layer count once."""
        table = self._table()
        names, start, end, parent = table.T
        duration = end - start
        row_of_parent = parent // FIELDS
        has_parent = parent >= 0
        covered = np.zeros(len(table), dtype=np.int64)
        np.add.at(covered, row_of_parent[has_parent], duration[has_parent])
        self_ns = duration - covered
        entry = ~has_parent
        entry[has_parent] = names[row_of_parent[has_parent]] != names[has_parent]
        size = len(self.names)
        by_self = np.bincount(names, weights=self_ns, minlength=size)
        by_entries = np.bincount(names, weights=entry, minlength=size)
        by_spans = np.bincount(names, minlength=size)
        root_ns = int(duration[~has_parent].sum())
        per_name = {
            name: (int(by_self[i]), int(by_entries[i]), int(by_spans[i]))
            for i, name in enumerate(self.names)
        }
        return per_name, root_ns

    def write(self, path) -> int:
        """Write every span as one CSV row; returns the number written."""
        table = self._table()
        job = np.cumsum(table[:, 3] < 0) - 1
        rows = np.column_stack([np.arange(len(table)), job, table[:, 3] // FIELDS, table[:, :3]])
        header = "names " + json.dumps(self.names) + "\nspan,job,parent,name,start_ns,end_ns"
        np.savetxt(path, rows, fmt="%d", delimiter=",", header=header, comments="")
        return len(table)


def layer_metrics(tracer: Tracer, jobs: int) -> tuple:
    """Per-layer metrics per traced job, then the traced job time and the
    summed self time of all spans, both in ns."""
    per_name, root_ns = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        self_ns, entries, _ = per_name.get(layer, (0, 0, 0))
        metrics[f"{layer}.self_ms"] = self_ns / 1e6 / jobs
        metrics[f"{layer}.calls"] = entries / jobs
    for key in ("hashing.toeplitz.mul_adds", "hashing.mac.gf_mults",
                "primitives.random.words_drawn", "protocol.reservoir.bits_drawn",
                "analysis.p_corr.terms", "cli.bytes_written"):
        metrics[key] = counts[key] / jobs
    decodes = per_name.get("ecc.decode", (0, 0, 0))[2]
    metrics["ecc.decode.ok_ratio"] = counts["ecc.decode.ok"] / decodes if decodes else 0.0
    qubits = counts["qsim.transmit.qubits"]
    metrics["qsim.transmit.flip_ratio"] = counts["qsim.transmit.flips"] / qubits if qubits else 0.0
    rounds = counts["protocol.rounds"]
    metrics["protocol.accept_ratio"] = counts["protocol.useful_accepts"] / rounds if rounds else 0.0
    metrics["other.self_ms"] = per_name.get(ROOT, (0, 0, 0))[0] / 1e6 / jobs
    metrics["trace.job_ms"] = root_ns / 1e6 / jobs
    self_total = sum(self_ns for self_ns, _, _ in per_name.values())
    return metrics, root_ns, self_total

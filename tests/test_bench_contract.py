"""The benchmark's tracer (`perfbench/spans.py`) wraps qkr functions by
name, and its probes (`perfbench/probes.py`) call qkr functions directly.
Each target must resolve the way `Tracer.install` reads it, and each probe
must run, so a rename in `src/` fails here rather than in a traced
benchmark run."""

import inspect
import json
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

from qkr import protocol
from qkr.ecc import CodeKind
from qkr.hashing import ToeplitzSeed
from qkr.primitives import ProtocolParams, RandomSource
from qkr.qsim import ChannelKind, ChannelModel, QubitSequence, transmit

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    targets = spans.targets()
    assert targets
    for owner, attr, name, counter in targets:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            assert callable(getattr(raw, "__func__", raw)), (owner, attr)
        else:
            assert callable(getattr(owner, attr)), (owner, attr)
        assert isinstance(name, str) or callable(name)
        assert counter is None or callable(counter)
    # The span name of a key update is chosen from its positional omega.
    assert list(inspect.signature(protocol.key_update).parameters)[2] == "omega"


def test_probes_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "probes", raising=False)
    import probes

    def call_once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(probes, "_us_per_call", call_once)
    declared = [
        metric["name"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if metric["name"].startswith("probe.")
    ]
    assert declared
    assert sorted(probes.run_probes(0)) == sorted(declared)


@pytest.mark.parametrize("gamma,capacity", [(0.1, None), (0.4, 300)],
                         ids=["finished", "exhausted"])
def test_session_counter_reads_the_summary(monkeypatch, gamma, capacity):
    """`_count_accepts`, the only part of the benchmark that reads a
    `SessionResult`, counts real sessions' summaries, finished and exhausted."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    params = ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=32)
    session = protocol.run_session(
        params, ChannelModel(ChannelKind.IID_FLIP, gamma=gamma), CodeKind.ORACLE, 40, 5,
        reservoir_capacity=capacity,
    )
    assert (session.exhausted is None) == (capacity is None)
    counts = Counter()
    spans._count_accepts(counts, (), session)
    summary = session.summary
    assert counts["protocol.rounds"] == summary.rounds == len(session.results)
    assert counts["protocol.useful_accepts"] == summary.accepts - summary.mismatches


def test_mul_add_counter_reads_the_seed_shape(monkeypatch):
    """`_count_mul_adds` reads `in_len` and `out_len`, which a seed takes
    from its arrays: out_len = len(offset), in_len = len(diagonal) -
    out_len + 1, for a seed built from arrays and for a drawn one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    seeds = [ToeplitzSeed(3, [0, 1, 2, 0, 1, 2, 0], [2, 1, 0]),
             ToeplitzSeed.random(RandomSource(4), 2, 9, 5)]
    for seed in seeds:
        in_len = len(seed.diagonal) - len(seed.offset) + 1
        counts = Counter()
        spans._count_mul_adds(counts, (seed,), None)
        assert counts["hashing.toeplitz.mul_adds"] == in_len * len(seed.offset)
    assert [(seed.in_len, seed.out_len) for seed in seeds] == [(5, 3), (9, 5)]


def test_flip_counter_reads_the_payload_array(monkeypatch):
    """`_count_flips` compares `payloads` elementwise, so they must stay an
    array: with one string per side, `!=` would count 0 or 1 flips and
    raise nothing."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    n = 200
    src = RandomSource(6)
    sent = QubitSequence.prepare(src.basis_string(3, n), src.bits(n))
    received = transmit(ChannelModel(ChannelKind.IID_FLIP, gamma=0.3), sent, src)
    flipped = int(np.count_nonzero(np.bitwise_xor(sent.payload.bits, received.payload.bits)))
    assert flipped > 1
    counts = Counter()
    spans._count_flips(counts, (None, sent), received)
    assert counts["qsim.transmit.flips"] == flipped
    assert counts["qsim.transmit.qubits"] == n

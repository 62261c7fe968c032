"""The benchmark's tracer (`perfbench/spans.py`) wraps qkr functions by
name, and its probes (`perfbench/probes.py`) call qkr functions directly.
Each target must resolve the way `Tracer.install` reads it, and each probe
must run, so a rename in `src/` fails here rather than in a traced
benchmark run."""

import inspect
import json
import pathlib
import sys

from qkr import protocol

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

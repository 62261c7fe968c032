"""The benchmark's tracer (`perfbench/spans.py`) wraps qkr functions by
name. Each target must resolve the way `Tracer.install` reads it, so a
rename in `src/` fails here rather than in a traced benchmark run."""

import inspect
import pathlib
import sys

from qkr import protocol

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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

"""The benchmark's traced pass wraps simulator functions by name.

`bench/layers.py` lists each target as (label, module, class, attribute).
A refactor that renames or deletes one of them leaves that layer's
metrics empty, which only the benchmark's own self-tests notice; this
test makes tier-1 notice too.  Its observers also read what the wrapped
calls return (`LookupResult.hit`, `AccessResult.event`, ...), so a short
traced run checks that those return types still carry what they read.
The file is read and executed in memory, so nothing is written under
`bench/`.
"""

import importlib
import os
import types

import pytest

from pvmsim.cli import preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import run_experiment

LAYERS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layers.py"
)


def load_layers():
    module = types.ModuleType("bench_layers")
    with open(LAYERS, "r", encoding="utf-8") as handle:
        exec(compile(handle.read(), LAYERS, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("target", load_layers().TARGETS, ids=lambda t: "%s-%s" % (t[1], t[3]))
def test_traced_target_resolves_to_a_callable(target):
    label, module, cls, attr, _ = target
    owner = importlib.import_module("pvmsim." + module)
    if cls is not None:
        owner = getattr(owner, cls, None)
    assert callable(getattr(owner, attr, None)), "%s: pvmsim.%s.%s.%s" % (label, module, cls, attr)


def test_traced_run_feeds_every_observer():
    layers = load_layers()
    cfg = load_experiment(text=preset_text("synthetic-nospm"), seed=1, iterations=2)
    with layers.Tracer() as tracer:
        run_experiment(cfg, workers=1)  # an observer that cannot read a result raises here
    assert not tracer.missing
    summary = tracer.summary()
    for label in ("tlb.lookup", "cache.access", "memsys.virtual_access"):
        assert summary[label][0] > 0, label
    events = sum(n for key, n in tracer.counts.items() if key.startswith("cache.event."))
    assert events == summary["cache.access"][0]
    assert 0 < tracer.counts["tlb.hits"] <= summary["tlb.lookup"][0]

"""The benchmark's traced pass wraps simulator functions by name.

`bench/layers.py` lists each target as (label, module, class, attribute).
A refactor that renames or deletes one of them leaves that layer's
metrics empty, which only the benchmark's own self-tests notice; this
test makes tier-1 notice too.  The file is read and executed in memory,
so nothing is written under `bench/`.
"""

import importlib
import os
import types

import pytest

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

"""No shipped or pinned configuration can fault.

memsys raises at a faulting access instead of carrying the fault as an
outcome; that rests on build_plan mapping every page a scenario can touch.
For every preset, the golden texts of test_golden.py and the benchmark's
spm-writes-longq workload, each defined scenario's plan is walked at every
page that a prime or measure sweep, an interference loop or the hypervisor
footprint can touch, in the spaces of the VM that touches it, and every
walk must end in a translation.
"""

import os
import re

import pytest

from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import build_plan
from pvmsim.sv39 import SIZE_4K
from pvmsim.walker import walk_single, walk_two_stage
from test_golden import MEASURE_RANDOM_TEXT, PREFIX_TEXT, SINGLE_STAGE_TEXT, WRITES_TEXT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_WORKLOAD = os.path.join(ROOT, "bench", "workloads", "spm-writes-longq.ini")
GOLDEN_TEXTS = {
    "prefix": PREFIX_TEXT,
    "measure-random": MEASURE_RANDOM_TEXT,
    "single-stage": SINGLE_STAGE_TEXT,
    "writes": WRITES_TEXT,
}


def config_text(name):
    if name in GOLDEN_TEXTS:
        return GOLDEN_TEXTS[name]
    if name == "spm-writes-longq":
        with open(BENCH_WORKLOAD, encoding="utf-8") as handle:
            return handle.read()
    return preset_text(name)


def touched_pages(sweep):
    """The 4 KiB pages a Region or an InterferenceLoop can touch: every
    address it yields lies less than a page above one of them."""
    return [sweep.base + page * SIZE_4K for page in range(sweep.pages)]


def walks(ctx, sweeps):
    """The walk of every page `sweeps` can touch, in `ctx`'s spaces."""
    guest, host = ctx.guest_space, ctx.host_space
    for sweep in sweeps:
        for vaddr in touched_pages(sweep):
            if host is None:
                yield vaddr, walk_single(guest, vaddr)
            else:
                yield vaddr, walk_two_stage(guest, host, vaddr)


@pytest.mark.parametrize(
    "name", preset_names() + sorted(GOLDEN_TEXTS) + ["spm-writes-longq"]
)
def test_every_touchable_page_translates(name):
    text = config_text(name)
    defined = re.findall(r"^\[scenario\.([^\]]+)\]", text, re.MULTILINE)
    cfg = load_experiment(text=text, scenarios=defined)
    assert sorted(cfg.scenario_names) == sorted(defined)
    walked = 0
    for scenario in cfg.scenario_names:
        plan = build_plan(cfg.scenarios[scenario])
        measured = plan.measured.workload
        touches = [(plan.measured, measured.prime + measured.measure)]
        touches += [(ctx, (ctx.workload,)) for ctx in plan.interference]
        touches.append((plan.hyp_context, (plan.defn.hyp.footprint,)))
        for ctx, sweeps in touches:
            for vaddr, walk in walks(ctx, sweeps):
                assert walk.fault is None, (
                    scenario, ctx.name, hex(vaddr), walk.fault, walk.fault_stage)
                walked += 1
    assert walked

"""The measured phase re-run from a snapshot of its own start.

Splitting an iteration's interference among the shared structures is a
counterfactual re-run: save the machine where the measured phase starts,
put some structure back, and run the phase again.  Its first gate puts
nothing back.  Save the machine and the jitter and workload generators
where the phase starts, run the phase, restore the machine and set both
generators back, and run the phase again.  MemorySystem.restore copies a
snapshot back and draws nothing, so both runs must take the same cycles,
the same counters() delta and leave the same machine and generator
states, and the first run's cycles must be run_iteration's record.  The
gate runs every scenario of every preset and of WRITES_TEXT.
"""

import random

import pytest

from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import (
    build_plan,
    iteration_seed,
    restore_machine,
    run_range,
    trap_enter,
    trap_exit,
)
from pvmsim.workload import run_interference, run_measure

from state_views import cache_misses, counter_delta
from test_golden import WRITES_TEXT, machine_state

ITERATIONS = 3


def measured_phase(sys, plan, work_rng):
    """Run plan's measured phase on sys: its cycles, counters() delta,
    and the machine and both generators' states after it."""
    before = sys.counters()
    cycles = run_measure(sys, plan.measured, plan.sweeps, work_rng)
    delta = counter_delta(sys.counters(), before)
    jitter = None if sys.rng is None else sys.rng.getstate()
    return cycles, delta, machine_state(sys), jitter, work_rng.getstate()


def run_twice(plan, index):
    """Iteration `index` of plan up to its measured phase, then the phase
    run, the machine restored to the phase's start with both generators
    set back, and the phase run again: (first run, second run)."""
    defn = plan.defn
    jitter_rng = (
        random.Random(iteration_seed(defn.seed, index, "jitter")) if defn.latency.jitter else None
    )
    work_rng = random.Random(iteration_seed(defn.seed, index, "workload"))
    intf_rng = random.Random(iteration_seed(defn.seed, index, "interference"))
    sys = restore_machine(plan, jitter_rng, work_rng)
    for intf in plan.interference:
        trap_exit(sys, intf)
        run_interference(sys, intf, intf.workload, defn.hyp.quantum_cycles, intf_rng)
        trap_enter(plan, sys)
    trap_exit(sys, plan.measured if plan.interference else None)
    state = sys.snapshot()
    saved = [(rng, rng.getstate()) for rng in (jitter_rng, work_rng) if rng is not None]
    first = measured_phase(sys, plan, work_rng)
    sys.restore(state)
    for rng, at in saved:
        rng.setstate(at)
    assert sys.rng is jitter_rng
    return first, measured_phase(sys, plan, work_rng)


@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_rerun_with_nothing_put_back_equals_the_record(text):
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=ITERATIONS)
    drawn = 0  # cache misses whose jitter draws the second run replayed
    for name in cfg.scenario_names:
        defn = cfg.scenarios[name]
        assert defn.latency.jitter
        plan = build_plan(defn)
        records = run_range(build_plan(defn), 0, ITERATIONS)
        for record in records:
            first, second = run_twice(plan, record.index)
            assert second == first, (name, record.index)
            assert first[0] == record.cycles, (name, record.index)
            drawn += cache_misses(first[1])
    assert drawn

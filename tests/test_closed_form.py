"""Plans whose iterations take fixed events draw them instead of simulating them.

An isolation scenario with no random-order region takes the same events
in every iteration, so after its first simulated iteration run_iteration
returns a fixed base plus the jitter draws of the record's cache misses
(hypervisor module docstring).  A plan whose measured phase is fully
guaranteed -- a lock-slot hit and a scratchpad access on every access, as
in every shipped lockspm and partlockspm scenario -- is drawn the same way
whatever interference it runs: its records are one constant.  These tests
hold both closed forms to full simulation: every drawn record must equal
the same iteration run as the first iteration of a fresh plan, on every
preset and on WRITES_TEXT, with and without jitter, serially and through
the process pool.  A plan with an interference VM whose measured phase is
only partly guaranteed (translations locked but the cache exposed, the
scratchpad without locks, one region left unlocked), or an isolation plan
with a random-order prime or measure region, must still simulate its
measured phase on every iteration.  A plan that is both interference-free
and guaranteed, and a guaranteed plan with a random-order prime, are
drawn by the same rule.
"""

from dataclasses import replace
from unittest import mock

import pytest

from pvmsim import hypervisor
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import run_experiment
from pvmsim.hypervisor import build_plan, run_iteration, run_range
from pvmsim.workload import InterferenceLoop, Workload, run_measure

from test_golden import WRITES_TEXT

ITERATIONS = 30
TEXTS = {name: preset_text(name) for name in preset_names()} | {"writes": WRITES_TEXT}


def config(name, jitter, scenario="isolation", seed=1):
    """The experiment `name` reduced to `scenario`, at jitter bound `jitter`."""
    cfg = load_experiment(text=TEXTS[name], seed=seed, iterations=ITERATIONS, scenarios=[scenario])
    defn = cfg.scenarios[scenario]
    defn = replace(defn, latency=replace(defn.latency, jitter=jitter))
    return replace(cfg, scenarios={scenario: defn})


def first_iterations(defn):
    """Each iteration of defn run as the first iteration of a fresh plan."""
    return [run_iteration(build_plan(defn), i) for i in range(defn.iterations)]


def measure_runs(defn, stop=ITERATIONS):
    """(records of iterations [0, stop) of one plan, how many times its
    measured phase ran)."""
    plan = build_plan(defn)
    with mock.patch.object(hypervisor, "run_measure", wraps=run_measure) as spy:
        records = run_range(plan, 0, stop)
    assert plan.sweeps is not None
    return records, sum(1 for call in spy.call_args_list if call.args[2] is plan.sweeps)


def with_measured(defn, change):
    """defn with its measured VM replaced by change(vm)."""
    return replace(defn, vms=tuple(
        change(vm) if isinstance(vm.workload, Workload) else vm for vm in defn.vms
    ))


def with_random_order(defn, phase):
    """defn with every region of its measured VM's `phase` in random order."""
    def shuffle(vm):
        regions = tuple(replace(r, order="random") for r in getattr(vm.workload, phase))
        return replace(vm, workload=replace(vm.workload, **{phase: regions}))
    return with_measured(defn, shuffle)


@pytest.mark.parametrize("jitter", (3, 0))
@pytest.mark.parametrize("name", sorted(TEXTS))
def test_drawn_records_equal_fresh_first_iterations(name, jitter):
    cfg = config(name, jitter)
    defn = cfg.scenarios["isolation"]
    fresh = first_iterations(defn)
    if jitter:
        assert len({r.cycles for r in fresh}) > 1  # the draws matter
    records, runs = measure_runs(defn)
    assert runs == 1  # simulated once, drawn ever after
    assert records == fresh
    # Through the pool each worker simulates the first iteration of its
    # range and draws the rest.
    assert run_experiment(cfg, workers=2)["isolation"] == fresh


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_plans_that_vary_simulate_every_iteration(name):
    stop = 6
    interfered = config(name, 3, scenario="unmitigated").scenarios["unmitigated"]
    isolated = config(name, 3).scenarios["isolation"]
    for defn in (
        interfered,
        with_random_order(isolated, "prime"),
        with_random_order(isolated, "measure"),
    ):
        assert not build_plan(defn).interference_free
        records, runs = measure_runs(defn, stop)
        assert runs == stop
        assert records == first_iterations(replace(defn, iterations=stop))


# Every shipped scenario whose measured phase is fully guaranteed.
GUARANTEED = (
    ("powerwindow-like", "lockspm"),
    ("powerwindow-like", "partlockspm"),
    ("synthetic-spm", "lockspm"),
    ("writes", "lockspm"),
)


def with_one_region_unlocked(defn):
    """defn with the first locked region of its measured VM no longer locked."""
    def unlock(vm):
        regions = list(vm.regions)
        first = next(i for i, r in enumerate(regions) if r.lock)
        regions[first] = replace(regions[first], lock=False)
        return replace(vm, regions=tuple(regions))
    return with_measured(defn, unlock)


@pytest.mark.parametrize("jitter", (3, 0))
@pytest.mark.parametrize("name, scenario", GUARANTEED)
def test_guaranteed_records_equal_fresh_first_iterations(name, scenario, jitter):
    cfg = config(name, jitter, scenario)
    defn = cfg.scenarios[scenario]
    assert not build_plan(defn).interference_free  # drawn for another reason
    fresh = first_iterations(defn)
    assert len({r.cycles for r in fresh}) == 1  # no draw prices a guaranteed access
    assert {(r.tlb_misses, r.cache_misses) for r in fresh} == {(0, 0)}
    records, runs = measure_runs(defn)
    assert runs == 1
    assert records == fresh
    assert run_experiment(cfg, workers=2)[scenario] == fresh
    # A random-order measure only permutes the guaranteed accesses.
    shuffled = with_random_order(defn, "measure")
    records, runs = measure_runs(shuffled)
    assert runs == 1
    assert records == fresh


@pytest.mark.parametrize(
    "name, scenario, vary",
    (
        ("powerwindow-like", "locking", None),  # translations locked, cache exposed
        ("synthetic-spm", "spm", None),  # scratchpad, translations exposed
        ("synthetic-spm", "lockspm", with_one_region_unlocked),
        ("powerwindow-like", "partlockspm", with_one_region_unlocked),
    ),
)
def test_partly_guaranteed_plans_simulate_every_iteration(name, scenario, vary):
    stop = 6
    defn = config(name, 3, scenario).scenarios[scenario]
    if vary is not None:
        defn = vary(defn)
    records, runs = measure_runs(defn, stop)
    assert runs == stop
    assert records == first_iterations(replace(defn, iterations=stop))


def test_a_guaranteed_first_iteration_draws_no_jitter():
    # Its measured phase has no cache miss, so it has nothing to draw;
    # the one jitter_sum call is restore_machine's skip of the prefix's
    # draws, which draws nothing.
    defn = config("synthetic-spm", 3, "lockspm").scenarios["lockspm"]
    plan = build_plan(defn)
    with mock.patch.object(hypervisor, "jitter_sum", wraps=hypervisor.jitter_sum) as spy:
        record = run_iteration(plan, 0)
    assert plan.fixed is not None and record.cache_misses == 0
    (skip,) = spy.call_args_list
    assert skip.args[1:] == (3, 0) and skip.kwargs["after"] > 0


def without_interference(defn):
    """defn with its interference VMs removed."""
    return replace(defn, vms=tuple(
        vm for vm in defn.vms if not isinstance(vm.workload, InterferenceLoop)
    ))


@pytest.mark.parametrize("jitter", (3, 0))
@pytest.mark.parametrize("vary", ("isolated", "random-prime"))
def test_guaranteed_plans_draw_by_the_one_rule(vary, jitter):
    # Both reasons to draw at once, and a guaranteed plan whose prefix
    # draws from the workload stream on every simulated iteration.
    defn = config("synthetic-spm", jitter, "lockspm").scenarios["lockspm"]
    if vary == "isolated":
        defn = without_interference(defn)
        assert build_plan(defn).interference_free
    else:
        defn = with_random_order(defn, "prime")
        assert build_plan(defn).random_prime
    fresh = first_iterations(defn)
    assert {(r.tlb_misses, r.cache_misses) for r in fresh} == {(0, 0)}
    records, runs = measure_runs(defn)
    assert runs == 1
    assert records == fresh

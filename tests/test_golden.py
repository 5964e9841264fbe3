"""Cross-version golden records: every shipped preset, pinned by digest.

The determinism contract says a configuration and seed give the same
records; the other tests check that only within one build.  This file
pins SHA-256 digests of the sorted (scenario, index, cycles, tlb_misses,
cache_misses) rows for every preset at a few seeds, so a change that is
meant to leave behaviour alone (a refactor, a speed-up) is shown to leave
every record alone.  Serial, two-worker and three-worker runs must all
match the pin; at 4 iterations, far below the harness's MIN_SLICE, each
scenario with interference ships whole to the pool, and each
interference-free one runs in the calling process.  The pool's uneven
split is pinned separately: with MIN_SLICE lowered to 1 and 4 CPUs, 7
iterations over 3 workers run as the ranges [0, 3), [3, 6) and [6, 7).

No preset primes in random order, and every preset has jitter, so the
`prefix` section pins PREFIX_TEXT, a cut-down synthetic-nospm whose
critical VM also primes an 8-page region in random order (a shuffle that
draws from the workload stream and changes what the prime leaves behind),
and its jitter = 0 twin, serially and with two workers.  The
`measure-random` section pins the same configuration with the shuffle
moved from the prime to the measured phase (MEASURE_RANDOM_TEXT): its
prime draws nothing, so the prefix runs once, before the snapshot, while
every iteration still seeds a workload generator for its measure.

Every VM of every preset, and of the texts above, translates in two
stages.  The `single-stage` section pins SINGLE_STAGE_TEXT, whose
measured and interference VMs are all `two_stage = false`, one of them
with a locked lower-half region, serially and with two workers.

No preset ever writes backing memory either: every scenario of every
preset ends with an empty memory and no write-back.  So the `writes`
sections pin WRITES_TEXT, shaped like the benchmark's spm-writes-longq: a
kind=write interference loop over one 2 MiB pool and the spm/lockspm
ladder, with a quantum long enough that dirty lines are evicted and
written back.  Its records are pinned serially and with two workers, and
its machine state beside the presets'.

Records cannot see most of the machine: cache evictions, write-backs and
hit counts, PLRU bits, TLB entries and memory words.  MACHINE_PATH pins,
per preset, SHA-256 over the repr of each scenario's machine_state()
after its last iteration (seed 1, serial, ITERATIONS iterations), so a
speed-up that moves any of that state shows even when the records hold.
The last iteration runs as the first iteration of a fresh plan, so the
pin does not depend on whether a plan simulates or draws its later
iterations; test_restoring_a_dirty_machine_leaves_the_fresh_state holds
the machine that every iteration of an `unmitigated` plan restored in
place to that fresh one.
machine_state() reads the state through accessors rather than
MemorySystem.snapshot(), so a change to how the state is stored, which
changes the snapshot's repr, leaves the pin alone.

Records cannot see the output files' formatting or the summary's
statistics either.  OUTPUTS_PATH pins, per preset and seed, SHA-256 over
every scenario CSV that `write_outputs` writes (name and bytes, in
scenario order) and over the summary JSON's bytes without its
config_sha256 line (serial, ITERATIONS iterations), so a formatting or
statistics change shows too, while a preset whose text is rewritten to
the same behaviour does not.

Regenerate (only when records are meant to change, and say so):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from pvmsim import harness
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import run_experiment, write_outputs
from pvmsim.hypervisor import build_plan, run_range
from state_views import data_words, memory_words, tag_state, way_modes

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "records.json")
MACHINE_PATH = os.path.join(GOLDEN_DIR, "machine.json")
OUTPUTS_PATH = os.path.join(GOLDEN_DIR, "outputs.json")
SEEDS = (1, 2)
ITERATIONS = 4
UNEVEN = {"iterations": 7, "seed": 1, "workers": 3}

PREFIX_TEXT = """\
[run]
name = prefix-random
iterations = 6
seed = 1
scenarios = isolation unmitigated

[latency]
memory = 40
jitter = 3

[tlb]
entries = 16
partitions = 16
lock_slots = 8

[cache]
ways = 8
icache_sets = 128
dcache_sets = 256
line_bytes = 16

[hypervisor]
mask = 0x0100
quantum = 2000
footprint_base = 0x00700000
footprint_pages = 2
footprint_stride = 2048

[vm.crit]
vmid = 1
asid = 1
mask = 0xffff
role = measured
region.data0 = base=0x000100000 pages=1 flags=rw
region.data1 = base=0x040100000 pages=1 flags=rw
region.data2 = base=0x080100000 pages=1 flags=rw
region.data3 = base=0x0c0100000 pages=1 flags=rw
region.data4 = base=0x100100000 pages=1 flags=rw
region.data5 = base=0x140100000 pages=1 flags=rw
region.data6 = base=0x180100000 pages=1 flags=rw
region.data7 = base=0x1c0100000 pages=1 flags=rw
region.code = base=0x000600000 pages=2 flags=rx
region.bulk = base=0x000200000 pages=8 flags=rw
prime = bulk stride=2048 order=random; data0 stride=2048; data1 stride=2048; data2 stride=2048; data3 stride=2048; data4 stride=2048; data5 stride=2048; data6 stride=2048; data7 stride=2048; code stride=512
measure = data7 stride=2048; data6 stride=2048; data5 stride=2048; data4 stride=2048; data3 stride=2048; data2 stride=2048; data1 stride=2048; data0 stride=2048; code stride=512 order=reverse; bulk stride=2048

[vm.intf]
vmid = 2
asid = 2
mask = 0xffff
role = interference
region.pool = base=0x40080000 pages=64 flags=rw
loop = pool stride=64 touches=2

[scenario.isolation]
vms = crit
hyp_mask = 0xffff

[scenario.unmitigated]
vms = crit intf
hyp_mask = 0xffff
"""
# variant -> configuration text; the twin differs only in its jitter bound.
PREFIX_VARIANTS = {
    "jitter": PREFIX_TEXT,
    "no-jitter": PREFIX_TEXT.replace("jitter = 3", "jitter = 0"),
}

# PREFIX_TEXT with its prime in fixed order and its last measured region
# in random order.
MEASURE_RANDOM_TEXT = (
    PREFIX_TEXT.replace("name = prefix-random", "name = measure-random")
    .replace("prime = bulk stride=2048 order=random;", "prime = bulk stride=2048;")
    .replace("order=reverse; bulk stride=2048\n", "order=reverse; bulk stride=2048 order=random\n")
)
MEASURE_RANDOM_VARIANTS = {
    "jitter": MEASURE_RANDOM_TEXT,
    "no-jitter": MEASURE_RANDOM_TEXT.replace("jitter = 3", "jitter = 0"),
}


# Single-stage VMs only: the measured VM plain and with its data0 region
# locked, and an interference guest over a 64-page pool.
SINGLE_STAGE_TEXT = """\
[run]
name = single-stage
iterations = 6
seed = 1
scenarios = isolation unmitigated lock

[latency]
memory = 40
jitter = 3

[tlb]
entries = 16
partitions = 16
lock_slots = 8

[cache]
ways = 8
icache_sets = 128
dcache_sets = 256
line_bytes = 16

[hypervisor]
mask = 0x0100
quantum = 2000
footprint_base = 0x00700000
footprint_pages = 2
footprint_stride = 2048

[vm.crit]
vmid = 1
asid = 1
mask = 0xffff
two_stage = false
role = measured
region.data0 = base=0x000100000 pages=2 flags=rw
region.data1 = base=0x040100000 pages=1 flags=rw
region.code = base=0x000600000 pages=2 flags=rx
prime = data0 stride=2048; data1 stride=2048; code stride=512
measure = data1 stride=2048; data0 stride=2048; code stride=512 order=reverse

[vm.crit_lock]
vmid = 1
asid = 1
mask = 0xffff
two_stage = false
role = measured
region.data0 = base=0x000100000 pages=2 flags=rw lock=true
region.data1 = base=0x040100000 pages=1 flags=rw
region.code = base=0x000600000 pages=2 flags=rx
prime = data0 stride=2048; data1 stride=2048; code stride=512
measure = data1 stride=2048; data0 stride=2048; code stride=512 order=reverse

[vm.intf]
vmid = 2
asid = 2
mask = 0xffff
two_stage = false
role = interference
region.pool = base=0x40080000 pages=64 flags=rw
loop = pool stride=64 touches=2

[scenario.isolation]
vms = crit
hyp_mask = 0xffff

[scenario.unmitigated]
vms = crit intf
hyp_mask = 0xffff

[scenario.lock]
vms = crit_lock intf
hyp_mask = 0xffff
"""


# One crit VM per mitigation and a writing interference guest whose pool
# is one 2 MiB superpage: the cache write, eviction and write-back path
# carries the run.
WRITES_TEXT = """\
[run]
name = writes
iterations = 4
seed = 1
scenarios = isolation unmitigated spm lockspm

[latency]
memory = 40
jitter = 3

[tlb]
entries = 16
partitions = 16
lock_slots = 8

[cache]
ways = 8
icache_sets = 128
dcache_sets = 256
line_bytes = 16

[hypervisor]
mask = 0x0100
quantum = 24000
footprint_base = 0x00700000
footprint_pages = 2
footprint_stride = 2048

[vm.crit]
vmid = 1
asid = 1
mask = 0xffff
role = measured
region.data0 = base=0x000100000 pages=1 flags=rw
region.data1 = base=0x040100000 pages=1 flags=rw
region.code = base=0x000600000 pages=2 flags=rx
prime = data0 stride=2048; data1 stride=2048; code stride=512
measure = data1 stride=2048; data0 stride=2048; code stride=512 order=reverse

[vm.crit_spm]
vmid = 1
asid = 1
mask = 0xffff
role = measured
region.data0 = base=0x000100000 pages=1 flags=rw backing=dspm
region.data1 = base=0x040100000 pages=1 flags=rw backing=dspm
region.code = base=0x000600000 pages=2 flags=rx backing=ispm
prime = data0 stride=2048; data1 stride=2048; code stride=512
measure = data1 stride=2048; data0 stride=2048; code stride=512 order=reverse

[vm.crit_lockspm]
vmid = 1
asid = 1
mask = 0xffff
role = measured
region.data0 = base=0x000100000 pages=1 flags=rw backing=dspm lock=true
region.data1 = base=0x040100000 pages=1 flags=rw backing=dspm lock=true
region.code = base=0x000600000 pages=2 flags=rx backing=ispm lock=true
prime = data0 stride=2048; data1 stride=2048; code stride=512
measure = data1 stride=2048; data0 stride=2048; code stride=512 order=reverse

[vm.intf]
vmid = 2
asid = 2
mask = 0xffff
role = interference
region.pool = base=0x40200000 pages=1 flags=rw page_size=2m
loop = pool stride=64 touches=2 kind=write

[scenario.isolation]
vms = crit
hyp_mask = 0xffff

[scenario.unmitigated]
vms = crit intf
hyp_mask = 0xffff

[scenario.spm]
vms = crit_spm intf
hyp_mask = 0xffff
spm_ways = 4

[scenario.lockspm]
vms = crit_lockspm intf
hyp_mask = 0xffff
spm_ways = 4
"""


def records_digest(results):
    """SHA-256 over the sorted (scenario, index, cycles, tlb, cache) rows."""
    rows = sorted(
        (name, r.index, r.cycles, r.tlb_misses, r.cache_misses)
        for name, records in results.items()
        for r in records
    )
    h = hashlib.sha256()
    for row in rows:
        h.update(("%s,%d,%d,%d,%d\n" % row).encode())
    return h.hexdigest()


def run_digest(preset, seed, workers, iterations=ITERATIONS):
    cfg = load_experiment(text=preset_text(preset), seed=seed, iterations=iterations)
    return records_digest(run_experiment(cfg, workers=workers))


def text_digest(text, workers):
    cfg = load_experiment(text=text)
    return records_digest(run_experiment(cfg, workers=workers))


def prefix_digest(variant, workers):
    return text_digest(PREFIX_VARIANTS[variant], workers)


def machine_state(system):
    """Every piece of a MemorySystem's state, read through accessors that
    do not depend on how the state is stored: per TLB its PLRU node bits,
    locked leaves, entries, lock-slot registers and counters; per cache its
    tag state, data words, way modes and statistics (read off its
    snapshot); the partition CSRs and the backing memory's words."""
    tlbs = tuple(
        (
            tlb.tree.snapshot_bits(),
            tlb.tree.locked,
            tuple(tlb.entries),
            tuple(sorted(vars(slot).items()) for slot in tlb.slots),
            (tlb.hits, tlb.misses, tlb.lock_hits, tlb.fills, tlb.dropped_fills),
        )
        for tlb in (system.itlb, system.dtlb)
    )
    caches = tuple(
        (tag_state(cache), data_words(cache), way_modes(cache), sorted(cache.stats.items()))
        for cache in (system.icache, system.dcache)
    )
    csr = system.csr
    return tlbs, caches, (csr.cur_part, csr.last_part), memory_words(system.memory)


def final_machines(text):
    """(scenario name, MemorySystem) after each scenario's last iteration,
    run as the first iteration of a fresh plan: a record depends only on
    (defn, index), and a plan whose later iterations are drawn leaves its
    machine where its first iteration left it."""
    cfg = load_experiment(text=text, seed=1, iterations=ITERATIONS)
    for name in cfg.scenario_names:
        plan = build_plan(cfg.scenarios[name])
        run_range(plan, ITERATIONS - 1, ITERATIONS)
        yield name, plan.machine[0]


def machine_digest(text):
    """SHA-256 over each scenario's machine state after its last iteration."""
    h = hashlib.sha256()
    for name, system in final_machines(text):
        h.update(("%s\n%r\n" % (name, machine_state(system))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("preset", preset_names() + ["writes"])
def test_restoring_a_dirty_machine_leaves_the_fresh_state(preset):
    """An `unmitigated` plan simulates every iteration, each restoring the
    machine its previous one left dirty; after the last, the machine must
    equal the one the last iteration leaves as a fresh plan's first."""
    text = WRITES_TEXT if preset == "writes" else preset_text(preset)
    cfg = load_experiment(text=text, seed=1, iterations=ITERATIONS)
    defn = cfg.scenarios["unmitigated"]
    plan = build_plan(defn)
    run_range(plan, 0, ITERATIONS)
    assert plan.fixed is None  # every iteration was simulated
    fresh = build_plan(defn)
    run_range(fresh, ITERATIONS - 1, ITERATIONS)
    assert repr(machine_state(plan.machine[0])) == repr(machine_state(fresh.machine[0]))


def flip(system, what):
    """Change the one piece of `system`'s state that `what` names."""
    if what == "tlb-node-bit":
        system.dtlb.tree.bits ^= 1
    elif what == "cache-plru-bits":
        system.dcache._plru[0] ^= 1
    elif what == "locked-way":
        system.icache._set_locked(system.icache._locked ^ 1)
    elif what == "memory-word":
        addr = system.memory._regions[0][0]
        system.memory.write_word(addr, system.memory.read_word(addr) ^ 1)
    elif what == "tlb-counter":
        system.itlb.fills += 1
    elif what == "cache-counter":
        system.dcache.stats["write_backs"] += 1
    else:
        raise ValueError(what)


@pytest.mark.parametrize(
    "what",
    ("tlb-node-bit", "cache-plru-bits", "locked-way", "memory-word", "tlb-counter", "cache-counter"),
)
def test_machine_state_sees_each_kind_of_state(what):
    """The pinned projection is no weaker than the snapshot's repr: one
    flipped bit, way, word or counter changes it."""
    cfg = load_experiment(text=preset_text("synthetic-spm"), seed=1, iterations=1)
    plan = build_plan(cfg.scenarios[cfg.scenario_names[-1]])
    run_range(plan, 0, 1)
    system = plan.machine[0]
    before = repr(machine_state(system))
    flip(system, what)
    assert repr(machine_state(system)) != before


def outputs_digests(preset, seed):
    """{"csv": ..., "summary": ...} SHA-256 digests of one run's output files."""
    cfg = load_experiment(text=preset_text(preset), seed=seed, iterations=ITERATIONS)
    results = run_experiment(cfg, workers=1)
    csv, summary = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as outdir:
        *csv_paths, summary_path = write_outputs(outdir, cfg, results)
        for path in csv_paths:
            with open(path, "rb") as handle:
                csv.update(os.path.basename(path).encode() + b"\n" + handle.read())
        with open(summary_path, "rb") as handle:
            for line in handle:
                if not line.lstrip().startswith(b'"config_sha256":'):
                    summary.update(line)
    return {"csv": csv.hexdigest(), "summary": summary.hexdigest()}


def load_golden(path=GOLDEN_PATH):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_golden(path, content):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(content, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


def test_golden_file_covers_every_preset():
    golden = load_golden()
    assert golden["iterations"] == ITERATIONS
    assert sorted(golden["digests"]) == preset_names()
    for preset in preset_names():
        assert sorted(golden["digests"][preset]) == [str(s) for s in SEEDS]
    assert {k: v for k, v in golden["uneven"].items() if k != "digests"} == UNEVEN
    assert sorted(golden["uneven"]["digests"]) == preset_names()
    assert sorted(golden["prefix"]) == sorted(PREFIX_VARIANTS)
    assert sorted(golden["measure-random"]) == sorted(MEASURE_RANDOM_VARIANTS)
    assert isinstance(golden["single-stage"], str)
    assert isinstance(golden["writes"], str)


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", preset_names())
def test_records_match_golden_digest(preset, seed, workers):
    expected = load_golden()["digests"][preset][str(seed)]
    assert run_digest(preset, seed, workers) == expected


@pytest.mark.parametrize("preset", preset_names())
def test_uneven_ranges_match_golden_digest(preset, pools, monkeypatch):
    monkeypatch.setattr(harness, "MIN_SLICE", 1)
    expected = load_golden()["uneven"]["digests"][preset]
    assert run_digest(preset, UNEVEN["seed"], UNEVEN["workers"], UNEVEN["iterations"]) == expected
    [pool] = pools
    shipped = pool.ranges()
    assert shipped
    assert all(ranges == [(0, 3), (3, 6), (6, 7)] for ranges in shipped.values())


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("variant", sorted(PREFIX_VARIANTS))
def test_random_order_prime_matches_golden_digest(variant, workers):
    assert prefix_digest(variant, workers) == load_golden()["prefix"][variant]


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("variant", sorted(MEASURE_RANDOM_VARIANTS))
def test_random_order_measure_matches_golden_digest(variant, workers):
    text = MEASURE_RANDOM_VARIANTS[variant]
    assert text_digest(text, workers) == load_golden()["measure-random"][variant]


@pytest.mark.parametrize("workers", (1, 2))
def test_single_stage_records_match_golden_digest(workers):
    assert text_digest(SINGLE_STAGE_TEXT, workers) == load_golden()["single-stage"]


def test_single_stage_config_maps_no_host_space():
    """The gap the single-stage section closes: every VM of every plan is
    mapped without a host space, and the lock scenario hits its slots."""
    cfg = load_experiment(text=SINGLE_STAGE_TEXT)
    for name in cfg.scenario_names:
        plan = build_plan(cfg.scenarios[name])
        assert all(ctx.host_space is None for ctx in (plan.measured,) + plan.interference)
        run_range(plan, 0, 1)
        assert (plan.machine[0].dtlb.lock_hits > 0) == (name == "lock"), name


@pytest.mark.parametrize("workers", (1, 2))
def test_writes_records_match_golden_digest(workers):
    assert text_digest(WRITES_TEXT, workers) == load_golden()["writes"]


def test_writes_config_writes_back_memory():
    """The gap the writes sections close: each scenario that runs the
    writing guest ends with write-backs and non-zero memory words."""
    for name, system in final_machines(WRITES_TEXT):
        if name != "isolation":
            assert system.dcache.stats["write_backs"] > 0, name
            assert memory_words(system.memory), name


def test_machine_file_covers_every_preset():
    assert sorted(load_golden(MACHINE_PATH)) == sorted(preset_names() + ["writes"])


@pytest.mark.parametrize("preset", preset_names())
def test_machine_state_matches_golden_digest(preset):
    assert machine_digest(preset_text(preset)) == load_golden(MACHINE_PATH)[preset]


def test_writes_machine_state_matches_golden_digest():
    assert machine_digest(WRITES_TEXT) == load_golden(MACHINE_PATH)["writes"]


def test_outputs_file_covers_every_preset():
    golden = load_golden(OUTPUTS_PATH)
    assert sorted(golden) == preset_names()
    for preset in preset_names():
        assert sorted(golden[preset]) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", preset_names())
def test_outputs_match_golden_digest(preset, seed):
    assert outputs_digests(preset, seed) == load_golden(OUTPUTS_PATH)[preset][str(seed)]


def main():
    digests = {
        preset: {str(seed): run_digest(preset, seed, 1) for seed in SEEDS}
        for preset in preset_names()
    }
    uneven = dict(
        UNEVEN,
        digests={
            preset: run_digest(preset, UNEVEN["seed"], 1, UNEVEN["iterations"])
            for preset in preset_names()
        },
    )
    prefix = {variant: prefix_digest(variant, 1) for variant in PREFIX_VARIANTS}
    measure_random = {
        variant: text_digest(text, 1) for variant, text in MEASURE_RANDOM_VARIANTS.items()
    }
    dump_golden(
        GOLDEN_PATH,
        {
            "iterations": ITERATIONS, "digests": digests, "uneven": uneven, "prefix": prefix,
            "measure-random": measure_random, "single-stage": text_digest(SINGLE_STAGE_TEXT, 1),
            "writes": text_digest(WRITES_TEXT, 1),
        },
    )
    machine = {preset: machine_digest(preset_text(preset)) for preset in preset_names()}
    dump_golden(MACHINE_PATH, dict(machine, writes=machine_digest(WRITES_TEXT)))
    dump_golden(
        OUTPUTS_PATH,
        {
            preset: {str(seed): outputs_digests(preset, seed) for seed in SEEDS}
            for preset in preset_names()
        },
    )


if __name__ == "__main__":
    main()

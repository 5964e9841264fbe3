"""Cross-version golden records: every shipped preset, pinned by digest.

The determinism contract says a configuration and seed give the same
records; the other tests check that only within one build.  This file
pins SHA-256 digests of the sorted (scenario, index, cycles, tlb_misses,
cache_misses) rows for every preset at a few seeds, so a change that is
meant to leave behaviour alone (a refactor, a speed-up) is shown to leave
every record alone.  Serial, two-worker and three-worker runs must all
match the pin; at 4 iterations three workers fall below the harness's
2 * workers threshold and run in the calling process.  The process pool's
uneven split is pinned separately: 7 iterations over 3 workers run as the
ranges [0, 3), [3, 6) and [6, 7).

No preset primes in random order, and every preset has jitter, so the
`prefix` section pins PREFIX_TEXT, a cut-down synthetic-nospm whose
critical VM also primes an 8-page region in random order (a shuffle that
draws from the workload stream and changes what the prime leaves behind),
and its jitter = 0 twin, serially and with two workers.

Records cannot see most of the machine: cache evictions, write-backs and
hit counts, PLRU bits, TLB entries and memory words.  MACHINE_PATH pins,
per preset, SHA-256 over each scenario's repr(MemorySystem.snapshot())
after its last iteration (seed 1, serial, ITERATIONS iterations), so a
speed-up that moves any of that state shows even when the records hold.

Regenerate (only when records are meant to change, and say so):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import run_experiment
from pvmsim.hypervisor import build_plan, run_range

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "records.json")
MACHINE_PATH = os.path.join(GOLDEN_DIR, "machine.json")
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


def prefix_digest(variant, workers):
    cfg = load_experiment(text=PREFIX_VARIANTS[variant])
    return records_digest(run_experiment(cfg, workers=workers))


def machine_digest(preset):
    """SHA-256 over each scenario's machine state after its last iteration."""
    cfg = load_experiment(text=preset_text(preset), seed=1, iterations=ITERATIONS)
    h = hashlib.sha256()
    for name in cfg.scenario_names:
        plan = build_plan(cfg.scenarios[name])
        run_range(plan, 0, ITERATIONS)
        h.update(("%s\n%r\n" % (name, plan.machine[0].snapshot())).encode())
    return h.hexdigest()


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


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", preset_names())
def test_records_match_golden_digest(preset, seed, workers):
    expected = load_golden()["digests"][preset][str(seed)]
    assert run_digest(preset, seed, workers) == expected


@pytest.mark.parametrize("preset", preset_names())
def test_uneven_ranges_match_golden_digest(preset):
    expected = load_golden()["uneven"]["digests"][preset]
    assert run_digest(preset, UNEVEN["seed"], UNEVEN["workers"], UNEVEN["iterations"]) == expected


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("variant", sorted(PREFIX_VARIANTS))
def test_random_order_prime_matches_golden_digest(variant, workers):
    assert prefix_digest(variant, workers) == load_golden()["prefix"][variant]


def test_machine_file_covers_every_preset():
    assert sorted(load_golden(MACHINE_PATH)) == preset_names()


@pytest.mark.parametrize("preset", preset_names())
def test_machine_state_matches_golden_digest(preset):
    assert machine_digest(preset) == load_golden(MACHINE_PATH)[preset]


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
    dump_golden(
        GOLDEN_PATH,
        {"iterations": ITERATIONS, "digests": digests, "uneven": uneven, "prefix": prefix},
    )
    dump_golden(MACHINE_PATH, {preset: machine_digest(preset) for preset in preset_names()})


if __name__ == "__main__":
    main()

"""MemorySystem.run_loop against the rich path it stands in for.

reference_loop is the interference loop as it was written before the
kernel: one virtual_access per touch, its outcome summed.  run_loop (through
workload.run_interference) must return the same cycles, leave the same
machine_state() projection that tests/test_golden.py pins, and leave the
loop's generator and the jitter generator in the same state.  This is
checked on every interference quantum of every shipped preset's scenarios,
and on synthetic loops: each kind, jitter on and off, writes that hit
clean lines, a 2 MiB pool, a two-stage pool, a pool in a converted scratchpad and one in an unconverted
window slice, lock-slot hits, and CUR_PART = 0 so that every TLB fill drops.

run_loop serves a hit on the TLB's last-hit memo itself, so some synthetic
loops enter their first quantum with a D-TLB memo that must not serve
them: one left by another VM at the same addresses (another asid, or
another vmid), one covering a whole 2 MiB superpage, and one left by a
lock-slot hit.

Because the loop serves hits without calling Tlb.lookup or Cache.access,
a counting test checks that the simulator's own counters still see
every touch: one TLB lookup per address the loop consumed, and one cache
event per touch and per walk fetch.  Over a whole iteration, prime and
trap footprints included, one _refill per TLB miss and one cache event
per lookup and per walk fetch, so walks are derivable from those tallies.

The measured phase runs through run_loop too: workload.compile_sweeps
merges consecutive fixed-order regions of one kind and compute charge
into one sweep, and workload.run_measure runs each sweep with no
quantum.  From the same restored machine the compiled phase must return
run_regions' cycles and leave the same machine state and the same jitter
and workload generators, on every scenario of every preset and of
WRITES_TEXT, with the shipped measure regions and in random order, at
jitter 0 and 3; and a sweep that meets a faulting page must raise the
same SimulationError at the same access.  A region list that crosses
every merge boundary (kind, compute charge, a random-order region between
two mergeable ones) must also match one run_loop per region, and each
preset's measured phase makes exactly as many run_loop calls as it has
sweeps.

The hypervisor's footprint runs through run_loop too, one compiled sweep
per trap: it must match run_regions of the footprint from the same
restored machine on every scenario of every preset and of WRITES_TEXT.
run_loop draws a miss's jitter and computes a store's value in its own
frame, so a write loop is held to the rich path at jitter bounds whose
draws reject, and its stored words to write_value.
"""

import math
import random
from dataclasses import replace
from unittest import mock

import pytest

from pvmsim import hypervisor
from pvmsim.cache import MODE_SPM
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import (
    build_plan,
    iteration_seed,
    restore_machine,
    run_iteration,
    trap_enter,
    trap_exit,
)
from pvmsim.memsys import MemorySystem, SimulationError, randbelow, write_value
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_V, PTE_W, SIZE_2M, SIZE_4K, make_pte
from pvmsim.walker import walk_single, walk_two_stage
from pvmsim.workload import (
    InterferenceLoop,
    Region,
    compile_sweeps,
    run_interference,
    run_measure,
    run_regions,
)
from test_closed_form import with_random_order
from test_golden import WRITES_TEXT, machine_state
from test_pipeline_oracle import DATA_BASE, GEOMETRY, build_vms, make_system
from state_views import cache_misses, counter_delta, counter_sum, tlb_misses

ITERATIONS = 3


def reference_loop(sys, vm, loop, quantum, rng):
    """Run the interference loop until `quantum` cycles are consumed."""
    spent = 0
    per_page = max(1, SIZE_4K // loop.stride)
    touches = min(loop.touches_per_page, per_page)
    base, pages, stride, kind = loop.base, loop.pages, loop.stride, loop.kind
    write = kind == "write"
    getrandbits = rng.getrandbits
    while spent < quantum:
        page_base = base + randbelow(getrandbits, pages) * SIZE_4K
        for _ in range(touches):
            vaddr = page_base + randbelow(getrandbits, per_page) * stride
            value = write_value(vaddr) if write else None
            spent += sys.virtual_access(vaddr, kind, vm, value).total_cycles + loop.compute_cycles
            if spent >= quantum:
                break
    return spent


def generators(sys, rng):
    return rng.getstate(), None if sys.rng is None else sys.rng.getstate()


def interference_quanta(plan, index, run):
    """Iteration `index` of `plan` up to its measured phase, each
    interference quantum run by `run`; per quantum its cycles, the machine
    state and both generators' states after it."""
    defn = plan.defn
    jitter_rng = (
        random.Random(iteration_seed(defn.seed, index, "jitter")) if defn.latency.jitter else None
    )
    work_rng = random.Random(iteration_seed(defn.seed, index, "workload"))
    intf_rng = random.Random(iteration_seed(defn.seed, index, "interference"))
    sys = restore_machine(plan, jitter_rng, work_rng)
    quanta = []
    for intf in plan.interference:
        trap_exit(sys, intf)
        spent = run(sys, intf, intf.workload, defn.hyp.quantum_cycles, intf_rng)
        quanta.append((spent, machine_state(sys), generators(sys, intf_rng)))
        trap_enter(plan, sys)
    return quanta


@pytest.mark.parametrize("preset", preset_names())
def test_kernel_matches_rich_path_on_every_preset(preset):
    cfg = load_experiment(text=preset_text(preset), seed=1, iterations=ITERATIONS)
    quanta = 0
    for name in cfg.scenario_names:
        defn = cfg.scenarios[name]
        kernel, rich = build_plan(defn), build_plan(defn)
        for index in range(ITERATIONS):
            got = interference_quanta(kernel, index, run_interference)
            want = interference_quanta(rich, index, reference_loop)
            assert len(got) == len(want)
            for n, (ours, theirs) in enumerate(zip(got, want)):
                assert ours[0] == theirs[0], (name, index, n, "spent")
                assert ours[1] == theirs[1], (name, index, n, "machine state")
                assert ours[2] == theirs[2], (name, index, n, "generators")
            quanta += len(got)
    assert quanta


def lock_pool_page(sys, vms):
    """Pin the first page of VM a's data pool in a D-TLB lock slot."""
    a = vms[0]
    pte = make_pte(DATA_BASE >> 12, PTE_R | PTE_W | PTE_A | PTE_D | PTE_V)
    sys.dtlb.program_lock_slot(0, "vpn", vpn=0x400, page_size=SIZE_4K, flags=pte & 0xFF)
    sys.dtlb.program_lock_slot(0, "pte", pte=pte)
    sys.dtlb.program_lock_slot(0, "id", asid=a.asid, vmid=a.vmid)


def convert_dspm(sys, vms):
    for way in range(GEOMETRY["ways"]):
        sys.dcache.configure_way(way, MODE_SPM)


def drop_every_fill(sys, vms):
    sys.csr.write_cur_part(0)


def read_pool(sys, vms):
    """Bring VM a's first two data pages in clean, so that writes hit
    clean lines."""
    for offset in range(0, 2 * SIZE_4K, GEOMETRY["line_bytes"]):
        sys.virtual_access(0x40_0000 + offset, "read", vms[0])


def warm_memo(vm_index, vaddr, cover):
    """Leave the D-TLB memo to VM `vm_index`'s translation of vaddr: a miss
    fills the entry, and the next lookup's scan hit sets the memo, whose
    cover must be `cover` bytes."""

    def setup(sys, vms):
        for _ in range(2):
            sys.virtual_access(vaddr, "read", vms[vm_index])
        memo = sys.dtlb._memo
        assert memo is not None and memo[2:4] == (vms[vm_index].asid, vms[vm_index].vmid)
        assert memo[0] == -cover

    return setup


def warm_lock_memo(sys, vms):
    """Leave the D-TLB memo to a lock-slot hit of VM a on its first data page."""
    lock_pool_page(sys, vms)
    sys.virtual_access(0x40_0000, "read", vms[0])
    assert sys.dtlb._memo[8] and sys.dtlb.lock_hits == 1


def hits(side):
    return lambda sys: getattr(sys, side).stats["hits"] > 0


def entries_for(vpn, count):
    """Whether the D-TLB holds `count` valid entries for vpn: the loop's
    VM filled its own beside the one the warm memo came from."""
    return lambda sys: sum(e.valid and e.vpn == vpn for e in sys.dtlb.entries) == count


# name -> (VM index, loop, set-up, what the loop must have shown on its
# machine); VMs 0 and 1 are single-stage, VM 2 is two-stage.
CASES = {
    "read": (0, InterferenceLoop(base=0x40_0000, pages=12), None, hits("dcache")),
    "write": (
        0, InterferenceLoop(base=0x40_0000, pages=12, kind="write", touches_per_page=3), None,
        lambda sys: sys.dcache.stats["hits"] and sys.dcache.stats["write_backs"],
    ),
    "write-over-clean-lines": (
        0, InterferenceLoop(base=0x40_0000, pages=2, kind="write"), read_pool, hits("dcache"),
    ),
    "ifetch": (
        1, InterferenceLoop(base=0x60_0000, pages=4, kind="ifetch", stride=16), None,
        hits("icache"),
    ),
    "compute": (
        0, InterferenceLoop(base=0x40_0000, pages=3, kind="write", compute_cycles=4), None,
        hits("dcache"),
    ),
    "one-touch-pages": (
        0, InterferenceLoop(base=0x40_0000, pages=12, stride=SIZE_4K), None,
        lambda sys: sys.dtlb.misses > 12,
    ),
    "2mib-pool": (
        0, InterferenceLoop(base=0x4000_0000, pages=16, kind="write"), None,
        lambda sys: any(e.valid and e.page_size > SIZE_4K for e in sys.dtlb.entries),
    ),
    "two-stage": (
        2, InterferenceLoop(base=0x80_0000, pages=8, kind="write", stride=32), None,
        hits("dcache"),
    ),
    "converted-spm": (
        0, InterferenceLoop(base=0x10_0000, pages=1, kind="write"), convert_dspm,
        lambda sys: sys.dcache.stats["spm_accesses"] and sys.dcache.stats["fill_drops"],
    ),
    "unconverted-window": (
        0, InterferenceLoop(base=0x10_0000, pages=1, kind="write"), None,
        lambda sys: sys.dcache.stats["spm_misconfigs"],
    ),
    "lock-slot-hits": (
        0, InterferenceLoop(base=0x40_0000, pages=2, kind="write"), lock_pool_page,
        lambda sys: sys.dtlb.lock_hits and sys.dtlb.hits > sys.dtlb.lock_hits,
    ),
    "every-fill-drops": (
        2, InterferenceLoop(base=0x40_0000, pages=8), drop_every_fill,
        lambda sys: sys.dtlb.dropped_fills and not sys.dtlb.fills,
    ),
    # Each loop enters on a memo it must not use.  VM a is asid 1, vmid 0;
    # VM b (asid 2, vmid 0) shares a's tables, and VM c (asid 1, vmid 3)
    # maps the same guest addresses elsewhere.
    "memo-of-another-asid": (
        0, InterferenceLoop(base=0x40_0000, pages=1, kind="write"),
        warm_memo(1, 0x40_0000, SIZE_4K), entries_for(0x400, 2),
    ),
    "memo-of-another-vmid": (
        0, InterferenceLoop(base=0x40_0000, pages=1, kind="write"),
        warm_memo(2, 0x40_0000, SIZE_4K), entries_for(0x400, 2),
    ),
    "superpage-memo-of-another-asid": (
        0, InterferenceLoop(base=0x4000_0000, pages=16, kind="write"),
        warm_memo(1, 0x4000_0000, SIZE_2M), entries_for(0x4000_0000 >> 12, 2),
    ),
    "lock-slot-memo-of-another-asid": (
        1, InterferenceLoop(base=0x40_0000, pages=1, kind="write"), warm_lock_memo,
        lambda sys: sys.dtlb.lock_hits == 1 and entries_for(0x400, 1)(sys),
    ),
}


@pytest.mark.parametrize("jitter", [0, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_rich_path_on_synthetic_loops(case, jitter):
    vm_index, loop, setup, shown = CASES[case]
    runs = []
    for run in (run_interference, reference_loop):
        sys = make_system(7, jitter)
        vms = build_vms()[0]
        if setup is not None:
            setup(sys, vms)
        rng = random.Random(11)
        # Two quanta: the second starts from what the first left behind.
        spent = [run(sys, vms[vm_index], loop, quantum, rng) for quantum in (3000, 5000)]
        assert shown(sys), run.__name__
        runs.append((spent, machine_state(sys), generators(sys, rng)))
    (spent, state, gens), (want_spent, want_state, want_gens) = runs
    assert spent == want_spent
    assert state == want_state
    assert gens == want_gens


# A write loop whose misses draw at every jitter bound below: spans 3, 7
# and 17, so the draw's rejection loop takes 2, 3 and 5 bits and rejects.
WRITE_LOOP = InterferenceLoop(base=0x40_0000, pages=12, kind="write", touches_per_page=3)


@pytest.mark.parametrize("jitter", [1, 3, 8])
def test_inline_draws_and_stores_match_the_rich_path(jitter):
    """run_loop draws a miss's jitter and computes a store's value in its
    own frame: the same cycles, machine and generators as the rich path,
    and every word it stored is write_value of the address stored to."""
    vm = build_vms()[0][0]
    runs = []
    for run in (run_interference, reference_loop):
        sys = make_system(7, jitter)
        rng = random.Random(11)
        spent = [run(sys, vm, WRITE_LOOP, quantum, rng) for quantum in (3000, 5000)]
        runs.append((spent, machine_state(sys), generators(sys, rng), sys.memory._words))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][2][1] != random.Random(7).getstate()  # jitter was drawn
    words = runs[0][3]  # run_loop's
    paddrs = {vaddr: walk_single(vm.guest_space, vaddr).paddr
              for vaddr in range(WRITE_LOOP.base, WRITE_LOOP.base + 12 * SIZE_4K, 8)}
    stored = [vaddr for vaddr, paddr in paddrs.items() if paddr in words]
    assert len(stored) > 12
    for vaddr in stored:
        assert words[paddrs[vaddr]] == write_value(vaddr)


class CountingStream:
    """An address stream that counts the addresses taken from it."""

    def __init__(self, addresses):
        self.addresses = addresses
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        vaddr = next(self.addresses)
        self.taken += 1
        return vaddr


def lookups(counts, *tlbs):
    """TLB lookups of `tlbs` ("itlb", "dtlb") in a counters() tuple or
    delta: each is a hit or a miss."""
    return counter_sum(counts, *(tlb + tally for tlb in tlbs for tally in (".hits", ".misses")))


def cache_events(counts, *caches):
    """Cache events of `caches` ("icache", "dcache") in a counters() tuple
    or delta: each access or walk fetch is a hit, a miss or a scratchpad
    event."""
    tallies = (".hits", ".misses", ".spm_accesses", ".spm_misconfigs")
    return counter_sum(counts, *(cache + tally for cache in caches for tally in tallies))


def walk_fetches(vm, vaddr):
    """How many PTE fetches the walk of vaddr's page takes for `vm`."""
    if vm.host_space is None:
        return len(walk_single(vm.guest_space, vaddr).accesses)
    return len(walk_two_stage(vm.guest_space, vm.host_space, vaddr).accesses)


def counted_loop(seen):
    """A run for interference_quanta that checks one quantum's counters:
    one lookup per address taken, and on the loop's side of the machine
    one cache event per touch, plus one D-cache event per fetch of the
    walk of each address the TLB missed.  Appends (touches, walk fetches)
    to `seen`."""

    def run(sys, vm, loop, quantum, rng):
        ifetch = loop.kind == "ifetch"
        tlb, side, cache = (sys.itlb, "itlb", "icache") if ifetch else (sys.dtlb, "dtlb", "dcache")
        missed = []
        translate = tlb.translate

        def spy(vaddr, asid, vmid):
            paddr = translate(vaddr, asid, vmid)
            if paddr is None:
                missed.append(vaddr)
            return paddr

        before = sys.counters()
        stream = CountingStream(loop.addresses(rng))
        tlb.translate = spy
        try:
            spent = sys.run_loop(vm, loop.kind, stream, loop.compute_cycles, quantum)
        finally:
            del tlb.translate
        touches = stream.taken
        walked = sum(walk_fetches(vm, vaddr) for vaddr in missed)
        delta = counter_delta(sys.counters(), before)
        assert lookups(delta, side) == touches
        if ifetch:
            assert cache_events(delta, cache) == touches
            assert cache_events(delta, "dcache") == walked
        else:
            assert cache_events(delta, cache) == touches + walked
        seen.append((touches, walked))
        return spent

    return run


@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_counters_see_every_touch(text):
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=ITERATIONS)
    seen = []
    for name in cfg.scenario_names:
        plan = build_plan(cfg.scenarios[name])
        for index in range(ITERATIONS):
            interference_quanta(plan, index, counted_loop(seen))
    assert any(touches for touches, _ in seen)
    assert any(walked for _, walked in seen)


@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_walks_are_derivable_from_a_whole_iterations_tallies(text):
    """Over one simulated iteration (prime, trap footprints, interference
    quanta and measured phase, on the machine the plan's first iteration
    builds, so its tallies start at zero), every TLB miss is one _refill,
    and every cache event beyond one per TLB lookup is one of its walk
    fetches: walks and walk fetches need no tally of their own."""
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=1)
    refill = MemorySystem._refill
    fetches = []  # per _refill call, its walk's fetch count

    def counted(self, tlb, vm, vaddr, pages):
        walk, paddr, cycles = refill(self, tlb, vm, vaddr, pages)
        fetches.append(len(walk.accesses))
        return walk, paddr, cycles

    with mock.patch.object(MemorySystem, "_refill", counted):
        for name in cfg.scenario_names:
            plan = build_plan(cfg.scenarios[name])
            fetches.clear()
            run_iteration(plan, 0)
            counts = plan.machine[0].counters()
            assert len(fetches) == tlb_misses(counts) > 0, name
            events = cache_events(counts, "icache", "dcache")
            assert sum(fetches) == events - lookups(counts, "itlb", "dtlb"), name


def footprint_sweeps(plan, index, sweep):
    """Iteration `index` of `plan` with a footprint sweep, run by `sweep`,
    after the restore and after each interference quantum: per sweep its
    cycles, its counters() delta, the machine state and the jitter
    generator's state."""
    defn = plan.defn
    jitter_rng = (
        random.Random(iteration_seed(defn.seed, index, "jitter")) if defn.latency.jitter else None
    )
    work_rng = random.Random(iteration_seed(defn.seed, index, "workload"))
    intf_rng = random.Random(iteration_seed(defn.seed, index, "interference"))
    sys = restore_machine(plan, jitter_rng, work_rng)
    hyp, footprint = plan.hyp_context, defn.hyp.footprint
    seen = []
    for intf in (None, *plan.interference):
        if intf is not None:
            trap_exit(sys, intf)
            run_interference(sys, intf, intf.workload, defn.hyp.quantum_cycles, intf_rng)
        sys.csr.write_cur_part(hyp.partition_mask)
        before = sys.counters()
        cycles = sweep(sys, hyp, footprint)
        delta = counter_delta(sys.counters(), before)
        seen.append((cycles, delta, machine_state(sys), generators(sys, work_rng)[1]))
    return seen


@pytest.mark.parametrize("jitter", [0, 3])
@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_footprint_sweep_matches_rich_path(text, jitter):
    """The trap footprint as trap_enter sweeps it, one compiled run_loop,
    against run_regions of the footprint, from the same restored machine:
    equal cycles, machine state and jitter generator, on every scenario."""
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=ITERATIONS)
    tlb_missed = cache_missed = 0
    for name in cfg.scenario_names:
        defn = cfg.scenarios[name]
        defn = replace(defn, latency=replace(defn.latency, jitter=jitter))
        swept, rich = build_plan(defn), build_plan(defn)
        for index in range(ITERATIONS):
            got = footprint_sweeps(
                swept, index,
                lambda sys, hyp, footprint: run_measure(
                    sys, hyp, compile_sweeps((footprint,)), None
                ),
            )
            want = footprint_sweeps(
                rich, index, lambda sys, hyp, footprint: run_regions(sys, hyp, (footprint,))
            )
            assert got == want, (name, index)
            tlb_missed += sum(tlb_misses(delta) for _, delta, _, _ in got)
            cache_missed += sum(cache_misses(delta) for _, delta, _, _ in got)
    if text != "writes":  # whose interference evicts neither the footprint's entry nor its lines
        assert tlb_missed and cache_missed  # the sweeps walked, and drew when jitter is on


def compiled_measure(sys, vm, regions, rng):
    """The measured phase as run_iteration runs it: `regions` compiled
    into sweeps, each one run_loop."""
    return run_measure(sys, vm, compile_sweeps(regions), rng)


def measure_per_region(sys, vm, regions, rng):
    """The measured phase one run_loop per region, as it ran before
    regions were merged into sweeps."""
    return sum(
        sys.run_loop(vm, region.kind, region.addresses(rng), region.compute_cycles, math.inf)
        for region in regions
    )


def measured_phase(plan, index, run):
    """Iteration `index` of `plan` with its measured phase run by `run`:
    the phase's cycles and counters() delta, the machine state and both
    generators' states after it."""
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
    crit = plan.measured
    trap_exit(sys, crit if plan.interference else None)
    before = sys.counters()
    cycles = run(sys, crit, crit.workload.measure, work_rng)
    delta = counter_delta(sys.counters(), before)
    return cycles, delta, machine_state(sys), generators(sys, work_rng)


@pytest.mark.parametrize("jitter", [0, 3])
@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_measure_sweep_matches_rich_path(text, jitter):
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=ITERATIONS)
    missed = 0
    for name in cfg.scenario_names:
        defn = cfg.scenarios[name]
        defn = replace(defn, latency=replace(defn.latency, jitter=jitter))
        for order, variant in (("shipped", defn), ("random", with_random_order(defn, "measure"))):
            sweep, rich = build_plan(variant), build_plan(variant)
            for index in range(ITERATIONS):
                got = measured_phase(sweep, index, compiled_measure)
                want = measured_phase(rich, index, run_regions)
                assert got == want, (name, order, index)
                missed += cache_misses(got[1])
    assert missed  # the jitter draws, when on, were taken


# VM index -> a region list no preset measures: compute charges, repeats,
# long sweeps, every kind, a 2 MiB page, a converted scratchpad page and
# a two-stage VM.
SYNTHETIC_MEASURES = {
    0: (
        Region(base=0x40_0000, pages=12, stride=0x200, order="random", repeats=3, kind="write",
               compute_cycles=5),
        Region(base=0x60_0000, pages=4, stride=0x40, kind="ifetch", compute_cycles=2),
        Region(base=0x4000_0000, pages=16, stride=0x400, order="reverse", repeats=2),
        Region(base=0x10_0000, pages=1, stride=0x80, kind="write", compute_cycles=1),
    ),
    2: (
        Region(base=0x80_0000, pages=8, stride=0x100, order="random", repeats=2, kind="write",
               compute_cycles=7),
        Region(base=0x40_0000, pages=8, stride=0x800, order="reverse"),
    ),
}


@pytest.mark.parametrize("jitter", [0, 3])
@pytest.mark.parametrize("vm_index", sorted(SYNTHETIC_MEASURES))
def test_measure_sweep_matches_rich_path_on_synthetic_regions(vm_index, jitter):
    compiled, per_region, rich = synthetic_runs(vm_index, SYNTHETIC_MEASURES[vm_index], jitter)
    assert compiled == per_region == rich
    assert compiled[0][0] > 20_000  # far past any quantum a preset grants


def synthetic_runs(vm_index, regions, jitter):
    """Two passes of `regions` by VM `vm_index` on a fresh machine with its
    data scratchpad converted, through the compiled sweeps, one run_loop
    per region and run_regions: per path, each pass's cycles and counters()
    delta, then the machine state and both generators' states."""
    runs = []
    for run in (compiled_measure, measure_per_region, run_regions):
        sys = make_system(7, jitter)
        convert_dspm(sys, None)
        vm = build_vms()[0][vm_index]
        rng = random.Random(5)
        # Twice: the second pass starts from what the first left behind.
        cycles, deltas = [], []
        for _ in range(2):
            before = sys.counters()
            cycles.append(run(sys, vm, regions, rng))
            deltas.append(counter_delta(sys.counters(), before))
        runs.append((cycles, deltas, machine_state(sys), generators(sys, rng)))
    return runs


# VM index -> (a region list that crosses every merge boundary, the sweeps
# it compiles to as (kind, compute cycles, accesses, or "random")).
MERGE_BOUNDARIES = {
    0: (
        (
            Region(base=0x40_0000, pages=4, stride=0x400),
            Region(base=0x40_4000, pages=4, stride=0x800, order="reverse", repeats=2),
            Region(base=0x4000_0000, pages=8, stride=0x1000),  # inside one 2 MiB page
            Region(base=0x40_0000, pages=6, stride=0x200, kind="write"),  # a new kind
            Region(base=0x10_0000, pages=1, stride=0x80, kind="write"),  # the scratchpad
            Region(base=0x60_0000, pages=4, stride=0x100, kind="ifetch"),  # a new kind
            Region(base=0x60_0000, pages=2, stride=0x100, kind="ifetch", compute_cycles=3),
            Region(base=0x40_0000, pages=3, stride=0x400, kind="write", compute_cycles=3),
            Region(base=0x40_0000, pages=12, stride=0x400, order="random", kind="write",
                   compute_cycles=3),  # between two regions that would merge
            Region(base=0x40_8000, pages=4, stride=0x400, kind="write", compute_cycles=3),
            Region(base=0x40_0000, pages=6, stride=0x800, order="random", kind="write",
                   compute_cycles=3, repeats=2),  # next to another random region
        ),
        (
            ("read", 0, 4 * 4 + 2 * 4 * 2 + 8),
            ("write", 0, 6 * 8 + 32),
            ("ifetch", 0, 4 * 16),
            ("ifetch", 3, 2 * 16),
            ("write", 3, 3 * 4),
            ("write", 3, "random"),
            ("write", 3, 4 * 4),
            ("write", 3, "random"),
        ),
    ),
    2: (
        (
            Region(base=0x80_0000, pages=8, stride=0x400, order="reverse"),
            Region(base=0x4000_0000, pages=16, stride=0x1000, repeats=2),  # 2 MiB at both stages
            Region(base=0x40_0000, pages=8, stride=0x400, order="random"),
            Region(base=0x40_0000, pages=8, stride=0x800, kind="write"),
            Region(base=0x80_0000, pages=2, stride=0x200, kind="write", compute_cycles=1),
        ),
        (
            ("read", 0, 8 * 4 + 16 * 2),
            ("read", 0, "random"),
            ("write", 0, 8 * 2),
            ("write", 1, 2 * 8),
        ),
    ),
}


def sweep_shape(sweeps):
    return [
        (s.kind, s.compute_cycles, "random" if s.addresses is None else len(s.addresses))
        for s in sweeps
    ]


@pytest.mark.parametrize("jitter", [0, 3])
@pytest.mark.parametrize("vm_index", sorted(MERGE_BOUNDARIES))
def test_compiled_sweeps_match_per_region_loops_across_merge_boundaries(vm_index, jitter):
    regions, shape = MERGE_BOUNDARIES[vm_index]
    assert sweep_shape(compile_sweeps(regions)) == list(shape)
    compiled, per_region, rich = synthetic_runs(vm_index, regions, jitter)
    assert compiled == per_region, "compiled sweeps against one run_loop per region"
    assert compiled == rich, "compiled sweeps against run_regions"
    assert all(tlb_misses(delta) and cache_misses(delta) for delta in compiled[1])
    if jitter:
        assert compiled[3][1] != random.Random(7).getstate()  # jitter was drawn


@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_each_preset_compiles_its_measured_phase_into_two_sweeps(text):
    """Every shipped measured phase is a run of data reads and a run of
    instruction fetches: two sweeps, so two run_loop calls with no quantum
    per simulated iteration.  Every trap sweeps the hypervisor footprint
    with one more, under the hypervisor's context."""
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=ITERATIONS)
    for name in cfg.scenario_names:
        plan = build_plan(cfg.scenarios[name])
        sweeps = compile_sweeps(plan.measured.workload.measure)
        assert len(sweeps) == 2, name
        with mock.patch.object(MemorySystem, "run_loop", autospec=True,
                               side_effect=MemorySystem.run_loop) as spy, \
                mock.patch.object(hypervisor, "trap_enter", wraps=trap_enter) as traps:
            run_iteration(plan, 0)
        assert plan.sweeps == sweeps
        measured = [call for call in spy.call_args_list if call.args[1] is plan.measured]
        assert len(measured) == len(sweeps), name
        assert [call.args[2] for call in measured] == [s.kind for s in sweeps]
        assert all(call.args[5] == math.inf for call in measured)
        (footprint,) = plan.trap_sweeps
        assert plan.trap_sweeps == compile_sweeps((plan.defn.hyp.footprint,))
        trapped = [call for call in spy.call_args_list if call.args[1] is plan.hyp_context]
        assert len(trapped) == traps.call_count == 1 + len(plan.interference), name
        for call in trapped:
            assert call.args[2:] == ("read", footprint.addresses, 0, math.inf)


def clear_leaf(space, vaddr):
    """Invalidate the leaf PTE that maps vaddr's 4 KiB page in `space`."""
    table = space.root_ppn
    for level in (2, 1):
        table = space.tables[table][vaddr >> (12 + 9 * level) & 0x1FF] >> 10
    space.set_pte(table, vaddr >> 12 & 0x1FF, 0)


@pytest.mark.parametrize("jitter", [0, 3])
def test_measure_sweep_raises_at_the_rich_paths_fault(jitter):
    """Page 5 of a random-order write sweep faults: the other pages before
    it in the drawn order are walked and written, then both paths raise the
    same error and leave the same machine and generators."""
    sweep = Region(base=0x40_0000, pages=12, stride=0x400, order="random", kind="write")
    runs = []
    for run in (compiled_measure, run_regions):
        sys = make_system(7, jitter)
        vm = build_vms()[0][0]
        clear_leaf(vm.guest_space, 0x40_0000 + 5 * SIZE_4K)
        rng = random.Random(5)
        with pytest.raises(SimulationError) as info:
            run(sys, vm, (sweep,), rng)
        runs.append((str(info.value), machine_state(sys), generators(sys, rng)))
    assert runs[0] == runs[1]
    message, state, _ = runs[0]
    assert message == "access 0x405000 by vmid 0 asid 1 faulted (invalid, stage None)"
    assert state[0][1][4][1] > 1  # the pages drawn before page 5 were walked

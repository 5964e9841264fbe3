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
event per touch and per walk fetch.
"""

import random

import pytest

from pvmsim.cache import MODE_SPM
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import build_plan, iteration_seed, restore_machine, trap_enter, trap_exit
from pvmsim.memsys import randbelow, write_value
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_V, PTE_W, SIZE_2M, SIZE_4K, make_pte
from pvmsim.walker import walk_single, walk_two_stage
from pvmsim.workload import InterferenceLoop, run_interference
from test_golden import WRITES_TEXT, machine_state
from test_pipeline_oracle import DATA_BASE, GEOMETRY, build_vms, make_system

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


def cache_events(cache):
    stats = cache.stats
    return stats["hits"] + stats["misses"] + stats["spm_accesses"] + stats["spm_misconfigs"]


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
        tlb, cache = (sys.itlb, sys.icache) if ifetch else (sys.dtlb, sys.dcache)
        missed = []
        translate = tlb.translate

        def spy(vaddr, asid, vmid):
            paddr = translate(vaddr, asid, vmid)
            if paddr is None:
                missed.append(vaddr)
            return paddr

        lookups, events = tlb.hits + tlb.misses, cache_events(cache)
        data_events = cache_events(sys.dcache)
        stream = CountingStream(loop.addresses(rng))
        tlb.translate = spy
        try:
            spent = sys.run_loop(vm, loop.kind, stream, loop.compute_cycles, quantum)
        finally:
            del tlb.translate
        touches = stream.taken
        walked = sum(walk_fetches(vm, vaddr) for vaddr in missed)
        assert tlb.hits + tlb.misses - lookups == touches
        if ifetch:
            assert cache_events(cache) - events == touches
            assert cache_events(sys.dcache) - data_events == walked
        else:
            assert cache_events(cache) - events == touches + walked
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

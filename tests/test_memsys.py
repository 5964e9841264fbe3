"""Pipeline composition tests: cycle breakdowns, fill behavior, jitter
discipline, and the predictability/monotonicity properties of locked,
scratchpad-resident access paths."""

import random
import sys
from types import SimpleNamespace

import pytest

from pvmsim import memsys
from pvmsim.cache import MODE_SPM, Memory
from pvmsim.memsys import (
    LatencyConfig,
    MachineConfig,
    MemAccessOutcome,
    MemorySystem,
    SimulationError,
)
from pvmsim.memsys import COUNTERS
from pvmsim.sv39 import (
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
    SIZE_4K,
    make_pte,
)
from pvmsim.walker import AddressSpace
from state_views import cache_misses, probe, tag_state

RW = PTE_R | PTE_W | PTE_A | PTE_D
RWX = RW | PTE_X

TABLE_BASE = 0x0100_0000  # root table lives here; helpers allocate upward
DATA_BASE = 0x8000_0000
DSPM_BASE = 0x1000_0000  # aligned to the 32 KiB data array
ISPM_BASE = 0x2000_0000  # aligned to the 16 KiB instruction array
VBASE = 0x40_0000


def build_system(jitter=0, seed=0, **kw):
    mem = Memory([(TABLE_BASE, 1 << 20), (DATA_BASE, 1 << 20)])
    latency = LatencyConfig(jitter=jitter)
    rng = random.Random(seed) if jitter else None
    return MemorySystem(
        MachineConfig(),
        mem,
        latency,
        dspm_base=DSPM_BASE,
        ispm_base=ISPM_BASE,
        rng=rng,
        **kw,
    )


def single_stage_vm(pages=8, asid=1, vmid=0):
    guest = AddressSpace(root_ppn=TABLE_BASE >> 12)
    for k in range(pages):
        guest.map_page(VBASE + k * SIZE_4K, DATA_BASE + k * SIZE_4K, SIZE_4K, RWX)
    return SimpleNamespace(asid=asid, vmid=vmid, guest_space=guest, host_space=None)


# -- composition examples -----------------------------------------------------


def test_hit_plus_hit_costs_two_cycles():
    sys_ = build_system()
    vm = single_stage_vm()
    sys_.virtual_access(VBASE, "read", vm)  # warm both TLB and cache
    out = sys_.virtual_access(VBASE, "read", vm)
    assert out.tlb_hit and out.cache_event == "hit"
    assert (out.translation_cycles, out.walk_cycles, out.cache_cycles) == (1, 0, 1)
    assert out.total_cycles == 2


def test_first_touch_walks_then_second_hits():
    sys_ = build_system()
    vm = single_stage_vm()
    first = sys_.virtual_access(VBASE, "read", vm)
    assert not first.tlb_hit
    assert first.walk_fetches == 3
    assert first.walk_cycles > 0
    second = sys_.virtual_access(VBASE, "read", vm)
    assert second.tlb_hit and second.walk_fetches == 0
    assert sys_.dtlb.misses == 1 and sys_.dtlb.hits == 1


def test_lock_covered_spm_access_is_two_cycles():
    sys_ = build_system()
    vm = single_stage_vm()
    # Pin a translation pointing straight into the data scratchpad window
    # (way 0 converted), no page table entry backing it at all.
    sys_.dcache.configure_way(0, MODE_SPM)
    target_vaddr = 0x77_7000
    sys_.dtlb.program_lock_slot(0, "vpn", vpn=target_vaddr >> 12, page_size=SIZE_4K)
    sys_.dtlb.program_lock_slot(0, "pte", pte=make_pte(DSPM_BASE >> 12, RW | PTE_V))
    sys_.dtlb.program_lock_slot(0, "id", asid=vm.asid, vmid=vm.vmid)
    out = sys_.virtual_access(target_vaddr + 0x18, "write", vm, value=99)
    assert out.lock_hit and out.cache_event == "spm"
    assert out.total_cycles == 1 + sys_.latency.spm_cycles
    back = sys_.virtual_access(target_vaddr + 0x18, "read", vm)
    assert back.value == 99 and back.total_cycles == 2


def scattered_two_stage():
    """A two-stage setup where all 15 cold-walk PTE fetches and the final
    data access land on pairwise-distinct cache lines: guest tables are
    hand-placed a full gigapage apart so that every host walk takes its own
    root index and its own lower-level tables."""
    groot = 0x10 << 18  # guest-physical page numbers, 1 GiB apart
    gmid = 0x20 << 18
    gleaf = 0x30 << 18
    gdata = 0x40 << 18
    vaddr = VBASE + 0x8000
    guest = AddressSpace(root_ppn=groot)
    guest.add_table(gmid)
    guest.add_table(gleaf)
    guest.set_pte(groot, vaddr >> 30 & 0x1FF, make_pte(gmid, PTE_V))
    guest.set_pte(gmid, vaddr >> 21 & 0x1FF, make_pte(gleaf, PTE_V))
    guest.set_pte(gleaf, vaddr >> 12 & 0x1FF, make_pte(gdata, RWX | PTE_V))
    host = AddressSpace(root_ppn=(TABLE_BASE >> 12) + 0x10, gpa_space=True)
    for i, gppn in enumerate((groot, gmid, gleaf, gdata)):
        # Host frames a page apart: distinct lines for the guest PTE fetches.
        host.map_page(gppn << 12, DATA_BASE + (0x10 + i) * SIZE_4K, SIZE_4K, RW)
    vm = SimpleNamespace(asid=3, vmid=5, guest_space=guest, host_space=host)
    return vm, vaddr


def test_cold_two_stage_miss_prices_fifteen_fetches():
    sys_ = build_system()
    vm, vaddr = scattered_two_stage()
    mc = sys_.latency.memory_cycles
    out = sys_.virtual_access(vaddr, "read", vm)
    assert out.walk_fetches == 15
    assert (out.translation_cycles, out.walk_cycles, out.cache_cycles) == (1, 15 * mc, mc)
    assert out.total_cycles == 1 + 16 * mc  # 641 with the defaults
    # Everything needed is now resident: the rerun collapses to two cycles.
    again = sys_.virtual_access(vaddr, "read", vm)
    assert again.total_cycles == 2


def test_every_event_is_priced_from_the_latency_config():
    """Distinct non-default prices, so a component priced from the wrong
    entry (or from a default) shows up as a wrong number."""
    mem = Memory([(TABLE_BASE, 1 << 20), (DATA_BASE, 1 << 20)])
    latency = LatencyConfig(tlb_hit_cycles=2, cache_hit_cycles=3, spm_cycles=5, memory_cycles=50)
    sys_ = MemorySystem(MachineConfig(), mem, latency, ispm_base=ISPM_BASE,
                        dspm_base=DSPM_BASE)
    vm = single_stage_vm()
    sys_.dcache.configure_way(0, MODE_SPM)
    way_bytes = sys_.dcache.way_bytes
    # Lock slots: a RAM frame, the converted way 0 and the unconverted way 1.
    slots = (
        (0x70_0000, DATA_BASE + 0x8_0000),
        (0x71_0000, DSPM_BASE),
        (0x72_0000, DSPM_BASE + way_bytes),
    )
    for slot, (vaddr, paddr) in enumerate(slots):
        sys_.dtlb.program_lock_slot(slot, "vpn", vpn=vaddr >> 12, page_size=SIZE_4K)
        sys_.dtlb.program_lock_slot(slot, "pte", pte=make_pte(paddr >> 12, RW | PTE_V))
        sys_.dtlb.program_lock_slot(slot, "id", asid=vm.asid, vmid=vm.vmid)
    cold_dtlb = sys_.dtlb.snapshot()

    def cycles(vaddr, kind="read", value=None, on=vm):
        out = sys_.virtual_access(vaddr, kind, on, value=value)
        parts = (out.translation_cycles, out.walk_cycles, out.cache_cycles)
        assert out.total_cycles == sum(parts)
        return parts, out.cache_event

    # A cold walk: three PTE fetches and the data line all miss.
    assert cycles(VBASE) == ((2, 150, 50), "miss")
    # Main-array TLB hit; the same line hits, another line misses.
    assert cycles(VBASE + 8) == ((2, 0, 3), "hit")
    assert cycles(VBASE + 0x100) == ((2, 0, 50), "miss")
    # The same walk remembered once the TLB is cold again: its PTE lines
    # now hit.
    sys_.dtlb.restore(cold_dtlb)
    assert cycles(VBASE + 8) == ((2, 9, 3), "hit")
    # A lock-slot hit never walks; its data line is cold, then warm.
    assert cycles(0x70_0000) == ((2, 0, 50), "miss")
    assert cycles(0x70_0000) == ((2, 0, 3), "hit")
    # Scratchpad and misconfigured-window accesses both cost spm_cycles.
    assert cycles(0x71_0008, "write", 7) == ((2, 0, 5), "spm")
    assert cycles(0x72_0008) == ((2, 0, 5), "spm-misconfig")
    # Two stages: fifteen cold fetches, then the data line.
    nested, vaddr = scattered_two_stage()
    assert cycles(vaddr, on=nested) == ((2, 15 * 50, 50), "miss")


def test_walk_fetches_are_priced_through_the_data_cache():
    sys_ = build_system()
    vm = single_stage_vm()
    before = sys_.dcache.stats["misses"]
    cold_itlb = sys_.itlb.snapshot()
    out = sys_.virtual_access(VBASE, "ifetch", vm)  # instruction side
    assert out.walk_fetches == 3
    assert sys_.dcache.stats["misses"] == before + 3 + 0  # 3 PTE fetches, no data
    assert sys_.icache.stats["misses"] == 1  # the fetch itself
    # A rerun of the same walk hits the PTE lines in the data cache.
    sys_.itlb.restore(cold_itlb)
    again = sys_.virtual_access(VBASE, "ifetch", vm)
    assert again.walk_fetches == 3
    assert again.walk_cycles == 3 * sys_.latency.cache_hit_cycles


# -- remembered walks -------------------------------------------------------------


def test_warm_replay_serves_every_fetch_without_a_step():
    """Once a walk's lines are cached, refilling its page again replays
    all 15 two-stage fetches as hits inside Cache.replay: the step is never
    called, and the walk costs 15 cache hits."""
    mem = Memory([(TABLE_BASE, 1 << 20), (DATA_BASE, 1 << 20)])
    # The walk puts nine page-aligned lines in set 0: 16 ways hold them all.
    sys_ = MemorySystem(MachineConfig(ways=16), mem, LatencyConfig(cache_hit_cycles=3),
                        ispm_base=ISPM_BASE, dspm_base=DSPM_BASE)
    vm, vaddr = scattered_two_stage()
    step_code = sys_.dcache.step.__code__
    steps = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is step_code:
            steps.append(event)

    def refill():
        steps.clear()
        sys.setprofile(profile)
        try:
            return sys_._refill(sys_.dtlb, vm, vaddr, sys_._walk_table(vm))
        finally:
            sys.setprofile(None)

    walk, _, cold = refill()
    assert (len(walk.accesses), len(steps), cold) == (15, 15, 15 * sys_.latency.memory_cycles)
    hits = sys_.dcache.stats["hits"]
    walk, _, warm = refill()
    assert (len(steps), warm) == (0, 15 * 3)
    assert sys_.dcache.stats["hits"] == hits + 15


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(memsys, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(memsys, name, counted)
    return calls


def test_repeat_miss_replays_the_remembered_walk(monkeypatch):
    calls = count_calls(monkeypatch, "walk_two_stage")
    sys_ = build_system()
    vm, vaddr = scattered_two_stage()
    mc = sys_.latency.memory_cycles
    cold = sys_.dtlb.snapshot(), sys_.dcache.snapshot()
    first = sys_.virtual_access(vaddr, "read", vm)
    sys_.dtlb.restore(cold[0])
    sys_.dcache.restore(cold[1])
    again = sys_.virtual_access(vaddr + 8, "read", vm)
    assert len(calls) == 1
    assert again.walk_fetches == first.walk_fetches == 15
    assert again.walk_cycles == 15 * mc  # every fetch missed the cold cache again
    assert again.paddr == first.paddr + 8


def test_remapped_guest_page_is_walked_again():
    sys_ = build_system()
    vm = single_stage_vm()
    cold_dtlb = sys_.dtlb.snapshot()
    assert sys_.virtual_access(VBASE, "read", vm).paddr == DATA_BASE
    # Point VBASE's level-1 entry at a new leaf table mapping another frame.
    guest = vm.guest_space
    mid = guest.tables[guest.root_ppn][VBASE >> 30 & 0x1FF] >> 10
    leaf = guest.add_table(guest.root_ppn + 0x40)
    guest.set_pte(leaf, VBASE >> 12 & 0x1FF, make_pte((DATA_BASE >> 12) + 0x20, RWX | PTE_V))
    guest.set_pte(mid, VBASE >> 21 & 0x1FF, make_pte(leaf, PTE_V))
    sys_.dtlb.restore(cold_dtlb)
    out = sys_.virtual_access(VBASE + 8, "read", vm)
    assert out.paddr == DATA_BASE + 0x20 * SIZE_4K + 8
    assert out.walk_fetches == 3
    assert probe(sys_.dcache, (leaf << 12) + (VBASE >> 12 & 0x1FF) * 8) is not None


def test_remapped_host_page_is_walked_again():
    sys_ = build_system()
    vm, vaddr = scattered_two_stage()
    cold_dtlb = sys_.dtlb.snapshot()
    first = sys_.virtual_access(vaddr, "read", vm)
    host = vm.host_space
    gpa = 0x40 << 30  # scattered_two_stage's guest-physical data page
    old_tables = set(host.tables)
    host.set_pte(host.root_ppn, gpa >> 30 & 0x1FF, 0)
    host.map_page(gpa, DATA_BASE + 0x30 * SIZE_4K, SIZE_4K, RW)
    sys_.dtlb.restore(cold_dtlb)
    out = sys_.virtual_access(vaddr, "read", vm)
    assert out.walk_fetches == 15
    assert out.paddr == DATA_BASE + 0x30 * SIZE_4K
    new_tables = set(host.tables) - old_tables
    assert len(new_tables) == 2
    for table in new_tables:  # the new walk fetched entry 0 of each new table
        assert probe(sys_.dcache, table << 12) is not None


# -- faults ---------------------------------------------------------------------


def test_unmapped_page_raises_before_pricing_or_filling():
    """The walk's fault raises where _refill finds it, on either path: the
    TLB counted its miss, and no PTE fetch was read, no jitter drawn and
    nothing filled."""
    vaddr = VBASE + 0x40_0000 + 0x18
    for path in ("access", "run_loop"):
        sys_ = build_system(jitter=3, seed=5)
        vm = single_stage_vm(pages=1, asid=4, vmid=2)
        before, state = sys_.counters(), sys_.rng.getstate()
        with pytest.raises(SimulationError) as info:
            if path == "access":
                sys_.virtual_access(vaddr, "read", vm)
            else:
                sys_.run_loop(vm, "read", [vaddr], 0, 100)
        assert str(info.value) == "access 0x800018 by vmid 2 asid 4 faulted (invalid, stage None)"
        want = list(before)
        dtlb = COUNTERS.index("dtlb.hits")
        want[dtlb:dtlb + 5] = (0, 1, 0, 0, 0)  # its hits, misses, lock hits, fills, drops
        assert sys_.counters() == tuple(want), path
        assert sys_.rng.getstate() == state, path


def test_host_stage_fault_is_attributed():
    vm, vaddr = scattered_two_stage()
    sys_ = build_system()
    # Take away the host mapping of the final data page only.
    vm.host_space.set_pte(vm.host_space.root_ppn, 0x40, 0)
    with pytest.raises(SimulationError, match=r"^access 0x408000 by vmid 5 asid 3 faulted "
                                              r"\(invalid, stage host\)$"):
        sys_.virtual_access(vaddr, "read", vm)


def test_non_canonical_address_raises_and_counts_nothing():
    sys_ = build_system()
    vm = single_stage_vm()
    before = sys_.counters()
    with pytest.raises(ValueError, match=r"^address 0x200000000000 is not canonical$"):
        sys_.virtual_access(1 << 45, "read", vm)
    with pytest.raises(ValueError, match=r"^address 0x200000000000 is not canonical$"):
        sys_.run_loop(vm, "read", [1 << 45], 0, 100)
    assert sys_.counters() == before


def test_kind_is_validated():
    sys_ = build_system()
    with pytest.raises(ValueError):
        sys_.virtual_access(VBASE, "poke", single_stage_vm())


# -- fills and partitions through the pipeline -------------------------------------


def test_walked_translation_fills_under_cur_part():
    sys_ = build_system()
    vm = single_stage_vm()
    sys_.csr.write_cur_part(0x0003)  # partitions 0 and 1 only -> leaves 0,1
    for k in range(6):
        sys_.virtual_access(VBASE + k * SIZE_4K, "read", vm)
    used = {leaf for leaf, entry in enumerate(sys_.dtlb.entries) if entry.valid}
    assert used and used <= {0, 1}


def test_empty_cur_part_drops_fills_but_serves_data():
    sys_ = build_system()
    vm = single_stage_vm()
    sys_.memory.write_word(DATA_BASE, 0x51)
    sys_.csr.write_cur_part(0)
    out = sys_.virtual_access(VBASE, "read", vm)
    assert out.value == 0x51
    assert sys_.dtlb.dropped_fills == 1
    # Nothing was cached in the TLB: the next access walks again.
    out = sys_.virtual_access(VBASE, "read", vm)
    assert out.walk_fetches == 3


def test_global_page_fill_carries_global_flag():
    sys_ = build_system()
    guest = AddressSpace(root_ppn=TABLE_BASE >> 12)
    guest.map_page(VBASE, DATA_BASE, SIZE_4K, RWX | PTE_G)
    vm = SimpleNamespace(asid=1, vmid=0, guest_space=guest, host_space=None)
    sys_.virtual_access(VBASE, "read", vm)
    other = SimpleNamespace(asid=2, vmid=0, guest_space=guest, host_space=None)
    out = sys_.virtual_access(VBASE, "read", other)
    assert out.tlb_hit


def test_write_value_round_trips_through_pipeline():
    sys_ = build_system()
    vm = single_stage_vm()
    sys_.virtual_access(VBASE + 0x100, "write", vm, value=0xABCD)
    out = sys_.virtual_access(VBASE + 0x100, "read", vm)
    assert out.value == 0xABCD


@pytest.mark.parametrize("warm", [True, False], ids=["tlb-hit", "tlb-miss"])
def test_a_write_given_no_value_stores_write_value(warm):
    """A write with no value is whole before it starts: it stores
    write_value(vaddr), as run_loop's writes do, and leaves the machine
    and the cycles exactly as the same write given that value."""
    vaddr = VBASE + 0x148
    runs = []
    for value in (None, memsys.write_value(vaddr)):
        sys_ = build_system()
        vm = single_stage_vm()
        if warm:
            sys_.virtual_access(VBASE, "read", vm)
        out = sys_.virtual_access(vaddr, "write", vm, value=value)
        assert out.tlb_hit == warm
        runs.append((out, sys_.snapshot(), sys_.dtlb.hits, sys_.dtlb.misses))
    assert runs[0] == runs[1]
    assert dict(runs[0][1][-1])[DATA_BASE + 0x148] == memsys.write_value(vaddr)


@pytest.mark.parametrize("path", ["access", "run_loop"])
def test_a_store_of_zero_is_a_write(path):
    """A cache step reads on a value of None alone: a store of 0, which a
    workload makes at vaddr 0-7, dirties its line, and the eviction that
    follows writes the 0 over what memory held."""
    sys_ = build_system()
    guest = AddressSpace(root_ppn=TABLE_BASE >> 12)
    guest.map_page(0, DATA_BASE, SIZE_4K, RW)
    vm = SimpleNamespace(asid=1, vmid=0, guest_space=guest, host_space=None)
    cache = sys_.dcache
    sys_.memory.write_word(DATA_BASE, 0xDEAD)
    if path == "access":
        cache.access(DATA_BASE, "write", value=0)
    else:
        assert memsys.write_value(0) == 0
        assert sys_.run_loop(vm, "write", [0], 0, 1) >= 1
    set_idx, way = probe(cache, DATA_BASE)
    assert tag_state(cache)[1][set_idx] >> way & 1  # dirty
    assert cache.access(DATA_BASE, "read").value == 0
    write_backs = cache.stats["write_backs"]
    for k in range(1, 4 * cache.ways):  # other lines of its set, until it leaves
        if probe(cache, DATA_BASE) is None:
            break
        cache.access(DATA_BASE + k * cache.sets * cache.line_bytes, "read")
    assert probe(cache, DATA_BASE) is None
    assert cache.stats["write_backs"] == write_backs + 1
    assert sys_.memory.read_word(DATA_BASE) == 0


# -- latency configuration guard rails -----------------------------------------------


def test_latency_values_must_be_non_negative():
    with pytest.raises(ValueError):
        LatencyConfig(memory_cycles=-1)


def test_jitter_must_stay_below_memory_cycles():
    with pytest.raises(ValueError):
        LatencyConfig(jitter=40, memory_cycles=40)


def test_jitter_requires_a_generator():
    with pytest.raises(ValueError):
        MemorySystem(
            MachineConfig(),
            Memory([(DATA_BASE, 1 << 20)]),
            LatencyConfig(jitter=3),
            ispm_base=ISPM_BASE,
            dspm_base=DSPM_BASE,
            rng=None,
        )


def test_outcome_total_is_component_sum():
    sys_ = build_system()
    vm = single_stage_vm()
    rng = random.Random(77)
    for _ in range(300):
        vaddr = VBASE + rng.randrange(0, 12 * SIZE_4K, 8)  # some pages unmapped
        kind = rng.choice(["read", "write", "ifetch"])
        value = rng.getrandbits(16) if kind == "write" else None
        if vaddr >= VBASE + 8 * SIZE_4K:  # a fault raises; it has no total
            with pytest.raises(SimulationError):
                sys_.virtual_access(vaddr, kind, vm, value=value)
            continue
        out = sys_.virtual_access(vaddr, kind, vm, value=value)
        assert out.total_cycles == out.translation_cycles + out.walk_cycles + out.cache_cycles


# -- determinism and jitter ------------------------------------------------------------


def trace_totals(sys_, vm, seed, n=400):
    rng = random.Random(seed)
    totals = []
    for _ in range(n):
        vaddr = VBASE + rng.randrange(0, 8 * SIZE_4K, 8)
        kind = rng.choice(["read", "write"])
        value = 1 if kind == "write" else None
        totals.append(sys_.virtual_access(vaddr, kind, vm, value=value).total_cycles)
    return totals


def test_identical_streams_give_identical_cycles():
    a = trace_totals(build_system(), single_stage_vm(), seed=5)
    b = trace_totals(build_system(), single_stage_vm(), seed=5)
    assert a == b


@pytest.mark.parametrize("seed", (0, 1, 29, 2**40 + 3))
def test_draws_match_random_randrange_and_randint(seed):
    """randbelow and jitter_sum give randrange(n)'s and randint(-j, j)'s
    values, and leave the generator in the same state, draw by draw."""
    for n in (1, 2, 7, 64, 512):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert memsys.randbelow(ours.getrandbits, n) == theirs.randrange(n)
            assert ours.getstate() == theirs.getstate()
    for j in (1, 2, 3, 4, 5, 39):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert memsys.jitter_sum(ours, j, 1) == theirs.randint(-j, j)
            assert ours.getstate() == theirs.getstate()
        assert memsys.jitter_sum(ours, j, 5) == sum(theirs.randint(-j, j) for _ in range(5))
        assert ours.getstate() == theirs.getstate()
    # `after` skips that many draws first; jitter 39 spans 79 values, so
    # its rejection loop runs often.
    for j in (1, 3, 39):
        for after in (1, 2, 7):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(30):
                for _ in range(after):
                    theirs.randint(-j, j)
                assert memsys.jitter_sum(ours, j, 1, after=after) == theirs.randint(-j, j)
                assert ours.getstate() == theirs.getstate()
            assert memsys.jitter_sum(ours, j, 0, after=after) == 0
            for _ in range(after):
                theirs.randint(-j, j)
            assert ours.getstate() == theirs.getstate()


def test_jitter_is_seed_deterministic_and_bounded():
    base = trace_totals(build_system(), single_stage_vm(), seed=5)
    j1 = trace_totals(build_system(jitter=5, seed=100), single_stage_vm(), seed=5)
    j2 = trace_totals(build_system(jitter=5, seed=100), single_stage_vm(), seed=5)
    j3 = trace_totals(build_system(jitter=5, seed=200), single_stage_vm(), seed=5)
    assert j1 == j2
    assert j1 != j3  # different noise seed, same access stream
    for nominal, noisy in zip(base, j1):
        # Each access contains at most 4 memory trips (3 PTE + 1 data).
        assert abs(noisy - nominal) <= 4 * 5
    # Pure-hit accesses (total 2) are never jittered.
    assert all(noisy == 2 for nominal, noisy in zip(base, j1) if nominal == 2)


def test_restore_replays_one_draw_per_cache_miss_of_the_snapshot():
    """restore(state, rng) leaves the machine and `rng` where a machine
    built with `rng` stands on reaching `state`: past one jitter draw per
    cache miss that state's caches count, and no other."""
    vm = single_stage_vm()
    built = build_system(jitter=5, seed=100)
    trace_totals(built, vm, seed=5, n=60)
    state, misses = built.snapshot(), cache_misses(built.counters())
    assert misses > 0
    expected = random.Random(100)
    for _ in range(misses):
        expected.randint(-5, 5)
    assert built.rng.getstate() == expected.getstate()
    trace_totals(built, vm, seed=6, n=60)  # moves the machine and its generator on
    rng = random.Random(100)
    built.restore(state, rng)
    assert built.rng is rng and rng.getstate() == expected.getstate()
    assert built.snapshot() == state
    # Jitter off: restore draws nothing, and takes a None generator.
    quiet = build_system()
    trace_totals(quiet, vm, seed=5, n=60)
    state = quiet.snapshot()
    trace_totals(quiet, vm, seed=6, n=60)
    untouched = random.Random(3)
    before = untouched.getstate()
    quiet.restore(state, untouched)
    assert untouched.getstate() == before
    quiet.restore(state, None)
    assert quiet.rng is None and quiet.snapshot() == state


def test_restore_under_jitter_needs_a_generator():
    sys_ = build_system(jitter=3, seed=1)
    rng, state = sys_.rng, sys_.snapshot()
    with pytest.raises(ValueError, match="^jitter is enabled but no seeded generator was supplied$"):
        sys_.restore(state, None)
    assert sys_.rng is rng


def test_predictable_path_is_constant_under_any_interference():
    """Lock-covered translation + scratchpad-resident data: the probed
    access costs exactly 2 cycles no matter what ran before it, even with
    memory jitter enabled."""
    sys_ = build_system(jitter=8, seed=1234)
    vm = single_stage_vm()
    intruder = single_stage_vm(pages=8, asid=9)
    sys_.dcache.configure_way(0, MODE_SPM)
    probe_vaddr = 0x99_9000
    sys_.dtlb.program_lock_slot(0, "vpn", vpn=probe_vaddr >> 12, page_size=SIZE_4K)
    sys_.dtlb.program_lock_slot(0, "pte", pte=make_pte(DSPM_BASE >> 12, RW | PTE_V))
    sys_.dtlb.program_lock_slot(0, "id", asid=vm.asid, vmid=vm.vmid)
    rng = random.Random(4321)
    for _ in range(60):
        for _ in range(rng.randrange(0, 40)):  # foreign traffic storm
            sys_.virtual_access(
                VBASE + rng.randrange(0, 8 * SIZE_4K, 8),
                rng.choice(["read", "write", "ifetch"]),
                intruder,
                value=7,
            )
        out = sys_.virtual_access(probe_vaddr + 8 * rng.randrange(512), "read", vm)
        assert out.lock_hit and out.cache_event == "spm"
        assert out.total_cycles == 2


def test_interference_never_speeds_up_a_fitting_working_set():
    """With jitter off and a victim whose pages and lines all fit, the
    victim's measured phase is all-hits when run alone; any interleaved
    foreign traffic can only add misses, never remove cycles."""

    def victim_phase(sys_, vm):
        total = 0
        for k in range(4):
            for off in range(0, SIZE_4K, 256):
                total += sys_.virtual_access(VBASE + k * SIZE_4K + off, "read", vm).total_cycles
        return total

    def run(interference_ops, seed):
        sys_ = build_system()
        vm = single_stage_vm(pages=4)
        intruder = single_stage_vm(pages=8, asid=9)
        victim_phase(sys_, vm)  # warm-up
        rng = random.Random(seed)
        for _ in range(interference_ops):
            sys_.virtual_access(
                VBASE + rng.randrange(0, 8 * SIZE_4K, 8),
                rng.choice(["read", "write"]),
                intruder,
                value=1,
            )
        return victim_phase(sys_, vm)

    baseline = run(0, seed=0)
    for seed in range(5):
        for ops in (10, 100, 400):
            assert run(ops, seed) >= baseline


# -- construction -------------------------------------------------------------------


def test_build_wires_shared_components():
    sys_ = build_system()
    assert sys_.itlb.csr is sys_.dtlb.csr
    assert sys_.icache.memory is sys_.dcache.memory
    assert sys_.icache.sets == 128 and sys_.dcache.sets == 256
    assert sys_.icache.size == 16 * 1024 and sys_.dcache.size == 32 * 1024
    assert sys_.counters() == (0,) * len(COUNTERS)


def test_counters_are_every_tally_in_the_order_counters_names():
    """counters() is each TLB's five tallies, in its snapshot's order, then
    each cache's stats, I-side first, as COUNTERS names them."""
    sys_ = build_system()
    assert len(set(COUNTERS)) == len(COUNTERS) == len(sys_.counters())
    for value, name in enumerate(COUNTERS, start=100):
        unit, tally = name.split(".")
        if unit in ("itlb", "dtlb"):
            setattr(getattr(sys_, unit), tally, value)
        else:
            getattr(sys_, unit).stats[tally] = value
    counts = sys_.counters()
    assert counts == tuple(range(100, 100 + len(COUNTERS)))
    assert sys_.itlb.snapshot()[-1] + sys_.dtlb.snapshot()[-1] == counts[:10]


def test_build_takes_its_shape_from_the_machine_config():
    machine = MachineConfig(
        entries=8, partitions=4, lock_slots=3, ways=4, icache_sets=16, dcache_sets=32, line_bytes=32
    )
    sys_ = MemorySystem(machine, Memory([(DATA_BASE, 1 << 20)]), ispm_base=ISPM_BASE,
                        dspm_base=DSPM_BASE)
    assert sys_.csr.width == 4
    for tlb in (sys_.itlb, sys_.dtlb):
        assert len(tlb.entries) == 8 and len(tlb.slots) == 3
        assert tlb.tree.partition_count == 4
    for cache, sets in ((sys_.icache, 16), (sys_.dcache, 32)):
        assert (cache.ways, cache.sets, cache.line_bytes) == (4, sets, 32)
    assert (sys_.dcache.spm_base, sys_.icache.spm_base) == (DSPM_BASE, ISPM_BASE)

"""The whole access pipeline against a naive reference, access by access.

oracles.PipelineRef composes TlbRef, CacheRef and the radix-walk
references: it walks the tables on every TLB miss, reads each PTE fetch
through its own data cache and prices it on its own, and draws jitter
with randint.  A seeded random program drives MemorySystem.virtual_access
and the reference side by side over three VMs (two single-stage VMs that
share one page-table tree under different ASIDs, one two-stage VM) with
4 KiB and 2 MiB pages, both scratchpad windows, a page that faults, and
non-canonical addresses.  Between accesses it writes CUR_PART (sometimes
0, so every TLB fill drops), programs and clears lock-slot registers,
converts cache ways to scratchpad and back (sometimes all of them, so
cache fills drop too) and invalidates and restores a leaf PTE.  Every
outcome field must match, and so must both TLBs, both caches, backing
memory and the jitter generator, every few hundred steps and at the end.
MemorySystem.run_loop, the lean interference path, must match the same
reference run as a loop of accesses.

Every state comparison also holds MemorySystem.counters() to
PipelineRef.counters(), position by position.  On every scenario of every
preset and of WRITES_TEXT, a set-up machine and a reference set up alike
run the prefix and then the measured phase as run_iteration runs them:
the phase's counters() delta, its cycles and the jitter generator must
match the reference's.

A fault is no outcome: when the reference raises RefFault, the system
must raise on the same access, with the exception and message that name
the fault (raises_as), and the whole state must still match.

The simulator keeps one word store, so a D-side store is seen by every
reader at once; the reference gives each cache its own copy of a line
and writes it back on eviction.  Both agree on every D-side value.  The
reference's I-side copy may be stale, so an ifetch's value is compared
with the words one store would hold: the reference's memory overlaid by
its caches' dirty lines (coherent_words).  So are backing memory and the
words of every held line.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from oracles import PipelineRef, RefFault
from pvmsim.cache import MODE_CACHE, MODE_SPM, Memory
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import (
    build_plan,
    build_system,
    run_prefix,
    setup_scenario,
    trap_enter,
    trap_exit,
)
from pvmsim.memsys import (
    COUNTERS,
    LatencyConfig,
    MachineConfig,
    MemorySystem,
    SimulationError,
    write_value,
)
from pvmsim.sv39 import (
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
    SIZE_2M,
    SIZE_4K,
    VPN_MASK,
    make_pte,
)
from pvmsim.walker import AddressSpace
from state_views import counter_delta, data_words, memory_words, tag_state
from pvmsim.workload import InterferenceLoop, compile_sweeps, run_interference, run_measure
from test_golden import WRITES_TEXT
from test_walker import map_region

GEOMETRY = dict(
    entries=8, partitions=4, lock_slots=2, ways=4, icache_sets=64, dcache_sets=64, line_bytes=16
)
TABLE_BASE = 0x0100_0000
DATA_BASE = 0x8000_0000
DSPM_BASE = 0x1000_0000  # both arrays are 4 KiB: one page maps a whole window
ISPM_BASE = 0x2000_0000
RW = PTE_R | PTE_W | PTE_A | PTE_D
RX = PTE_R | PTE_X | PTE_A | PTE_D
NON_CANONICAL = 1 << 45


def build_vms():
    """Three VMs and their access pools: (vm, base, span, kinds)."""
    guest = AddressSpace(root_ppn=TABLE_BASE >> 12)
    map_region(guest, 0x40_0000, DATA_BASE, 12 * SIZE_4K, RW)
    map_region(guest, 0x60_0000, DATA_BASE + 0x10_0000, 4 * SIZE_4K, RX | PTE_G)
    guest.map_page(0x4000_0000, DATA_BASE + 0x20_0000, SIZE_2M, RW)
    guest.map_page(0x10_0000, DSPM_BASE, SIZE_4K, RW)
    guest.map_page(0x20_0000, ISPM_BASE, SIZE_4K, RX)
    a = SimpleNamespace(asid=1, vmid=0, guest_space=guest, host_space=None)
    b = SimpleNamespace(asid=2, vmid=0, guest_space=guest, host_space=None)

    host = AddressSpace(root_ppn=(TABLE_BASE >> 12) + 0x80, gpa_space=True)
    map_region(host, 0, DATA_BASE + 0x40_0000, 3 * SIZE_2M, RW | PTE_X, page_size=SIZE_2M)
    map_region(host, 0x60_0000, DATA_BASE + 0xA0_0000, 8 * SIZE_4K, RW | PTE_X)
    nested = AddressSpace(root_ppn=0x10)
    map_region(nested, 0x40_0000, 0x60_0000, 8 * SIZE_4K, RW)  # 4 KiB host pages
    map_region(nested, 0x80_0000, 0x20_0000, 8 * SIZE_4K, RW | PTE_X)  # inside a 2 MiB host page
    nested.map_page(0x4000_0000, 0x40_0000, SIZE_2M, RW)  # 2 MiB at both stages
    c = SimpleNamespace(asid=1, vmid=3, guest_space=nested, host_space=host)

    data = ("read", "write")
    pools = (
        (a, 0x40_0000, 12 * SIZE_4K, data + ("ifetch",)),
        (a, 0x60_0000, 4 * SIZE_4K, ("ifetch", "read")),
        (a, 0x4000_0000, 0x1_0000, data),
        (a, 0x10_0000, SIZE_4K, data),
        (a, 0x20_0000, SIZE_4K, ("ifetch",)),
        (a, 0x70_0000, SIZE_4K, ("read",)),  # never mapped: a walk fault
        (b, 0x40_0000, 12 * SIZE_4K, data),
        (b, 0x60_0000, 4 * SIZE_4K, ("ifetch",)),
        (c, 0x40_0000, 8 * SIZE_4K, data),
        (c, 0x80_0000, 8 * SIZE_4K, data + ("ifetch",)),
        (c, 0x4000_0000, 0x1_0000, data),
    )
    # Lock-slot targets: (vm, vpn, page size, pte, TLBs), each a real
    # translation; the scratchpad page is reachable from the D-side only.
    both, data_side = ("itlb", "dtlb"), ("dtlb",)
    locks = (
        (a, 0x400, SIZE_4K, make_pte(DATA_BASE >> 12, RW | PTE_V), both),
        (a, 0x403, SIZE_4K, make_pte((DATA_BASE >> 12) + 3, RW | PTE_V), both),
        (b, 0x600, SIZE_4K, make_pte((DATA_BASE + 0x10_0000) >> 12, RX | PTE_G | PTE_V), both),
        (a, 0x100, SIZE_4K, make_pte(DSPM_BASE >> 12, RW | PTE_V), data_side),
        (a, 0x4000_0000 >> 12, SIZE_2M, make_pte((DATA_BASE + 0x20_0000) >> 12, RW | PTE_V),
         data_side),
        (c, 0x800, SIZE_4K, make_pte((DATA_BASE + 0x60_0000) >> 12, RW | PTE_X | PTE_V), both),
    )
    return (a, b, c), pools, locks


def leaf_slot(space, vaddr):
    """(table ppn, index) of the leaf PTE that maps vaddr."""
    table = space.root_ppn
    for level in (2, 1, 0):
        index = vaddr >> (12 + 9 * level) & 0x1FF
        pte = space.tables[table][index]
        if pte & (PTE_R | PTE_W | PTE_X):
            return table, index
        table = pte >> 10
    raise AssertionError("0x%x is not mapped" % vaddr)


def tlb_view(sys_, side):
    """The `side` TLB's node bits, locked leaves, entries and its five
    counters, sliced from sys_.counters()."""
    tlb = getattr(sys_, side)
    entries = [
        (e.vpn, e.page_size, e.asid, e.vmid, e.pte, e.global_flag) if e.valid else None
        for e in tlb.entries
    ]
    locked = [leaf for leaf in range(len(tlb.entries)) if tlb.tree.locked >> leaf & 1]
    first = COUNTERS.index(side + ".hits")
    counters = sys_.counters()[first:first + 5]
    return list(tlb.tree.snapshot_bits()), locked, entries, counters


def tlb_ref_view(ref):
    bits, locked, entries, counters = ref.state()
    entries = [
        None if e is None
        else (e["vpn"], e["page_size"], e["asid"], e["vmid"], e["pte"], e["global"])
        for e in entries
    ]
    return bits, locked, entries, counters


def cache_view(cache):
    tags, dirty, plru, locked = tag_state(cache)
    data = data_words(cache)
    wpl = cache.line_bytes // 8
    lines = {}
    for s in range(cache.sets):
        for w in range(cache.ways):
            slot = s * cache.ways + w
            if tags[slot] != -1:
                words = list(data[slot * wpl:(slot + 1) * wpl])
                lines[s, w] = (tags[slot], words, bool(dirty[s] >> w & 1))
    spm = {
        w: {
            (s, k): data[(s * cache.ways + w) * wpl + k]
            for s in range(cache.sets)
            for k in range(wpl)
            if data[(s * cache.ways + w) * wpl + k]
        }
        for w in range(cache.ways)
        if locked >> w & 1
    }
    bits = [tuple(p >> n & 1 for n in range(cache.ways - 1)) for p in plru]
    return lines, spm, bits, dict(cache.stats)


def line_base(cache, set_idx, tag):
    return (tag * cache.sets + set_idx) * cache.line_bytes


def coherent_words(ref):
    """The reference's memory overlaid by every dirty line of its caches:
    the words one word store holds."""
    words = dict(ref.mem)
    for cache in (ref.icache, ref.dcache):
        for s, slots in enumerate(cache.slots):
            for tag, line, dirty in slots.values():
                if dirty:
                    base = line_base(cache, s, tag)
                    words.update((base + 8 * i, word) for i, word in enumerate(line))
    return words


def coherent_access(ref, vm, vaddr, kind, value):
    """(ref.access's fields, stale): a cached ifetch's value is replaced
    by the word coherent_words holds, and `stale` says whether the
    reference read another word."""
    want = ref.access(vm, vaddr, kind, value)
    if kind != "ifetch" or want[7] not in ("hit", "miss"):
        return want, False
    coherent = coherent_words(ref).get(want[9] & ~7, 0)
    return want[:8] + (coherent,) + want[9:], coherent != want[8]


def raises_as(fault, vm, call, *args):
    """Assert that call(*args) raises what the system raises for the
    reference's RefFault `fault`: ValueError naming a non-canonical
    address, or SimulationError naming the address, vm's vmid and asid,
    the fault and its stage."""
    vaddr, reason, stage = fault.args
    if reason == "non-canonical":
        kind, message = ValueError, "address 0x%x is not canonical" % vaddr
    else:
        kind = SimulationError
        message = "access 0x%x by vmid %d asid %d faulted (%s, stage %s)" % (
            vaddr, vm.vmid, vm.asid, reason, stage)
    with pytest.raises(kind) as info:
        call(*args)
    assert str(info.value) == message


def cache_ref_view(ref, words):
    """cache_view of a CacheRef, each held line's words read from
    `words`."""
    lines = {
        (s, w): (tag, [words.get(line_base(ref, s, tag) + 8 * i, 0)
                       for i in range(ref.words_per_line)], dirty)
        for s, slots in enumerate(ref.slots)
        for w, (tag, _, dirty) in slots.items()
    }
    spm = {w: {key: v for key, v in store.items() if v} for w, store in ref.spm.items()}
    return lines, spm, [tuple(b) for b in ref.bits], dict(ref.stats)


def assert_same_state(sys_, ref, where):
    for side in ("itlb", "dtlb"):
        assert tlb_view(sys_, side) == tlb_ref_view(getattr(ref, side)), (where, side)
    assert sys_.counters() == ref.counters(), where
    words = coherent_words(ref)
    for side in ("icache", "dcache"):
        assert cache_view(getattr(sys_, side)) == cache_ref_view(getattr(ref, side), words), (
            where, side)
    assert dict(memory_words(sys_.memory)) == {a: v for a, v in words.items() if v}, where
    assert (sys_.rng is None) == (ref.rng is None)
    if sys_.rng is not None:
        assert sys_.rng.getstate() == ref.rng.getstate(), where


def make_system(seed, jitter):
    """A MemorySystem of GEOMETRY whose jitter generator is seeded `seed`."""
    latency = LatencyConfig(
        tlb_hit_cycles=2, cache_hit_cycles=3, spm_cycles=5, memory_cycles=40, jitter=jitter
    )
    memory = Memory([(TABLE_BASE, 1 << 20), (DATA_BASE, 16 << 20)])
    return MemorySystem(
        MachineConfig(**GEOMETRY), memory, latency, ispm_base=ISPM_BASE, dspm_base=DSPM_BASE,
        rng=random.Random(seed) if jitter else None,
    )


def make_pair(seed, jitter):
    ref = PipelineRef(
        tuple(GEOMETRY.values()),
        (2, 3, 5, 40, jitter),
        ISPM_BASE,
        DSPM_BASE,
        random.Random(seed) if jitter else None,
    )
    return make_system(seed, jitter), ref


class Program:
    """The random program: pipeline-state changes between accesses, each
    applied to the system and the reference alike."""

    def __init__(self, rng, sys_, ref):
        self.rng, self.sys, self.ref = rng, sys_, ref
        self.vms, self.pools, self.locks = build_vms()
        a = self.vms[0]
        self.victim = (a.guest_space,) + leaf_slot(a.guest_space, 0x40_5000)
        self.victim_pte = a.guest_space.tables[self.victim[1]][self.victim[2]]
        self.last = None

    def step(self):
        """One state change; False when the step should be an access."""
        rng, sys_, ref = self.rng, self.sys, self.ref
        op = rng.random()
        if op < 0.03:
            full = (1 << GEOMETRY["partitions"]) - 1
            mask = rng.choice((0, full, rng.randrange(1, full)))
            sys_.csr.write_cur_part(mask)
            ref.cur_part = mask
        elif op < 0.06:
            # One target's three registers, in a random order, each valid
            # or not: a slot is active only while all three are.
            vm, vpn, size, pte, sides = rng.choice(self.locks)
            side = rng.choice(sides)
            tlb, tref = getattr(sys_, side), getattr(ref, side)
            index = rng.randrange(GEOMETRY["lock_slots"])
            for which in rng.sample(("vpn", "pte", "id"), 3):
                valid = rng.random() < 0.85
                if which == "vpn":
                    tlb.program_lock_slot(index, "vpn", vpn=vpn, page_size=size,
                                          flags=pte & 0xFF, valid=valid)
                    tref.program(index, "vpn", (vpn, size, pte & 0xFF) if valid else None)
                elif which == "pte":
                    tlb.program_lock_slot(index, "pte", pte=pte, valid=valid)
                    tref.program(index, "pte", pte if valid else None)
                else:
                    tlb.program_lock_slot(index, "id", asid=vm.asid, vmid=vm.vmid, valid=valid)
                    tref.program(index, "id", (vm.asid, vm.vmid) if valid else None)
        elif op < 0.08:
            # Now and then every way at once, so that cache fills drop.
            side = rng.choice(("icache", "dcache"))
            ways = GEOMETRY["ways"]
            every = rng.random() < 0.1
            to_spm = every or rng.random() < 0.5
            for way in range(ways) if every else (rng.randrange(ways),):
                getattr(sys_, side).configure_way(way, MODE_SPM if to_spm else MODE_CACHE)
                getattr(ref, side).convert(way, to_spm)
        elif op < 0.09:
            space, table, index = self.victim
            valid = space.tables[table][index] != 0
            space.set_pte(table, index, 0 if valid else self.victim_pte)
        else:
            return False
        return True

    def access(self):
        """(vm, vaddr, kind, value); half the accesses return to the
        previous one's pool, most of those to its line, so that lines hit."""
        rng = self.rng
        if self.last is not None and rng.random() < 0.5:
            vm, base, span, kinds, vaddr = self.last
            if rng.random() < 0.7:
                vaddr = vaddr & ~(GEOMETRY["line_bytes"] - 1) | rng.randrange(0, GEOMETRY["line_bytes"], 8)
            else:
                vaddr = base + rng.randrange(0, span, 8)
        else:
            vm, base, span, kinds = rng.choice(self.pools)
            vaddr = base + rng.randrange(0, span, 8)
        self.last = vm, base, span, kinds, vaddr
        if rng.random() < 0.02:
            vaddr |= NON_CANONICAL
        kind = rng.choice(kinds)
        value = rng.getrandbits(64) if kind == "write" else None
        return vm, vaddr, kind, value


@pytest.mark.parametrize("seed,jitter", [(1, 0), (2, 3), (3, 0), (4, 7)])
def test_virtual_access_matches_reference_pipeline(seed, jitter):
    rng = random.Random(seed)
    sys_, ref = make_pair(seed, jitter)
    program = Program(rng, sys_, ref)
    seen = dict.fromkeys(
        ("lock_hit", "tlb_drop", "fault", "non-canonical", "hit", "write_hit", "miss", "spm",
         "spm-misconfig", "cache_drop", "two_stage_walk", "superpage_fill", "stale_ifetch"),
        0,
    )
    for step in range(3000):
        if program.step():
            continue
        vm, vaddr, kind, value = program.access()
        drops = sys_.dtlb.dropped_fills + sys_.itlb.dropped_fills
        cache_drops = sys_.icache.stats["fill_drops"] + sys_.dcache.stats["fill_drops"]
        try:
            want, stale = coherent_access(ref, vm, vaddr, kind, value)
        except RefFault as fault:
            raises_as(fault, vm, sys_.virtual_access, vaddr, kind, vm, value)
            seen["non-canonical" if fault.args[1] == "non-canonical" else "fault"] += 1
            assert_same_state(sys_, ref, step)
            continue
        got = dataclasses.astuple(sys_.virtual_access(vaddr, kind, vm, value))
        assert got == want, "step %d: %s 0x%x" % (step, kind, vaddr)
        seen["lock_hit"] += got[5]
        seen["stale_ifetch"] += stale
        seen["tlb_drop"] += sys_.dtlb.dropped_fills + sys_.itlb.dropped_fills > drops
        seen["cache_drop"] += (
            sys_.icache.stats["fill_drops"] + sys_.dcache.stats["fill_drops"] > cache_drops
        )
        seen[got[7]] += 1
        seen["write_hit"] += kind == "write" and got[7] == "hit"
        seen["two_stage_walk"] += got[6] > 3
        seen["superpage_fill"] += got[6] > 0 and vaddr >= 0x4000_0000
        if step % 500 == 499:
            assert_same_state(sys_, ref, step)
    assert_same_state(sys_, ref, "end")
    assert all(seen.values()), seen


def reference_loop(ref, vm, loop, quantum, rng):
    """The interference loop over PipelineRef.access: the cycles spent; the
    first faulting access raises RefFault."""
    per_page = max(1, SIZE_4K // loop.stride)
    spent = 0
    while spent < quantum:
        page_base = loop.base + rng.randrange(loop.pages) * SIZE_4K
        for _ in range(min(loop.touches_per_page, per_page)):
            vaddr = page_base + rng.randrange(per_page) * loop.stride
            value = (vaddr >> 3) & 0xFFFF_FFFF if loop.kind == "write" else None
            spent += ref.access(vm, vaddr, loop.kind, value)[3] + loop.compute_cycles
            if spent >= quantum:
                return spent
    return spent


@pytest.mark.parametrize("seed,jitter", [(5, 0), (6, 3)])
def test_run_loop_matches_reference_pipeline(seed, jitter):
    """Interference loops of every kind, stride and pool, faulting ones
    included, between stretches of the random program.  A faulting loop
    raises on the same touch on both sides, with both loop generators in
    the same state."""
    rng = random.Random(seed)
    sys_, ref = make_pair(seed, jitter)
    program = Program(rng, sys_, ref)
    faults = 0
    for round_ in range(60):
        for _ in range(40):
            if not program.step():
                vm, vaddr, kind, value = program.access()
                try:
                    want = coherent_access(ref, vm, vaddr, kind, value)[0]
                except RefFault as fault:
                    raises_as(fault, vm, sys_.virtual_access, vaddr, kind, vm, value)
                    continue
                assert dataclasses.astuple(sys_.virtual_access(vaddr, kind, vm, value)) == want
        vm, base, span, kinds = rng.choice(program.pools)
        loop = InterferenceLoop(
            base=base | (NON_CANONICAL if rng.random() < 0.03 else 0),
            pages=span // SIZE_4K,
            stride=rng.choice((8, 16, 64, 512, SIZE_4K)),
            touches_per_page=rng.randint(1, 8),
            kind=rng.choice(kinds),
            compute_cycles=rng.choice((0, 0, 3)),
        )
        quantum = rng.randrange(100, 4000)
        loop_seed = rng.getrandbits(32)
        ours, theirs = random.Random(loop_seed), random.Random(loop_seed)
        args = (vm, loop.kind, loop.addresses(ours), loop.compute_cycles, quantum)
        try:
            want = reference_loop(ref, vm, loop, quantum, theirs)
        except RefFault as fault:
            raises_as(fault, vm, sys_.run_loop, *args)
            faults += 1
        else:
            assert sys_.run_loop(*args) == want, round_
        assert ours.getstate() == theirs.getstate(), round_
        assert_same_state(sys_, ref, round_)
    assert faults


def reference_phase(ref, vm, regions, rng):
    """`regions` run by `vm` through PipelineRef.access: the cycles, each
    access charged its region's compute cycles; a store writes
    write_value(vaddr), as run_loop's do."""
    cycles = 0
    for region in regions:
        for vaddr in region.addresses(rng):
            value = write_value(vaddr) if region.kind == "write" else None
            cycles += ref.access(vm, vaddr, region.kind, value)[3] + region.compute_cycles
    return cycles


@pytest.mark.parametrize("text", preset_names() + ["writes"])
def test_measured_phase_counter_delta_matches_reference(text):
    """Two rounds of run_iteration's phases on one machine, with no
    restore between them, each mirrored on the reference: interference
    quanta, each followed by the hypervisor's footprint, then the measured
    phase, whose counters() delta must equal the reference's."""
    config = WRITES_TEXT if text == "writes" else preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=1)
    seen = set()
    for name in cfg.scenario_names:
        defn = cfg.scenarios[name]
        plan = build_plan(defn)
        crit, hyp = plan.measured, plan.hyp_context
        jitter = defn.latency.jitter
        sys_ = build_system(defn, random.Random(3) if jitter else None)
        ref = PipelineRef(dataclasses.astuple(defn.machine), dataclasses.astuple(defn.latency),
                          sys_.icache.spm_base, sys_.dcache.spm_base,
                          random.Random(3) if jitter else None)
        # setup_scenario on the machine, mirrored on the reference.
        setup_scenario(plan, sys_)
        for way in range(defn.spm_ways):
            ref.icache.convert(way, True)
            ref.dcache.convert(way, True)
        for side, tref in (("i", ref.itlb), ("d", ref.dtlb)):
            for index, (ctx, chunk) in enumerate(plan.lock_chunks[side]):
                vpn = chunk.gvaddr >> 12 & VPN_MASK
                tref.program(index, "vpn", (vpn, chunk.page_size, chunk.flags))
                tref.program(index, "pte", make_pte(chunk.paddr >> 12, chunk.flags))
                tref.program(index, "id", (ctx.asid, ctx.vmid))
        ours, theirs = random.Random(5), random.Random(5)  # the workload streams

        def footprint():
            ref.cur_part = hyp.partition_mask
            reference_phase(ref, hyp, (defn.hyp.footprint,), None)

        # The prefix: the prime under the measured VM's mask, then a trap.
        run_prefix(plan, sys_, ours)
        ref.cur_part = crit.partition_mask
        reference_phase(ref, crit, crit.workload.prime, theirs)
        footprint()
        for round_ in range(2):
            for intf in plan.interference:
                trap_exit(sys_, intf)
                run_interference(sys_, intf, intf.workload, defn.hyp.quantum_cycles, ours)
                trap_enter(plan, sys_)
                ref.cur_part = intf.partition_mask
                reference_loop(ref, intf, intf.workload, defn.hyp.quantum_cycles, theirs)
                footprint()
            trap_exit(sys_, crit)
            ref.cur_part = crit.partition_mask
            where = (name, round_)
            assert sys_.counters() == ref.counters(), where
            before, ref_before = sys_.counters(), ref.counters()
            cycles = run_measure(sys_, crit, compile_sweeps(crit.workload.measure), ours)
            want = reference_phase(ref, crit, crit.workload.measure, theirs)
            delta = counter_delta(sys_.counters(), before)
            assert delta == counter_delta(ref.counters(), ref_before), where
            assert cycles == want, where
            assert ours.getstate() == theirs.getstate(), where
            if jitter:
                assert sys_.rng.getstate() == ref.rng.getstate(), where
            seen.update(n for n, d in zip(COUNTERS, delta) if d)
    # The phases hit lock slots and missed, hit and evicted lines; they
    # walked on every preset (WRITES_TEXT's interference evicts no measured
    # translation), used the scratchpad where one is converted and wrote
    # back where the measure stores.
    assert {"dtlb.lock_hits", "dcache.misses", "dcache.hits", "dcache.evictions"} <= seen, seen
    if text == "writes":
        assert {"dcache.spm_accesses", "dcache.write_backs"} <= seen, seen
    else:
        assert {"dtlb.misses", "dtlb.fills"} <= seen, seen
    if text != "synthetic-nospm":
        assert {"icache.spm_accesses", "dcache.spm_accesses"} <= seen, seen

"""Per-access latency pipeline: TLB, then walker, then cache/scratchpad.

One MemorySystem models the memory side of a single hart::

                 ifetch                      read/write
                   |                             |
                 I-TLB                         D-TLB
                   |     (miss: table walk,      |
                   |      PTE fetches priced     |
                   |      by the D-cache)        |
                   v                             v
                I-cache <---- SPM window ----> D-cache
                   \\                             /
                    '----- shared backing memory

Backing memory is one word store that both caches read and write, so a
store is seen by both sides at once, before any write-back.  It holds
the scratchpad words too, each at its window address, and the two
windows may not overlap.  No cycle depends on a value: events alone are
priced.

This is the only module that knows a price.  TLB lookups, cache
accesses and walks report what happened; one table built from
LatencyConfig turns those events into cycles:

  every TLB lookup      -> tlb_hit_cycles (hit or miss)
  cache hit             -> cache_hit_cycles
  cache miss            -> memory_cycles plus jitter
  spm, spm-misconfig    -> spm_cycles

An access's cycles split into translation (its TLB lookup), walk (its
PTE fetches, each one a D-cache read; zero on a TLB hit) and cache (the
final physical access through the I- or D-side array).

A translation fault is a scenario bug, never an outcome: Tlb.translate
raises ValueError on a non-canonical address, and _refill raises
SimulationError on a faulting walk before it prices or fills anything.

Each leaf is walked once per address-space pair per experiment: the
walk, its PTE-fetch list and the TLB entry it fills depend only on the
page tables, the VM's ids, the leaf and the D-cache's line size and set
count, so every TLB miss on a page of the leaf, on any machine over the
same spaces, fills the remembered entry, takes its physical address from
the entry's PTE and prices the remembered fetch list through its own
D-cache, in order.  A leaf is the merged translation's page: a 2 MiB
guest leaf over 4 KiB host pages is walked once per 4 KiB page, and a
superpage at both stages once for all its pages.  The remembered walks
belong to the guest space, in one weak-keyed table (_REMEMBERED) that
forgets them when the space is freed; harness.run_experiment shares one
layout's spaces among its scenarios (hypervisor.build_plan), so they
live for one experiment, and no plan or machine holds them.  A machine
reads the table once per run_loop call and once per virtual_access TLB
miss, never per touch.  A change to either stage's tables (seen through
AddressSpace.version) forgets what was remembered for that pair.  The
list is kept as the D-cache decodes it and read by one Cache.replay,
which returns the events of the fetches that did not hit, in order.  The
walk costs cache_hit_cycles per hit plus the table's price of each
returned event, and its misses then draw their jitter through
jitter_sum: nothing draws between fetches, so the generator sees the
same draws in the same order.

The optional jitter models memory-controller noise: a miss (a refill or
a fill-drop, the only events that model a trip to backing memory) adds a
uniform draw from [-j, +j].  Hits, SPM accesses and lock-slot
translations never consult the generator, so a fully locked,
SPM-resident access path stays cycle-constant even with jitter enabled;
hypervisor.run_iteration draws the records of a plan whose measured
phase takes only that path, as the phase's counters() delta shows it.
Because each miss is exactly one draw, restore() draws once per miss its
snapshot's caches count: the restored machine and generator stand where
a machine built with that generator stood on reaching the snapshot.
restore draws through jitter_sum, and so does a caller that knows a
phase's miss count without simulating it: after a restore, a phase of k
misses adds jitter_sum(rng, j, k, after=the snapshot's misses).

run_loop does what a virtual_access per address would do but builds no
outcome: each touch is one Tlb.translate (the path Tlb.lookup takes) and
one call of the cache's access step (Cache.step, the path Cache.access
takes), its event priced from a table with the lookup and compute cycles
folded in.  The prices are fixed for a machine, so each compute charge's
table is built once and kept; the VM's remembered walks are looked up
once per call, not once per TLB miss.  A miss's jitter draw and a
store's value (write_value) are computed in the loop's own frame, so a
touch calls only Tlb.translate and Cache.step, and _refill on a TLB
miss.  Interference quanta run through it, and so do the timed measured
phase and the hypervisor's footprint sweep on every trap: a quantum of
math.inf never stops it, so it sweeps its whole address stream, one call
per compiled sweep (workload.run_measure).  This module reads nothing of
a TLB's or a cache's storage but their tallies, in counters().

Every draw goes straight to the generator's getrandbits, through
randbelow or one of its two written-out copies, jitter_sum's and
run_loop's, each applying CPython's own rejection rule, so a draw gives
the same value and leaves the generator in the same state as
random.Random.randint(-j, j).
"""

import weakref
from dataclasses import dataclass, fields
from operator import itemgetter

from .cache import EVENT_HIT, EVENT_MISS, EVENT_SPM, EVENT_SPM_MISCONFIG, STATS, Cache
from .cache import check_geometry as check_cache_geometry
from .sv39 import PAGE_SHIFT, PAGE_SIZE, PPN_SHIFT, PTE_G, SIZE_1G, SIZE_2M
from .tlb import PartitionCsrFile, Tlb, TlbEntry
from .tlb import check_geometry as check_tlb_geometry
from .walker import walk_single, walk_two_stage

KINDS = ("read", "write", "ifetch")

# guest space -> {(host space, asid, vmid, D-cache line bytes, D-cache
# sets): ((guest.version, host.version), {leaf: (WalkResult, TlbEntry,
# decoded fetches)})}, shared by every machine over the guest space; a
# leaf is keyed as _refill keys it.
_REMEMBERED = weakref.WeakKeyDictionary()

# What each position of MemorySystem.counters() counts, as "unit.tally":
# each TLB's tallies, then each cache's stats (cache.STATS), I-side first.
COUNTERS = tuple("%s.%s" % (tlb, name) for tlb in ("itlb", "dtlb")
                 for name in ("hits", "misses", "lock_hits", "fills", "dropped_fills"))
COUNTERS += tuple("%s.%s" % (cache, name) for cache in ("icache", "dcache") for name in STATS)
_CACHE_MISSES = itemgetter(COUNTERS.index("icache.misses"), COUNTERS.index("dcache.misses"))


class SimulationError(RuntimeError):
    """A scenario is internally inconsistent: a workload access faulted."""


def randbelow(getrandbits, n):
    """A uniform draw from [0, n), n >= 1, taken from `getrandbits` of a
    random.Random exactly as its randrange(n) takes it: the same value,
    and the same generator state after."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def jitter_sum(rng, jitter, misses, after=0):
    """The jitter `misses` cache misses add after `after` earlier misses
    drew from the same generator `rng`: each miss draws once, as
    randint(-jitter, jitter) would.  On a machine restored with `rng`,
    `after` is its miss count, the snapshot's included.  0, and `rng`
    untouched, when jitter is 0."""
    total = 0
    if jitter:
        getrandbits = rng.getrandbits
        span = 2 * jitter + 1
        k = span.bit_length()
        for _ in range(after):
            while getrandbits(k) >= span:
                pass
        for _ in range(misses):
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            total += r - jitter
    return total


def write_value(vaddr):
    """The value a workload stores at vaddr.  Any deterministic function
    of the address will do; this one makes memory contents recognizable
    in dumps."""
    return (vaddr >> 3) & 0xFFFF_FFFF


@dataclass(frozen=True)
class LatencyConfig:
    """All cycle prices in one place.  These are simulator calibration
    constants (configurable per experiment), not measurements of any
    particular silicon."""

    tlb_hit_cycles: int = 1
    cache_hit_cycles: int = 1
    spm_cycles: int = 1
    memory_cycles: int = 40
    jitter: int = 0  # uniform +/- bound applied per memory access; 0 disables

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError("%s must be >= 0" % f.name)
        if self.jitter >= self.memory_cycles and self.jitter:
            raise ValueError(
                "jitter bound %d must stay below memory_cycles %d"
                % (self.jitter, self.memory_cycles)
            )

    def cheapest_touch(self, compute_cycles, spm):
        """The fewest cycles a run_loop touch can cost: a TLB hit, its
        compute charge and the cheapest final access, which is a cache hit
        or a miss at its lowest jitter, or a scratchpad access if `spm`."""
        final = self.spm_cycles if spm else min(
            self.cache_hit_cycles, self.memory_cycles - self.jitter
        )
        return self.tlb_hit_cycles + compute_cycles + final


@dataclass(frozen=True)
class MachineConfig:
    """The shape no mitigation changes: the geometry of both TLBs and both
    caches, named after the [tlb] and [cache] keys.  Building one checks
    that it can be built: each cache array holds at most
    cache.MAX_ARRAY_BYTES, so a window base aligned to that fits it."""

    entries: int = 16
    partitions: int = 16
    lock_slots: int = 8
    ways: int = 8
    icache_sets: int = 128
    dcache_sets: int = 256
    line_bytes: int = 16

    def __post_init__(self):
        check_tlb_geometry(self.entries, self.partitions, self.lock_slots)
        for name in ("icache_sets", "dcache_sets"):
            check_cache_geometry(self.ways, getattr(self, name), self.line_bytes, name)


@dataclass
class MemAccessOutcome:
    """One access, fully accounted.  total_cycles is the sum of the three
    components."""

    translation_cycles: int = 0
    walk_cycles: int = 0
    cache_cycles: int = 0
    total_cycles: int = 0
    tlb_hit: bool = False
    lock_hit: bool = False
    walk_fetches: int = 0
    cache_event: str = None  # hit | miss | spm | spm-misconfig
    value: int = None
    paddr: int = None


class MemorySystem:
    """The per-hart TLBs and caches composed into one access pipeline, all
    of `machine`'s shape: two TLBs sharing one partition CSR file (`csr`)
    and two caches sharing `memory`, with their scratchpad windows at
    `ispm_base` and `dspm_base`.

    The vm argument of virtual_access duck-types: it must carry `asid`,
    `vmid`, `guest_space` and `host_space` attributes (host_space None
    selects a single-stage walk).  Lock-slot programming and partition CSR
    writes happen directly on the member TLBs / shared CSR file.
    """

    def __init__(self, machine, memory, latency=None, *, ispm_base, dspm_base, rng=None):
        self.latency = latency or LatencyConfig()
        if self.latency.jitter and rng is None:
            raise ValueError("jitter is enabled but no seeded generator was supplied")
        self.csr = csr = PartitionCsrFile(machine.partitions)
        self.memory = memory
        itlb, dtlb = (Tlb(csr, machine.entries, machine.lock_slots) for _ in range(2))
        icache, dcache = (
            Cache(memory, ways=machine.ways, sets=sets, line_bytes=machine.line_bytes,
                  spm_base=base)
            for sets, base in ((machine.icache_sets, ispm_base), (machine.dcache_sets, dspm_base))
        )
        self.itlb, self.dtlb, self.icache, self.dcache = itlb, dtlb, icache, dcache
        self.rng = rng
        self._sides = {
            "read": (dtlb, dcache),
            "write": (dtlb, dcache),
            "ifetch": (itlb, icache),
        }
        lat = self.latency
        # Cache event -> cycles; a miss also pays a jitter draw.
        self._price = {
            EVENT_HIT: lat.cache_hit_cycles,
            EVENT_MISS: lat.memory_cycles,
            EVENT_SPM: lat.spm_cycles,
            EVENT_SPM_MISCONFIG: lat.spm_cycles,
        }
        # compute cycles -> run_loop's price table: the event's cycles plus
        # the lookup and the compute charge, fixed for this machine.
        self._loop_prices = {}

    # -- pricing helpers ------------------------------------------------------

    def _walk_table(self, vm):
        """vm's remembered walks, {page: (WalkResult, TlbEntry, decoded
        fetches)}, read from _REMEMBERED: shared with every machine over
        vm's spaces under vm's ids and with this D-cache shape, and emptied
        first if either stage's tables changed since.  Read once per
        run_loop call and once per virtual_access TLB miss."""
        guest, host = vm.guest_space, vm.host_space
        versions = (guest.version, None if host is None else host.version)
        shared = _REMEMBERED.setdefault(guest, {})
        inner = (host, vm.asid, vm.vmid, self.dcache.line_bytes, self.dcache.sets)
        known = shared.get(inner)
        if known is None or known[0] != versions:
            known = shared[inner] = (versions, {})
        return known[1]

    def _refill(self, tlb, vm, vaddr, pages):
        """Serve a TLB miss: walk vaddr's leaf (remembered in `pages`, vm's
        _walk_table), price the walk and fill `tlb`.  Returns (walk, paddr,
        cycles), paddr taken from the entry's PTE and page size.  A walk
        that faults raises SimulationError and is neither priced nor
        remembered.

        A 4 KiB leaf is remembered under its page number, a superpage leaf
        under (its page size, its base address), so every page of a
        superpage is served by one walk.  The leaf is looked up by its 4 KiB
        page first, then by its 2 MiB and 1 GiB spans."""
        remembered = (
            pages.get(vaddr >> PAGE_SHIFT)
            or pages.get((SIZE_2M, vaddr & -SIZE_2M))
            or pages.get((SIZE_1G, vaddr & -SIZE_1G))
        )
        if remembered is None:
            guest, host = vm.guest_space, vm.host_space
            if host is None:
                walk = walk_single(guest, vaddr)
            else:
                walk = walk_two_stage(guest, host, vaddr)
            if walk.fault is not None:
                raise SimulationError(
                    "access 0x%x by vmid %d asid %d faulted (%s, stage %s)"
                    % (vaddr, vm.vmid, vm.asid, walk.fault, walk.fault_stage)
                )
            size = walk.page_size
            entry = TlbEntry(
                vpn=walk.vpn,
                page_size=size,
                asid=vm.asid,
                vmid=vm.vmid,
                pte=walk.pte,
                global_flag=bool(walk.pte & PTE_G),
            )
            key = vaddr >> PAGE_SHIFT if size == PAGE_SIZE else (size, vaddr & -size)
            remembered = pages[key] = (walk, entry, self.dcache.decode(walk.accesses))
        walk, entry, fetches = remembered
        events = self.dcache.replay(fetches)
        cycles = (len(fetches) - len(events)) * self.latency.cache_hit_cycles
        if events:
            for event in events:
                cycles += self._price[event]
            cycles += jitter_sum(self.rng, self.latency.jitter, events.count(EVENT_MISS))
        tlb.fill(entry)
        paddr = entry.pte >> PPN_SHIFT << PAGE_SHIFT | vaddr & entry.page_size - 1
        return walk, paddr, cycles

    # -- the pipeline -----------------------------------------------------------

    def virtual_access(self, vaddr, kind, vm, value=None):
        """Translate and perform one access on behalf of `vm`, and price
        it; each cache miss, a real memory trip, draws jitter.  A write
        given no value stores write_value(vaddr), as run_loop's do."""
        side = self._sides.get(kind)
        if side is None:
            raise ValueError("kind must be one of %r, got %r" % (KINDS, kind))
        tlb, cache = side
        if value is None and kind == "write":
            value = write_value(vaddr)
        look = tlb.lookup(vaddr, vm.asid, vm.vmid)
        translation = self.latency.tlb_hit_cycles
        status = look.status
        if status == "hit":
            walk_cycles = fetches = 0
            paddr = look.paddr
        else:
            walk, paddr, walk_cycles = self._refill(tlb, vm, vaddr, self._walk_table(vm))
            fetches = len(walk.accesses)
        event, read = cache.access(paddr, kind, value)
        cycles = self._price[event]
        jitter = self.latency.jitter
        if jitter and event == EVENT_MISS:
            cycles += randbelow(self.rng.getrandbits, 2 * jitter + 1) - jitter
        return MemAccessOutcome(
            translation, walk_cycles, cycles, translation + walk_cycles + cycles,
            status == "hit", look.lock_hit, fetches, event, read, paddr,
        )

    def run_loop(self, vm, kind, addresses, compute_cycles, quantum):
        """Perform `kind` accesses at `addresses` on behalf of `vm` until a
        positive `quantum` of cycles is spent, stopping at the first access
        boundary at or past it; each costs virtual_access's cycles plus
        `compute_cycles`.  Returns the cycles spent.  A quantum of math.inf
        makes it a sweep of every address.

        Each touch is one Tlb.translate (a miss goes on to _refill, with
        vm's walk table looked up once per call) and one Cache.step, priced
        from a table fixed once per machine and compute charge; a miss's
        jitter draw and a store's value are computed here."""
        tlb, cache = self._sides[kind]
        translate, refill, step = tlb.translate, self._refill, cache.step
        asid, vmid = vm.asid, vm.vmid
        walks = self._walk_table(vm)
        price = self._loop_prices.get(compute_cycles)
        if price is None:
            touch = self.latency.tlb_hit_cycles + compute_cycles  # no walk, no jitter
            price = self._loop_prices[compute_cycles] = {
                event: touch + cycles for event, cycles in self._price.items()
            }
        jitter = self.latency.jitter
        if jitter:
            draw, span = self.rng.getrandbits, 2 * jitter + 1
            bits = span.bit_length()
        write = kind == "write"
        spent = 0
        for vaddr in addresses:
            paddr = translate(vaddr, asid, vmid)
            if paddr is None:
                _, paddr, cycles = refill(tlb, vm, vaddr, walks)
                spent += cycles
            # A store writes write_value(vaddr).
            event = step(paddr, vaddr >> 3 & 0xFFFF_FFFF if write else None)
            spent += price[event]
            if jitter and event == EVENT_MISS:
                # randbelow(draw, span), written out as jitter_sum writes it.
                r = draw(bits)
                while r >= span:
                    r = draw(bits)
                spent += r - jitter
            if spent >= quantum:
                break
        return spent

    # -- bookkeeping ---------------------------------------------------------

    def counters(self):
        """Every tally of the machine as one flat tuple, each position named
        by COUNTERS; the delta of two is what happened between them."""
        itlb, dtlb = self.itlb, self.dtlb
        return (itlb.hits, itlb.misses, itlb.lock_hits, itlb.fills, itlb.dropped_fills,
                dtlb.hits, dtlb.misses, dtlb.lock_hits, dtlb.fills, dtlb.dropped_fills,
                *self.icache.stats.values(), *self.dcache.stats.values())

    def snapshot(self):
        """The machine state -- both TLBs, both caches, the partition CSRs
        and the backing memory's word store, which the caches share and
        which holds their scratchpad words -- as immutable copies for
        restore()."""
        csr = self.csr
        return (
            self.itlb.snapshot(),
            self.dtlb.snapshot(),
            self.icache.snapshot(),
            self.dcache.snapshot(),
            (csr.cur_part, csr.last_part),
            self.memory.snapshot(),
        )

    def restore(self, state, rng):
        """Return to a snapshot() in place, drawing jitter from `rng`, which
        first draws once per cache miss the snapshot counts.  Remembered
        walks are kept: they depend only on the page tables."""
        if self.latency.jitter and rng is None:
            raise ValueError("jitter is enabled but no seeded generator was supplied")
        itlb, dtlb, icache, dcache, csr, memory = state
        self.itlb.restore(itlb)
        self.dtlb.restore(dtlb)
        self.icache.restore(icache)
        self.dcache.restore(dcache)
        self.csr.cur_part, self.csr.last_part = csr
        self.memory.restore(memory)
        self.rng = rng
        jitter_sum(rng, self.latency.jitter, 0, after=sum(_CACHE_MISSES(self.counters())))

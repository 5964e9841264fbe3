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

This is the only module that knows a price.  TLB lookups, cache
accesses and walks report what happened; one table built from
LatencyConfig turns those events into cycles:

  every TLB lookup      -> tlb_hit_cycles (hit, miss or fault)
  cache hit             -> cache_hit_cycles
  cache miss            -> memory_cycles plus jitter
  spm, spm-misconfig    -> spm_cycles

An access's cycles split into translation (its TLB lookup), walk (its
PTE fetches, each one a D-cache read; zero on a TLB hit) and cache (the
final physical access through the I- or D-side array).

Each 4 KiB page is walked once per VM: the walk, its PTE-fetch list and
the TLB entry it fills depend only on the page tables, the VM's ids and
the page, so every TLB miss on the page fills the remembered entry and
prices the remembered fetch list through the D-cache, in order.  A
change to either stage's tables (seen through AddressSpace.version)
forgets what was remembered for that pair.  The whole list goes to the
D-cache in one Cache.read_fetches call, which reads it in order and
returns the walk's hit, miss and SPM counts; the walk is priced from
those counts and then draws one jitter sample per miss.  Nothing between
two fetches of one walk draws from the generator, so this is the same
sequence of draws as pricing the fetches one by one.

The optional jitter models memory-controller noise: a miss (a refill or
a fill-drop, the only events that reach backing memory) adds a uniform
draw from [-j, +j].  Hits, SPM accesses and lock-slot translations never
consult the generator, so a fully locked, SPM-resident access path stays
cycle-constant even with jitter enabled.  Because each miss is exactly one
draw, replay_jitter can advance the generator past a known number of
misses without performing them (the hypervisor does so for the prefix it
restores instead of re-running).  All three -- a final access, a walk
and a replay -- sample through MemorySystem._jitter.
"""

from dataclasses import dataclass, fields

from .cache import EVENT_HIT, EVENT_MISS, EVENT_SPM, EVENT_SPM_MISCONFIG, Cache, Memory
from .sv39 import PAGE_SHIFT, PAGE_SIZE, PTE_G
from .tlb import PartitionCsrFile, Tlb, TlbEntry
from .walker import walk_single, walk_two_stage

KINDS = ("read", "write", "ifetch")


@dataclass
class LatencyConfig:
    """All cycle prices in one place.  These are simulator calibration
    constants (configurable per experiment), not measurements of any
    particular silicon."""

    tlb_hit_cycles: int = 1
    cache_hit_cycles: int = 1
    spm_cycles: int = 1
    memory_cycles: int = 40
    jitter: int = 0  # uniform +/- bound applied per memory access; 0 disables

    def validate(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError("%s must be >= 0" % f.name)
        if self.jitter >= self.memory_cycles and self.jitter:
            raise ValueError(
                "jitter bound %d must stay below memory_cycles %d"
                % (self.jitter, self.memory_cycles)
            )
        return self


@dataclass
class MemAccessOutcome:
    """One access, fully accounted.  total_cycles is the sum of the three
    components; faults simply leave the later components at zero."""

    translation_cycles: int = 0
    walk_cycles: int = 0
    cache_cycles: int = 0
    total_cycles: int = 0
    tlb_hit: bool = False
    lock_hit: bool = False
    walk_fetches: int = 0
    cache_event: str = None  # hit | miss | spm | spm-misconfig | None on fault
    fault: str = None  # None | non-canonical | invalid | misaligned | no-leaf
    fault_stage: str = None  # None | guest | host
    value: int = None
    paddr: int = None

    @property
    def ok(self):
        return self.fault is None


class MemorySystem:
    """Composes the per-hart TLBs and caches into one access pipeline.

    The vm argument of virtual_access duck-types: it must carry `asid`,
    `vmid`, `guest_space` and `host_space` attributes (host_space None
    selects a single-stage walk).  Lock-slot programming and partition CSR
    writes happen directly on the member TLBs / shared CSR file.
    """

    def __init__(self, *, itlb, dtlb, icache, dcache, latency=None, rng=None):
        self.latency = (latency or LatencyConfig()).validate()
        if self.latency.jitter and rng is None:
            raise ValueError("jitter is enabled but no seeded generator was supplied")
        self.itlb = itlb
        self.dtlb = dtlb
        self.icache = icache
        self.dcache = dcache
        self.rng = rng
        lat = self.latency
        # Cache event -> cycles; a miss also pays a jitter draw.
        # read_fetches counts both scratchpad events as one, so they
        # share a price.
        self._price = {
            EVENT_HIT: lat.cache_hit_cycles,
            EVENT_MISS: lat.memory_cycles,
            EVENT_SPM: lat.spm_cycles,
            EVENT_SPM_MISCONFIG: lat.spm_cycles,
        }
        # (guest, host, asid, vmid) -> ((guest.version, host.version),
        # {page: (WalkResult, TlbEntry or None on a fault)})
        self._walks = {}

    @classmethod
    def build(
        cls,
        memory=None,
        latency=None,
        *,
        tlb_entries=16,
        partition_count=16,
        lock_slots=8,
        icache_sets=128,
        dcache_sets=256,
        ways=8,
        line_bytes=16,
        ispm_base=None,
        dspm_base=None,
        rng=None,
    ):
        """Convenience constructor wiring the shared CSR file and memory."""
        if memory is None:
            memory = Memory()
        csr = PartitionCsrFile(partition_count)

        def make_tlb():
            return Tlb(
                csr, entries=tlb_entries, partition_count=partition_count, lock_slots=lock_slots
            )

        def make_cache(sets, base):
            return Cache(memory, ways=ways, sets=sets, line_bytes=line_bytes, spm_base=base)

        return cls(
            itlb=make_tlb(),
            dtlb=make_tlb(),
            icache=make_cache(icache_sets, ispm_base),
            dcache=make_cache(dcache_sets, dspm_base),
            latency=latency,
            rng=rng,
        )

    @property
    def csr(self):
        """The partition CSR file (shared by both TLBs)."""
        return self.dtlb.csr

    @property
    def memory(self):
        return self.dcache.memory

    # -- pricing helpers ------------------------------------------------------

    def _jitter(self, misses):
        """The sum of `misses` jitter draws, one per cache miss; 0 without
        touching the generator when jitter is off."""
        j = self.latency.jitter
        total = 0
        if j:
            randint = self.rng.randint
            for _ in range(misses):
                total += randint(-j, j)
        return total

    def _priced_access(self, cache, paddr, kind, value=None):
        """(AccessResult, cycles) of one cache access; only a miss, a real
        memory trip, draws jitter."""
        res = cache.access(paddr, kind, value)
        cycles = self._price[res.event]
        if res.event == EVENT_MISS:
            cycles += self._jitter(1)
        return res, cycles

    def replay_jitter(self, misses):
        """Advance the jitter generator as `misses` cache misses priced by
        _priced_access would have: one draw each, nothing else."""
        self._jitter(misses)

    def _walk(self, vm, vaddr):
        """(walk, entry, cycles) for vaddr's page: entry is the TlbEntry
        the walk fills, None on a fault.  The returned WalkResult is the
        page's first walk: use its fields, not its paddr's page offset."""
        guest, host = vm.guest_space, vm.host_space
        versions = (guest.version, None if host is None else host.version)
        key = (guest, host, vm.asid, vm.vmid)
        known = self._walks.get(key)
        if known is None or known[0] != versions:
            known = self._walks[key] = (versions, {})
        pages = known[1]
        page = vaddr >> PAGE_SHIFT
        remembered = pages.get(page)
        if remembered is None:
            if host is None:
                walk = walk_single(guest, vaddr)
            else:
                walk = walk_two_stage(guest, host, vaddr)
            entry = None
            if walk.ok:
                entry = TlbEntry(
                    vpn=walk.vpn,
                    page_size=walk.page_size,
                    asid=vm.asid,
                    vmid=vm.vmid,
                    pte=walk.pte,
                    global_flag=bool(walk.pte & PTE_G),
                )
            remembered = pages[page] = (walk, entry)
        walk, entry = remembered
        hits, misses, spm = self.dcache.read_fetches(walk.accesses)
        price = self._price
        cycles = (
            hits * price[EVENT_HIT]
            + misses * price[EVENT_MISS]
            + spm * price[EVENT_SPM]
            + self._jitter(misses)
        )
        return walk, entry, cycles

    # -- the pipeline -----------------------------------------------------------

    def virtual_access(self, vaddr, kind, vm, value=None):
        """Translate and perform one access on behalf of `vm`."""
        if kind not in KINDS:
            raise ValueError("kind must be one of %r, got %r" % (KINDS, kind))
        tlb = self.itlb if kind == "ifetch" else self.dtlb
        look = tlb.lookup(vaddr, vm.asid, vm.vmid)
        translation = self.latency.tlb_hit_cycles
        status = look.status
        if status == "fault":
            return MemAccessOutcome(
                translation, 0, 0, translation, False, False, 0, None, "non-canonical"
            )
        if status == "hit":
            walk_cycles = fetches = 0
            paddr = look.paddr
        else:
            walk, entry, walk_cycles = self._walk(vm, vaddr)
            fetches = len(walk.accesses)
            if not walk.ok:
                return MemAccessOutcome(
                    translation, walk_cycles, 0, translation + walk_cycles, False, False,
                    fetches, None, walk.fault, walk.fault_stage,
                )
            paddr = walk.paddr & ~(PAGE_SIZE - 1) | vaddr & (PAGE_SIZE - 1)
            tlb.fill(entry)
        cache = self.icache if kind == "ifetch" else self.dcache
        res, cycles = self._priced_access(cache, paddr, kind, value)
        return MemAccessOutcome(
            translation, walk_cycles, cycles, translation + walk_cycles + cycles,
            status == "hit", look.lock_hit, fetches, res.event, None, None, res.value, paddr,
        )

    # -- bookkeeping ---------------------------------------------------------

    def miss_counts(self):
        """(tlb_misses, cache_misses) across both sides, for run statistics."""
        tlb = self.itlb.misses + self.dtlb.misses
        cache = self.icache.stats["misses"] + self.dcache.stats["misses"]
        return tlb, cache

    def snapshot(self):
        """The machine state -- both TLBs, both caches, the partition CSRs
        and the backing memory the caches share -- as immutable copies for
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

    def restore(self, state, rng=None):
        """Return to a snapshot() in place; jitter draws come from `rng`
        from now on.  Remembered walks are kept: they depend only on the
        page tables."""
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

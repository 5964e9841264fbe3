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

Every access is decomposed into three cycle components:

  translation  -- the TLB lookup itself (charged on hits and misses alike)
  walk         -- the summed cost of all PTE fetches (zero on a TLB hit)
  cache        -- the final physical access through the I- or D-side array

A TLB miss walks the page tables only the first time a 4 KiB page
misses: the walk result and its PTE-fetch list depend only on the page
tables and the page, so later misses replay the remembered fetch list
through the D-cache in the same order, which prices them exactly as a
fresh walk would.  A change to either stage's tables (seen through
AddressSpace.version) forgets what was remembered for that pair.

The optional jitter models memory-controller noise: every access that
actually reaches backing memory (a cache miss or fill-drop) pays
memory_cycles plus a uniform draw from [-j, +j].  Hits, SPM accesses and
lock-slot translations never consult the generator, so a fully locked,
SPM-resident access path stays cycle-constant even with jitter enabled.
"""

from dataclasses import dataclass, fields

from .cache import EVENT_MISS, Cache, Memory
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
    """One access, fully accounted.  total_cycles is always the sum of the
    three components; faults simply leave the later components at zero."""

    total_cycles: int = 0
    translation_cycles: int = 0
    walk_cycles: int = 0
    cache_cycles: int = 0
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

    def _finalize(self):
        self.total_cycles = self.translation_cycles + self.walk_cycles + self.cache_cycles
        return self


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
        # (guest, host) -> ((guest.version, host.version), {page: WalkResult})
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
        """Convenience constructor wiring shared CSR file, memory and prices."""
        latency = (latency or LatencyConfig()).validate()
        if memory is None:
            memory = Memory()
        csr = PartitionCsrFile(partition_count)

        def make_tlb():
            return Tlb(
                csr,
                entries=tlb_entries,
                partition_count=partition_count,
                lock_slots=lock_slots,
                hit_cycles=latency.tlb_hit_cycles,
            )

        def make_cache(sets, base):
            return Cache(
                memory,
                ways=ways,
                sets=sets,
                line_bytes=line_bytes,
                hit_cycles=latency.cache_hit_cycles,
                miss_cycles=latency.memory_cycles,
                spm_cycles=latency.spm_cycles,
                spm_base=base,
            )
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

    def _memory_noise(self):
        j = self.latency.jitter
        if not j:
            return 0
        return self.rng.randint(-j, j)

    def _priced_access(self, cache, paddr, kind, value=None):
        """Cache access plus the jitter surcharge for real memory trips."""
        res = cache.access(paddr, kind, value)
        latency = res.latency
        if res.event == EVENT_MISS:
            latency += self._memory_noise()
        return res, latency

    def _walk_fetch(self, paddr):
        _, latency = self._priced_access(self.dcache, paddr, "read")
        return latency

    def _walk(self, vm, vaddr):
        """(walk, cycles) for vaddr's page.  The returned WalkResult is the
        page's first walk: use its fields, not its cycles or its paddr's
        page offset."""
        guest, host = vm.guest_space, vm.host_space
        versions = (guest.version, None if host is None else host.version)
        known = self._walks.get((guest, host))
        if known is None or known[0] != versions:
            known = self._walks[(guest, host)] = (versions, {})
        pages = known[1]
        page = vaddr >> PAGE_SHIFT
        walk = pages.get(page)
        if walk is None:
            if host is None:
                walk = walk_single(guest, vaddr, self._walk_fetch)
            else:
                walk = walk_two_stage(guest, host, vaddr, self._walk_fetch)
            pages[page] = walk
            return walk, walk.cycles
        fetch = self._walk_fetch
        cycles = 0
        for paddr in walk.accesses:
            cycles += fetch(paddr)
        return walk, cycles

    # -- the pipeline -----------------------------------------------------------

    def virtual_access(self, vaddr, kind, vm, value=None):
        """Translate and perform one access on behalf of `vm`."""
        if kind not in KINDS:
            raise ValueError("kind must be one of %r, got %r" % (KINDS, kind))
        tlb = self.itlb if kind == "ifetch" else self.dtlb
        out = MemAccessOutcome()
        look = tlb.lookup(vaddr, vm.asid, vm.vmid)
        out.translation_cycles = look.cycles
        if look.status == "fault":
            out.fault = "non-canonical"
            return out._finalize()
        if look.hit:
            out.tlb_hit = True
            out.lock_hit = look.lock_hit
            paddr = look.paddr
        else:
            walk, out.walk_cycles = self._walk(vm, vaddr)
            out.walk_fetches = len(walk.accesses)
            if not walk.ok:
                out.fault = walk.fault
                out.fault_stage = walk.fault_stage
                return out._finalize()
            paddr = walk.paddr & ~(PAGE_SIZE - 1) | vaddr & (PAGE_SIZE - 1)
            tlb.fill(
                TlbEntry(
                    vpn=walk.vpn,
                    page_size=walk.page_size,
                    asid=vm.asid,
                    vmid=vm.vmid,
                    pte=walk.pte,
                    global_flag=bool(walk.pte & PTE_G),
                )
            )
        cache = self.icache if kind == "ifetch" else self.dcache
        res, cycles = self._priced_access(cache, paddr, kind, value)
        out.cache_cycles = cycles
        out.cache_event = res.event
        out.value = res.value
        out.paddr = paddr
        return out._finalize()

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

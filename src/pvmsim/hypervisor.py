"""Virtual-machine monitor model: per-VM partition masks, lock regions,
trap-time CSR save/restore, round-robin quanta, and the iteration loop.

The modeled world per scenario::

    +----------------------------- one hart ------------------------------+
    |  critical VM        interference VM(s)        hypervisor            |
    |  (measured           (random page loop,        (trap handler with   |
    |   prime/measure       runs one quantum          its own partition   |
    |   workload)           while descheduled)        and tiny footprint) |
    +----------------------------------------------------------------------+

Every iteration starts from the same machine state -- caches with their
scratchpad ways converted, TLBs with their lock slots programmed, empty
backing memory, CSRs at boot values -- and draws its random streams from
iteration_seed(master, index, stream), so iteration i's record never
depends on which worker executed it or what ran before it.  The immutable
plan (page tables, physical layout, lock-chunk lists) is built once; the
set-up machine is built once per plan, on its first iteration, and every
iteration restores it in place from a snapshot taken right after set-up.

The trap choreography follows the partition CSR protocol: entering the
handler overwrites CUR_PART with the hypervisor's constant mask (which
hardware-saves the interrupted mask into LAST_PART); leaving it either
restores the saved mask (same-VM resume) or installs the next VM's mask
by writing LAST_PART first and then RESTORE_LAST_PART.

Only the measured phase is timed, so the untimed phases (prime, the
handler's footprint sweep, interference quanta) matter solely through
the TLB, cache and CSR state they leave behind, and traps and VM
switches carry no cycle price of their own.
"""

import hashlib
import random
from dataclasses import dataclass, field

from .cache import MODE_SPM, Memory, check_geometry as check_cache_geometry
from .memsys import LatencyConfig, MemorySystem
from .sv39 import (
    PAGE_SHIFT,
    PAGE_SIZES,
    PTE_A,
    PTE_D,
    PTE_R,
    PTE_W,
    PTE_X,
    SIZE_4K,
    make_pte,
)
from .tlb import check_geometry as check_tlb_geometry, check_mask
from .walker import AddressSpace
from .workload import InterferenceLoop, Region, Workload, run_interference, run_regions

# Physical layout of the modeled machine. Backing memory is sparse, so
# generous spacing costs nothing.
RAM_BASE = 0x8000_0000
RAM_SIZE = 0x1000_0000  # 256 MiB
TABLE_STRIDE = 0x0020_0000  # 2 MiB of page-table headroom per address space
FRAME_BASE = RAM_BASE + 0x0800_0000  # data frames grow from here
DSPM_BASE = 0x1000_0000  # data-cache scratchpad window
ISPM_BASE = 0x2000_0000  # instruction-cache scratchpad window
GPA_TABLE_BASE = 0x0100_0000  # guest-physical home of guest page tables
GPA_DATA_BASE = 0x4000_0000  # guest-physical home of data pages

HYP_VMID = 0
HYP_ASID = 0

_HOST_FULL = PTE_R | PTE_W | PTE_X | PTE_A | PTE_D


class SetupError(Exception):
    """A scenario cannot be realized (slot budget, SPM capacity, layout)."""


@dataclass(frozen=True)
class MappedRegion:
    """One naturally aligned guest-virtual region and how to realize it.

    backing selects where the physical frames live: ordinary RAM, the
    data-cache scratchpad window, or the instruction-cache one.  lock pins
    every mapping PTE of the region into TLB lock slots (one slot per PTE,
    so superpage mappings are the way to lock big regions cheaply).
    """

    gvaddr: int
    size: int
    flags: int
    page_size: int = SIZE_4K
    backing: str = "ram"  # ram | dspm | ispm
    lock: bool = False

    def __post_init__(self):
        if self.page_size not in PAGE_SIZES:
            raise ValueError("unsupported page size %r" % (self.page_size,))
        if self.gvaddr % self.page_size:
            raise ValueError(
                "region base 0x%x is not aligned to its %d-byte pages"
                % (self.gvaddr, self.page_size)
            )
        if self.size <= 0 or self.size % self.page_size:
            raise ValueError(
                "region size 0x%x is not a positive multiple of the page size" % self.size
            )
        if self.backing not in ("ram", "dspm", "ispm"):
            raise ValueError("unknown backing %r" % (self.backing,))
        if self.backing != "ram" and self.page_size != SIZE_4K:
            raise ValueError("scratchpad-backed regions must use base pages")

    @property
    def page_count(self):
        return self.size // self.page_size


@dataclass(frozen=True)
class VmSpec:
    """Static description of one VM in a scenario."""

    name: str
    vmid: int
    asid: int
    partition_mask: int
    regions: tuple
    workload: object = None  # Workload (measured), InterferenceLoop, or None
    two_stage: bool = True

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.vmid == HYP_VMID:
            raise ValueError("vmid %d is reserved for the hypervisor" % HYP_VMID)
        if self.partition_mask <= 0:
            raise ValueError("VM partition mask must enable at least one partition")


@dataclass(frozen=True)
class HypervisorConfig:
    partition_mask: int = 1 << 8  # one entry, next to the critical half
    quantum_cycles: int = 10_000
    footprint: tuple = (Region(base=0x0070_0000, pages=2, stride=512),)

    def __post_init__(self):
        object.__setattr__(self, "footprint", tuple(self.footprint))
        if self.quantum_cycles <= 0:
            raise ValueError("quantum must be positive")
        if self.partition_mask <= 0:
            raise ValueError("hypervisor partition mask must enable something")


@dataclass(frozen=True)
class ScenarioDef:
    """Everything needed to reproduce a scenario bit-for-bit."""

    name: str
    vms: tuple
    hyp: HypervisorConfig = field(default_factory=HypervisorConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    iterations: int = 10_000
    seed: int = 0
    tlb_entries: int = 16
    tlb_partitions: int = 16
    lock_slots: int = 8
    ways: int = 8
    icache_sets: int = 128
    dcache_sets: int = 256
    line_bytes: int = 16
    spm_ways: int = 0  # ways converted to scratchpad in BOTH caches

    def __post_init__(self):
        object.__setattr__(self, "vms", tuple(self.vms))
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        # The machine's own rules, checked here so that a scenario that
        # cannot be built fails at load time, not in its first iteration.
        check_tlb_geometry(self.tlb_entries, self.tlb_partitions, self.lock_slots)
        for sets_name in ("icache_sets", "dcache_sets"):
            check_cache_geometry(self.ways, getattr(self, sets_name), self.line_bytes, sets_name)
        check_mask(self.hyp.partition_mask, self.tlb_partitions, "hypervisor mask")
        for vm in self.vms:
            check_mask(vm.partition_mask, self.tlb_partitions, "vm %r mask" % vm.name)
        if not 0 <= self.spm_ways <= self.ways:
            raise ValueError("spm_ways must lie in [0, ways]")
        measured = [vm for vm in self.vms if isinstance(vm.workload, Workload)]
        if len(measured) != 1:
            raise ValueError("a scenario needs exactly one measured VM")
        ids = [(vm.vmid, vm.asid) for vm in self.vms]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vmid/asid pair")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    cycles: int  # measured phase only
    tlb_misses: int  # both TLBs, measured phase only
    cache_misses: int  # both caches, measured phase only


def iteration_seed(master_seed, index, stream):
    """Stable per-iteration, per-stream seed so that serial and parallel
    execution draw identical randomness."""
    payload = ("%d:%d:%s" % (master_seed, index, stream)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


# -- immutable planning --------------------------------------------------------


class VmContext:
    """Runtime identity of one VM; satisfies the memsys access contract."""

    __slots__ = ("name", "vmid", "asid", "partition_mask", "guest_space", "host_space", "workload")

    def __init__(self, name, vmid, asid, partition_mask, guest_space, host_space, workload):
        self.name = name
        self.vmid = vmid
        self.asid = asid
        self.partition_mask = partition_mask
        self.guest_space = guest_space
        self.host_space = host_space
        self.workload = workload


@dataclass(frozen=True)
class LockChunk:
    """One page-table entry worth of locked translation, ready to program."""

    gvaddr: int
    page_size: int
    paddr: int
    flags: int


@dataclass
class ScenarioPlan:
    """Shared, immutable-by-convention product of build_plan: page tables,
    runtime VM contexts, lock chunks, and the memory region list.  machine
    holds (MemorySystem, its post-set-up snapshot) once an iteration ran."""

    defn: "ScenarioDef"
    measured: VmContext
    interference: tuple  # VmContext per interference VM, in defn.vms order
    hyp_context: VmContext
    lock_chunks: dict  # "i"/"d" -> list of (VmContext, LockChunk)
    memory_regions: tuple
    machine: tuple = field(default=None, repr=False, compare=False)


class _Allocator:
    def __init__(self, base):
        self.cursor = base

    def take(self, size, align):
        self.cursor = (self.cursor + align - 1) & ~(align - 1)
        addr = self.cursor
        self.cursor += size
        return addr


def build_plan(defn):
    """Build page tables and physical placement for every VM, decompose
    lock regions into per-PTE chunks, and fail fast on any budget the
    per-iteration setup would blow (lock slots, scratchpad capacity)."""
    frames = _Allocator(FRAME_BASE)
    table_area = _Allocator(RAM_BASE)
    dspm_end = DSPM_BASE + defn.spm_ways * defn.dcache_sets * defn.line_bytes
    ispm_end = ISPM_BASE + defn.spm_ways * defn.icache_sets * defn.line_bytes
    # backing -> (name, allocator, end of the converted ways' window)
    scratchpads = {
        "dspm": ("data", _Allocator(DSPM_BASE), dspm_end),
        "ispm": ("instruction", _Allocator(ISPM_BASE), ispm_end),
    }
    measured = None
    interference = []
    lock_chunks = {"i": [], "d": []}

    def place(region):
        """Allocate the physical home of one page-table leaf chunk."""
        if region.backing == "ram":
            return frames.take(region.page_size, region.page_size)
        name, spm, end = scratchpads[region.backing]
        paddr = spm.take(SIZE_4K, SIZE_4K)
        if paddr + SIZE_4K > end:
            raise SetupError(
                "%s scratchpad overflow: region 0x%x needs more than the "
                "%d converted ways provide" % (name, region.gvaddr, defn.spm_ways)
            )
        return paddr

    for vm in defn.vms:
        root = table_area.take(TABLE_STRIDE, TABLE_STRIDE)
        if vm.two_stage:
            gpa_data = _Allocator(GPA_DATA_BASE)
            guest = AddressSpace(root_ppn=GPA_TABLE_BASE >> PAGE_SHIFT)
            host = AddressSpace(root_ppn=root >> PAGE_SHIFT, gpa_space=True)

            def map_leaf(gvaddr, paddr, region):
                gpa = gpa_data.take(region.page_size, region.page_size)
                guest.map_page(gvaddr, gpa, region.page_size, region.flags)
                host.map_page(gpa, paddr, region.page_size, _HOST_FULL)

        else:
            guest = AddressSpace(root_ppn=root >> PAGE_SHIFT)
            host = None

            def map_leaf(gvaddr, paddr, region):
                guest.map_page(gvaddr, paddr, region.page_size, region.flags)

        ctx = VmContext(vm.name, vm.vmid, vm.asid, vm.partition_mask, guest, host, vm.workload)
        for region in vm.regions:
            side = "i" if region.flags & PTE_X else "d"
            for i in range(region.page_count):
                gvaddr = region.gvaddr + i * region.page_size
                paddr = place(region)
                map_leaf(gvaddr, paddr, region)
                if region.lock:
                    lock_chunks[side].append(
                        (ctx, LockChunk(gvaddr, region.page_size, paddr, region.flags))
                    )
        if host is not None:
            # Guest page tables themselves live in guest-physical pages;
            # give each one a host frame so their PTE fetches are priceable.
            for tppn in guest.table_ppns():
                host.map_page(tppn << PAGE_SHIFT, frames.take(SIZE_4K, SIZE_4K), SIZE_4K, _HOST_FULL)
        if isinstance(vm.workload, Workload):
            measured = ctx
        elif isinstance(vm.workload, InterferenceLoop):
            interference.append(ctx)

    for side, chunks in lock_chunks.items():
        if len(chunks) > defn.lock_slots:
            raise SetupError(
                "%s-side lock regions need %d slots but only %d are available"
                % (side.upper(), len(chunks), defn.lock_slots)
            )

    # The hypervisor's own footprint pages, single-stage under its ids.
    hyp_root = table_area.take(TABLE_STRIDE, TABLE_STRIDE)
    hyp_space = AddressSpace(root_ppn=hyp_root >> PAGE_SHIFT)
    for region in defn.hyp.footprint:
        for i in range(region.pages):
            hyp_space.map_page(
                region.base + i * SIZE_4K,
                frames.take(SIZE_4K, SIZE_4K),
                SIZE_4K,
                PTE_R | PTE_W | PTE_A | PTE_D,
            )
    hyp_context = VmContext(
        "hypervisor", HYP_VMID, HYP_ASID, defn.hyp.partition_mask, hyp_space, None, None
    )

    return ScenarioPlan(
        defn=defn,
        measured=measured,
        interference=tuple(interference),
        hyp_context=hyp_context,
        lock_chunks=lock_chunks,
        memory_regions=((RAM_BASE, RAM_SIZE),),
    )


# -- per-iteration machine state -------------------------------------------------


def build_system(defn, regions, jitter_rng):
    return MemorySystem.build(
        memory=Memory(regions),
        latency=defn.latency,
        tlb_entries=defn.tlb_entries,
        partition_count=defn.tlb_partitions,
        lock_slots=defn.lock_slots,
        icache_sets=defn.icache_sets,
        dcache_sets=defn.dcache_sets,
        ways=defn.ways,
        line_bytes=defn.line_bytes,
        ispm_base=ISPM_BASE,
        dspm_base=DSPM_BASE,
        rng=jitter_rng,
    )


def setup_scenario(plan, sys):
    """Realize a plan on a fresh memory system: convert scratchpad ways and
    program one lock slot per locked page-table entry (first come, first
    served in VM declaration order)."""
    defn = plan.defn
    for way in range(defn.spm_ways):
        sys.icache.configure_way(way, MODE_SPM)
        sys.dcache.configure_way(way, MODE_SPM)
    for side, tlb in (("i", sys.itlb), ("d", sys.dtlb)):
        for index, (ctx, chunk) in enumerate(plan.lock_chunks[side]):
            tlb.program_lock_slot(
                index,
                "vpn",
                vpn=chunk.gvaddr >> PAGE_SHIFT,
                page_size=chunk.page_size,
                flags=chunk.flags,
            )
            tlb.program_lock_slot(index, "pte", pte=make_pte(chunk.paddr >> PAGE_SHIFT, chunk.flags))
            tlb.program_lock_slot(index, "id", asid=ctx.asid, vmid=ctx.vmid)


def restore_machine(plan, jitter_rng):
    """The plan's memory system in its post-setup_scenario state, ready for
    one iteration.  Built and set up on the plan's first iteration (so
    build_plan stays planning only), then restored in place from the
    snapshot taken after set-up, which no iteration can reach."""
    if plan.machine is None:
        sys = build_system(plan.defn, plan.memory_regions, jitter_rng)
        setup_scenario(plan, sys)
        plan.machine = (sys, sys.snapshot())
    sys, pristine = plan.machine
    sys.restore(pristine, jitter_rng)
    return sys


# -- trap protocol ------------------------------------------------------------------


def trap_enter(plan, sys):
    """Enter the hypervisor: install its partition mask before anything
    else (hardware saves the interrupted mask in LAST_PART), then run the
    handler's own memory footprint under the hypervisor mask."""
    sys.csr.write_cur_part(plan.hyp_context.partition_mask)
    run_regions(sys, plan.hyp_context, plan.defn.hyp.footprint)


def trap_exit(sys, next_ctx=None):
    """Leave the hypervisor.  Without next_ctx the interrupted VM resumes
    under the mask the hardware saved; a switch to next_ctx installs its
    mask through LAST_PART first."""
    if next_ctx is not None:
        sys.csr.write_last_part(next_ctx.partition_mask)
    sys.csr.write_restore_last_part(1)


# -- the iteration loop ---------------------------------------------------------------


def run_iteration(plan, index):
    """One scheduling round: prime (untimed), deschedule, interference
    quantum per interference VM, reschedule, timed measured phase."""
    defn = plan.defn
    jitter_rng = (
        random.Random(iteration_seed(defn.seed, index, "jitter")) if defn.latency.jitter else None
    )
    work_rng = random.Random(iteration_seed(defn.seed, index, "workload"))
    intf_rng = random.Random(iteration_seed(defn.seed, index, "interference"))
    sys = restore_machine(plan, jitter_rng)
    crit = plan.measured

    # Boot: the hypervisor owns the core, then schedules the critical VM.
    sys.csr.write_cur_part(plan.hyp_context.partition_mask)
    trap_exit(sys, crit)

    run_regions(sys, crit, crit.workload.prime, work_rng)
    trap_enter(plan, sys)
    for intf in plan.interference:
        trap_exit(sys, intf)
        run_interference(sys, intf, intf.workload, defn.hyp.quantum_cycles, intf_rng)
        trap_enter(plan, sys)
    # Switch back if another VM ran; otherwise the critical VM just resumes.
    trap_exit(sys, crit if plan.interference else None)

    tlb0, cache0 = sys.miss_counts()
    cycles = run_regions(sys, crit, crit.workload.measure, work_rng)
    tlb1, cache1 = sys.miss_counts()
    return IterationRecord(
        index=index, cycles=cycles, tlb_misses=tlb1 - tlb0, cache_misses=cache1 - cache0
    )


def run_range(plan, start, stop):
    """Run iterations [start, stop) of a plan serially.  Any split of a
    scenario into ranges yields the same records: each depends only on
    (defn, index), and every iteration restores the same set-up machine."""
    return [run_iteration(plan, i) for i in range(start, stop)]


def run_scenario(defn, start=0, stop=None):
    """Run iterations [start, stop) of a freshly built plan; the default
    runs them all."""
    return run_range(build_plan(defn), start, defn.iterations if stop is None else stop)

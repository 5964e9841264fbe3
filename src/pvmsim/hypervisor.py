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
machine is built once per plan, on its first iteration, and every
iteration, that first one included, restores it in place from the plan's
one snapshot: plan.machine is the pair (MemorySystem, snapshot).

A plan stands on a layout (_layout_key) that _build_layout maps once.
Scenarios of one experiment with the same layout share it read-only
(build_plan's `layouts`): a mitigation that only sets masks, locks or
workloads runs on the same guest, as in hardware, and every machine over
that guest walks each of its pages once (memsys).

Each iteration begins with a deterministic prefix: boot, the untimed
prime and the first trap_enter.  Unless a prime region visits its pages
in random order (drawn from the workload stream), the prefix leaves the
same TLB, cache, CSR and memory state in every iteration: jitter only
prices cycles the prefix throws away.  So the snapshot is taken from the
plan alone, after running the prefix once on a machine with a generator
of its own, and MemorySystem.restore advances each iteration's jitter
generator by the draws the prefix's cache misses stand for.  A plan with
a random-order prime snapshots the machine right after set-up and runs
its prefix on every iteration.  Only a random-order region draws from
the workload stream, so an iteration seeds it only when its plan has one.

Two kinds of plan draw their records instead of simulating them, by one
rule.  A plan with no interference VM and no random-order region in its
prime or measure restores the same machine in every iteration and then
takes the same events.  A plan whose measured phase is fully guaranteed
-- on the first iteration it simulates in a process, every measured
access was a lock-slot hit and a scratchpad access, as
MemorySystem.guaranteed_counts shows it -- takes events that cost the
same in any machine state, interference or not: lock slots and way modes
are written only by setup_scenario, such accesses read no replacement
state and draw no jitter, and a random-order measure only permutes a
fixed multiset of pages.  Either way a record is a fixed base plus the
jitter draws of its k measured misses, k being its cache_misses (0 when
guaranteed).  The first iteration such a plan runs in a process is
simulated in full and leaves plan.fixed behind; every later one is drawn
without touching the machine, its restore or its interference quanta:
skip the draws the misses before the measured phase stand for, then sum
the next k (memsys.jitter_sum).  Both counts rest on the rule restore
relies on, one draw per counted miss, so a drawn record equals the
simulated one.  No record can see a skipped interference quantum (an
interference loop is bound to a mapped region at load, so skipping it
hides no fault).

The trap choreography follows the partition CSR protocol: entering the
handler overwrites CUR_PART with the hypervisor's constant mask (which
hardware-saves the interrupted mask into LAST_PART); leaving it either
restores the saved mask (same-VM resume) or installs the next VM's mask
by writing LAST_PART first and then RESTORE_LAST_PART.

Only the measured phase is timed, so the untimed phases (prime, the
handler's footprint sweep, interference quanta) matter solely through
the TLB, cache and CSR state they leave behind, and traps and VM
switches carry no cycle price of their own.  The measured phase, the
footprint sweep and the interference quanta run through
MemorySystem.run_loop (run_measure and run_interference), which builds
no per-access outcome.  The measured regions are compiled once per plan,
on its first iteration, into plan.sweeps, and the footprint on the
plan's first trap into plan.trap_sweeps (workload.compile_sweeps):
consecutive fixed-order regions of one kind and compute charge become
one run_loop over a precomputed address tuple, and a random-order region
one run_loop of its own.  The sweeps live on the plan, never on the
Workload or Region objects that every scenario naming the VM shares, and
build_plan compiles none.  Only the prime takes one virtual_access per
address (run_regions), in the prefix, so a simulated iteration calls
virtual_access only when its prime is random-order; the prefix keeps the
outcome-building path in every run for the tests and the benchmark's
traced pass that observe it (see the workload module docstring).
"""

import hashlib
import random
from dataclasses import dataclass, field

from .cache import MODE_SPM, Memory
from .memsys import LatencyConfig, MachineConfig, MemorySystem, jitter_sum
from .sv39 import (
    PAGE_SHIFT,
    PAGE_SIZES,
    PTE_A,
    PTE_D,
    PTE_R,
    PTE_W,
    PTE_X,
    SIZE_4K,
    VPN_MASK,
    make_pte,
)
from .tlb import check_mask
from .walker import GPA_BITS, AddressSpace
from .workload import (
    InterferenceLoop,
    Region,
    Workload,
    compile_sweeps,
    run_interference,
    run_measure,
    run_regions,
)

# Physical layout of the modeled machine. Backing memory is sparse, so
# generous spacing costs nothing.
RAM_BASE = 0x8000_0000
RAM_SIZE = 0x1000_0000  # 256 MiB
MEMORY_REGIONS = ((RAM_BASE, RAM_SIZE),)
TABLE_STRIDE = 0x0020_0000  # 2 MiB of page-table headroom per address space
FRAME_BASE = RAM_BASE + 0x0800_0000  # data frames fill the upper 128 MiB
DSPM_BASE = 0x1000_0000  # data-cache scratchpad window
ISPM_BASE = 0x2000_0000  # instruction-cache scratchpad window
GPA_TABLE_BASE = 0x0100_0000  # guest-physical home of guest page tables
GPA_DATA_BASE = 0x4000_0000  # guest-physical home of data pages

# The most touches one interference quantum may ask for: its cycles over
# the cheapest touch's.  Presets ask for at most 12,000.
MAX_QUANTUM_TOUCHES = 1 << 20

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
    footprint: Region = Region(base=0x0070_0000, pages=2, stride=512)

    def __post_init__(self):
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
    machine: MachineConfig = field(default_factory=MachineConfig)
    spm_ways: int = 0  # ways converted to scratchpad in BOTH caches

    def __post_init__(self):
        object.__setattr__(self, "vms", tuple(self.vms))
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        partitions = self.machine.partitions
        check_mask(self.hyp.partition_mask, partitions, "hypervisor mask")
        for vm in self.vms:
            check_mask(vm.partition_mask, partitions, "vm %r mask" % vm.name)
        if not 0 <= self.spm_ways <= self.machine.ways:
            raise ValueError("spm_ways must lie in [0, ways]")
        measured = [vm for vm in self.vms if isinstance(vm.workload, Workload)]
        if len(measured) != 1:
            raise ValueError("a scenario needs exactly one measured VM")
        ids = [(vm.vmid, vm.asid) for vm in self.vms]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vmid/asid pair")
        for vm in self.vms:
            loop = vm.workload
            if not isinstance(loop, InterferenceLoop):
                continue
            # The quantum must end, and soon: at 0 cycles a touch never
            # ends it, and a huge quantum asks for more touches than a run
            # can take.
            spm = any(
                r.backing != "ram" and r.gvaddr <= loop.base < r.gvaddr + r.size
                for r in vm.regions
            )
            cheapest = self.latency.cheapest_touch(loop.compute_cycles, spm)
            if cheapest == 0:
                raise ValueError(
                    "vm %r: an interference touch can cost 0 cycles, so its quantum "
                    "would never end" % vm.name
                )
            touches = self.hyp.quantum_cycles // cheapest
            if touches > MAX_QUANTUM_TOUCHES:
                raise ValueError(
                    "vm %r: one quantum may take %d touches of %d cycles, more than %d"
                    % (vm.name, touches, cheapest, MAX_QUANTUM_TOUCHES)
                )


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
    runtime VM contexts and lock chunks.  Once an iteration ran, machine
    holds (MemorySystem, snapshot), the snapshot taken from the plan alone:
    after the prefix, or, when the prime has a random-order region, right
    after set-up; sweeps holds the measured regions and trap_sweeps the
    hypervisor footprint, each compiled by workload.compile_sweeps.  Once
    an iteration of an interference-free plan ran, or the first iteration
    of a plan whose measured phase it found fully guaranteed, fixed holds
    what every iteration of it shares: (base cycles, the misses counted
    before the measured phase, its TLB misses, its cache misses); a
    guaranteed phase has no miss of either kind."""

    defn: "ScenarioDef"
    measured: VmContext
    interference: tuple  # VmContext per interference VM, in defn.vms order
    hyp_context: VmContext
    lock_chunks: dict  # "i"/"d" -> list of (VmContext, LockChunk)
    random_prime: bool  # a prime region is order=random, so the prefix draws
    random_order: bool  # a prime or measure region is, so the iteration draws
    machine: tuple = field(default=None, repr=False, compare=False)
    sweeps: tuple = field(default=None, repr=False, compare=False)
    trap_sweeps: tuple = field(default=None, repr=False, compare=False)
    fixed: tuple = field(default=None, repr=False, compare=False)

    @property
    def interference_free(self):
        """Whether every iteration takes the same events: no interference
        VM, and no random-order region in the prime or the measure.  Only
        the jitter draws then differ between iterations, and they price
        cycles without steering any event."""
        return not self.interference and not self.random_order


class _Allocator:
    """Bump allocation of aligned blocks from [base, end), called `name`."""

    def __init__(self, base, end, name):
        self.cursor = base
        self.end = end
        self.name = name

    def take(self, size, align, owner):
        addr = (self.cursor + align - 1) & ~(align - 1)
        if addr + size > self.end:
            raise SetupError("%s: does not fit in %s" % (owner, self.name))
        self.cursor = addr + size
        return addr


def _check_table_area(space, owner):
    """Raise SetupError unless `space`'s tables fit the TABLE_STRIDE bytes at its root."""
    if max(space.tables) - space.root_ppn >= TABLE_STRIDE >> PAGE_SHIFT:
        raise SetupError("%s: %d page-table pages outgrow the %d of its table area"
                         % (owner, len(space.tables), TABLE_STRIDE >> PAGE_SHIFT))


def _layout_key(defn):
    """What fixes defn's page tables and frames: each VM's stage count and
    regions (base, size, flags, page size and backing) in declaration
    order, the hypervisor footprint's pages, the converted ways and the
    machine.  Names, ids, masks, workloads and lock flags move no table
    and no frame, so they are left out."""
    vms = tuple(
        (vm.two_stage,
         tuple((r.gvaddr, r.size, r.flags, r.page_size, r.backing) for r in vm.regions))
        for vm in defn.vms
    )
    footprint = defn.hyp.footprint
    return vms, footprint.base, footprint.pages, defn.spm_ways, defn.machine


def _build_layout(defn):
    """Place and map defn's layout (_layout_key), raising SetupError, naming
    the VM and region, on a page mapped twice or outside its space, a frame
    or table that does not fit, or tables past their table area.  Returns
    (spaces, hyp_space, frames), the first and last indexed like defn.vms."""
    machine = defn.machine
    ram = _Allocator(FRAME_BASE, RAM_BASE + RAM_SIZE, "the 128 MiB of RAM for data frames")
    table_area = _Allocator(RAM_BASE, FRAME_BASE, "the 64 page-table areas of RAM")
    # backing -> where its frames come from
    stores = {"ram": ram}
    for backing, base, sets, side in (
        ("dspm", DSPM_BASE, machine.dcache_sets, "data"),
        ("ispm", ISPM_BASE, machine.icache_sets, "instruction"),
    ):
        end = base + defn.spm_ways * sets * machine.line_bytes
        name = "the %s scratchpad of %d converted ways" % (side, defn.spm_ways)
        stores[backing] = _Allocator(base, end, name)
    spaces = []  # per VM: (guest, host), host None for one stage
    frames = []  # per VM, per region: the frame of each page
    for vm in defn.vms:
        root = table_area.take(TABLE_STRIDE, TABLE_STRIDE, "vm %r" % vm.name)
        if vm.two_stage:
            guest = AddressSpace(root_ppn=GPA_TABLE_BASE >> PAGE_SHIFT)
            host = AddressSpace(root_ppn=root >> PAGE_SHIFT, gpa_space=True)
            gpa_data = _Allocator(GPA_DATA_BASE, 1 << GPA_BITS, "the guest-physical space")
        else:
            guest = AddressSpace(root_ppn=root >> PAGE_SHIFT)
            host = None
        spaces.append((guest, host))
        vm_frames = []
        for region in vm.regions:
            store, size = stores[region.backing], region.page_size
            owner = "vm %r region 0x%x" % (vm.name, region.gvaddr)
            paddrs = []
            for i in range(region.page_count):
                gvaddr = region.gvaddr + i * size
                paddr = store.take(size, size, owner)
                try:
                    if host is None:
                        guest.map_page(gvaddr, paddr, size, region.flags)
                    else:
                        gpa = gpa_data.take(size, size, owner)
                        guest.map_page(gvaddr, gpa, size, region.flags)
                        host.map_page(gpa, paddr, size, _HOST_FULL)
                except ValueError as exc:  # mapped twice, or outside the address space
                    raise SetupError("%s: %s" % (owner, exc)) from exc
                paddrs.append(paddr)
            vm_frames.append(paddrs)
        frames.append(vm_frames)
        if host is not None:
            # Guest page tables themselves live in guest-physical pages;
            # give each one a host frame so their PTE fetches are priceable.
            owner = "vm %r page tables" % vm.name
            for tppn in guest.table_ppns():
                frame = ram.take(SIZE_4K, SIZE_4K, owner)
                host.map_page(tppn << PAGE_SHIFT, frame, SIZE_4K, _HOST_FULL)
        _check_table_area(guest if host is None else host, "vm %r" % vm.name)

    # The hypervisor's own footprint pages, single-stage under its ids.
    hyp_root = table_area.take(TABLE_STRIDE, TABLE_STRIDE, "the hypervisor")
    hyp_space = AddressSpace(root_ppn=hyp_root >> PAGE_SHIFT)
    owner = "the hypervisor footprint"
    footprint = defn.hyp.footprint
    for i in range(footprint.pages):
        vaddr, frame = footprint.base + i * SIZE_4K, ram.take(SIZE_4K, SIZE_4K, owner)
        try:
            hyp_space.map_page(vaddr, frame, SIZE_4K, PTE_R | PTE_W | PTE_A | PTE_D)
        except ValueError as exc:  # outside the address space
            raise SetupError("%s: %s" % (owner, exc)) from exc
    _check_table_area(hyp_space, "the hypervisor")
    return spaces, hyp_space, frames


def build_plan(defn, layouts=None):
    """Plan defn on its layout (_build_layout): a runtime context per VM
    over the layout's spaces, and its lock regions cut into per-PTE chunks
    over the layout's frames.  Raises SetupError on the layout's faults
    first, then on the lock-slot budget.

    `layouts`, if given, is a dict its caller keeps for one experiment,
    from a layout (_layout_key) to what _build_layout built for it.  A
    defn whose layout is there plans on it, read-only, and maps nothing; a
    new layout is built and added.  The contexts and lock chunks are
    defn's own and equal those of build_plan(defn) alone.  Machines over
    shared spaces share their remembered walks (memsys docstring)."""
    if layouts is None:
        layout = _build_layout(defn)
    else:
        key = _layout_key(defn)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _build_layout(defn)
    spaces, hyp_space, frames = layout
    measured = None
    interference = []
    lock_chunks = {"i": [], "d": []}
    for vm, (guest, host), vm_frames in zip(defn.vms, spaces, frames):
        ctx = VmContext(vm.name, vm.vmid, vm.asid, vm.partition_mask, guest, host, vm.workload)
        for region, paddrs in zip(vm.regions, vm_frames):
            if region.lock:
                chunks = lock_chunks["i" if region.flags & PTE_X else "d"]
                for i, paddr in enumerate(paddrs):
                    gvaddr = region.gvaddr + i * region.page_size
                    chunks.append((ctx, LockChunk(gvaddr, region.page_size, paddr, region.flags)))
        if isinstance(vm.workload, Workload):
            measured = ctx
        elif isinstance(vm.workload, InterferenceLoop):
            interference.append(ctx)

    for side, chunks in lock_chunks.items():
        if len(chunks) > defn.machine.lock_slots:
            raise SetupError(
                "%s-side lock regions need %d slots but only %d are available"
                % (side.upper(), len(chunks), defn.machine.lock_slots)
            )
    hyp_context = VmContext(
        "hypervisor", HYP_VMID, HYP_ASID, defn.hyp.partition_mask, hyp_space, None, None
    )

    workload = measured.workload
    random_prime = any(region.order == "random" for region in workload.prime)
    random_measure = any(region.order == "random" for region in workload.measure)
    return ScenarioPlan(
        defn=defn,
        measured=measured,
        interference=tuple(interference),
        hyp_context=hyp_context,
        lock_chunks=lock_chunks,
        random_prime=random_prime,
        random_order=random_prime or random_measure,
    )


# -- per-iteration machine state -------------------------------------------------


def build_system(defn, jitter_rng):
    """The one production MemorySystem: defn's machine over this layout's
    RAM, with the scratchpad windows at this layout's bases."""
    return MemorySystem(
        defn.machine,
        Memory(MEMORY_REGIONS),
        defn.latency,
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
                vpn=chunk.gvaddr >> PAGE_SHIFT & VPN_MASK,
                page_size=chunk.page_size,
                flags=chunk.flags,
            )
            tlb.program_lock_slot(index, "pte", pte=make_pte(chunk.paddr >> PAGE_SHIFT, chunk.flags))
            tlb.program_lock_slot(index, "id", asid=ctx.asid, vmid=ctx.vmid)


def run_prefix(plan, sys, work_rng):
    """An iteration's deterministic prefix: boot (the hypervisor owns the
    core, then schedules the critical VM), the untimed prime, and the
    first trap into the hypervisor."""
    crit = plan.measured
    sys.csr.write_cur_part(plan.hyp_context.partition_mask)
    trap_exit(sys, crit)
    run_regions(sys, crit, crit.workload.prime, work_rng)
    trap_enter(plan, sys)


def restore_machine(plan, jitter_rng, work_rng):
    """The plan's memory system right after run_prefix, ready for the
    iteration's first interference quantum, with its jitter drawn from
    `jitter_rng`.  Built and set up on the plan's first iteration (so
    build_plan stays planning only), then restored in place from the
    plan's snapshot, which no iteration can reach.  See the module
    docstring for where that snapshot is taken."""
    if plan.machine is None:
        sys = build_system(plan.defn, random.Random(0) if plan.defn.latency.jitter else None)
        setup_scenario(plan, sys)
        if not plan.random_prime:
            run_prefix(plan, sys, None)  # a fixed-order prime draws nothing
        plan.machine = (sys, sys.snapshot())
    sys, state = plan.machine
    sys.restore(state, jitter_rng)
    if plan.random_prime:
        run_prefix(plan, sys, work_rng)
    return sys


# -- trap protocol ------------------------------------------------------------------


def trap_enter(plan, sys):
    """Enter the hypervisor: install its partition mask before anything
    else (hardware saves the interrupted mask in LAST_PART), then sweep the
    handler's own memory footprint under the hypervisor mask, compiled on
    the first trap into plan.trap_sweeps."""
    hyp = plan.hyp_context
    sys.csr.write_cur_part(hyp.partition_mask)
    sweeps = plan.trap_sweeps
    if sweeps is None:
        sweeps = plan.trap_sweeps = compile_sweeps((plan.defn.hyp.footprint,))
    run_measure(sys, hyp, sweeps, None)


def trap_exit(sys, next_ctx=None):
    """Leave the hypervisor.  Without next_ctx the interrupted VM resumes
    under the mask the hardware saved; a switch to next_ctx installs its
    mask through LAST_PART first."""
    if next_ctx is not None:
        sys.csr.write_last_part(next_ctx.partition_mask)
    sys.csr.write_restore_last_part(1)


# -- the iteration loop ---------------------------------------------------------------


def _jitter_rng(defn, index):
    """Iteration `index`'s jitter generator; None without jitter."""
    if defn.latency.jitter:
        return random.Random(iteration_seed(defn.seed, index, "jitter"))
    return None


def run_iteration(plan, index):
    """One scheduling round: boot and prime (untimed), deschedule,
    interference quantum per interference VM, reschedule, timed measured
    phase, one run_loop per sweep of plan.sweeps.  A plan that is
    interference-free, or whose measured phase is fully guaranteed,
    simulates its first iteration only; every later one is drawn:
    plan.fixed's base plus the jitter its cache misses draw from the
    iteration's own generator (see the module docstring)."""
    defn = plan.defn
    jitter = defn.latency.jitter
    if plan.fixed is not None:
        base, before, tlb_misses, cache_misses = plan.fixed
        if cache_misses:
            base += jitter_sum(_jitter_rng(defn, index), jitter, cache_misses, after=before)
        return IterationRecord(index, base, tlb_misses, cache_misses)
    work_rng = None  # drawn from only by a random-order region
    if plan.random_order:
        work_rng = random.Random(iteration_seed(defn.seed, index, "workload"))
    intf_rng = None  # drawn from only by an interference VM
    if plan.interference:
        intf_rng = random.Random(iteration_seed(defn.seed, index, "interference"))
    first = plan.machine is None
    sys = restore_machine(plan, _jitter_rng(defn, index), work_rng)
    crit = plan.measured
    for intf in plan.interference:
        trap_exit(sys, intf)
        run_interference(sys, intf, intf.workload, defn.hyp.quantum_cycles, intf_rng)
        trap_enter(plan, sys)
    # Switch back if another VM ran; otherwise the critical VM just resumes.
    trap_exit(sys, crit if plan.interference else None)

    sweeps = plan.sweeps
    if sweeps is None:
        sweeps = plan.sweeps = compile_sweeps(crit.workload.measure)
    if first:
        served0 = sys.guaranteed_counts()
    tlb0, cache0 = sys.miss_counts()
    cycles = run_measure(sys, crit, sweeps, work_rng)
    tlb1, cache1 = sys.miss_counts()
    record = IterationRecord(
        index=index, cycles=cycles, tlb_misses=tlb1 - tlb0, cache_misses=cache1 - cache0
    )
    guaranteed = False
    if first:
        lookups, lock_hits, spm = (b - a for a, b in zip(served0, sys.guaranteed_counts()))
        guaranteed = lookups == lock_hits == spm
    if guaranteed or plan.interference_free:
        # Without interference, cache0 is the snapshot's miss count; a
        # guaranteed phase has no miss, so it draws nothing.
        misses = record.cache_misses
        drawn = misses and jitter_sum(_jitter_rng(defn, index), jitter, misses, after=cache0)
        plan.fixed = (cycles - drawn, cache0, record.tlb_misses, misses)
    return record


def run_range(plan, start, stop):
    """Run iterations [start, stop) of a plan serially.  Any split of a
    scenario into ranges yields the same records: each depends only on
    (defn, index), and every iteration restores the same set-up machine."""
    return [run_iteration(plan, i) for i in range(start, stop)]

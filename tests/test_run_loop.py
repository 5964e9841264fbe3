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
"""

import random

import pytest

from pvmsim.cache import MODE_SPM
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import build_plan, iteration_seed, restore_machine, trap_enter, trap_exit
from pvmsim.memsys import randbelow, write_value
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_V, PTE_W, SIZE_4K, make_pte
from pvmsim.workload import InterferenceLoop, SimulationError, run_interference
from test_golden import machine_state
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
            out = sys.virtual_access(vaddr, kind, vm, value)
            if out.fault is not None:
                raise SimulationError(
                    "interference access 0x%x faulted (%s, stage %s)"
                    % (vaddr, out.fault, out.fault_stage)
                )
            spent += out.total_cycles + loop.compute_cycles
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


def hits(side):
    return lambda sys: getattr(sys, side).stats["hits"] > 0


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

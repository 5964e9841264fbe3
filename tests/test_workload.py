"""Tests for the workload descriptors and their executors."""

import itertools
import random
import unittest
from types import SimpleNamespace

from pvmsim.cache import MODE_SPM, Memory
from pvmsim.memsys import LatencyConfig, MachineConfig, MemorySystem, SimulationError
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_W, PTE_X, SIZE_4K
from pvmsim.walker import AddressSpace
from pvmsim.workload import InterferenceLoop, Region, Workload, run_interference, run_regions

TABLE_BASE = 0x0100_0000
DATA_BASE = 0x8000_0000
VBASE = 0x0040_0000
DSPM_BASE = 0x1000_0000
ISPM_BASE = 0x2000_0000

RW = PTE_R | PTE_W | PTE_A | PTE_D
RX = PTE_R | PTE_X | PTE_A | PTE_D


def build_vm(pages=8, latency=None):
    """Single-stage VM with `pages` data pages and 2 code pages mapped."""
    memory = Memory([(TABLE_BASE, 1 << 20), (DATA_BASE, 1 << 20)])
    sys = MemorySystem(MachineConfig(), memory, latency or LatencyConfig(),
                       ispm_base=ISPM_BASE, dspm_base=DSPM_BASE)
    space = AddressSpace(root_ppn=TABLE_BASE >> 12)
    for i in range(pages):
        space.map_page(VBASE + i * SIZE_4K, DATA_BASE + i * SIZE_4K, SIZE_4K, RW)
    code_base = VBASE + 0x10_0000
    for i in range(2):
        space.map_page(code_base + i * SIZE_4K, DATA_BASE + (pages + i) * SIZE_4K, SIZE_4K, RX)
    vm = SimpleNamespace(asid=1, vmid=0, guest_space=space, host_space=None)
    return sys, vm, code_base


def clear_leaf(vm, vaddr):
    """Invalidate the leaf PTE that maps vaddr's 4 KiB page."""
    space = vm.guest_space
    table = space.root_ppn
    for level in (2, 1):
        table = space.tables[table][vaddr >> (12 + 9 * level) & 0x1FF] >> 10
    space.set_pte(table, vaddr >> 12 & 0x1FF, 0)


class RegionDescriptorTest(unittest.TestCase):
    def test_validation(self):
        with self.assertRaises(ValueError):
            Region(base=0x123, pages=1)  # unaligned base
        with self.assertRaises(ValueError):
            Region(base=0, pages=0)
        with self.assertRaises(ValueError):
            Region(base=0, pages=1, stride=12)  # not word aligned
        with self.assertRaises(ValueError):
            Region(base=0, pages=1, stride=4)
        with self.assertRaises(ValueError):
            Region(base=0, pages=1, order="sideways")
        with self.assertRaises(ValueError):
            Region(base=0, pages=1, kind="exec")
        with self.assertRaises(ValueError):
            Region(base=0, pages=1, repeats=0)
        with self.assertRaises(ValueError):
            Region(base=0, pages=1, compute_cycles=-1)

    def test_forward_addresses(self):
        r = Region(base=VBASE, pages=2, stride=0x800)
        want = [VBASE, VBASE + 0x800, VBASE + 0x1000, VBASE + 0x1800]
        self.assertEqual(list(r.addresses()), want)

    def test_reverse_keeps_intra_page_order(self):
        r = Region(base=VBASE, pages=3, stride=0x800, order="reverse")
        got = list(r.addresses())
        # Page visit order is reversed; offsets within a page still ascend.
        self.assertEqual(
            got[:2], [VBASE + 2 * SIZE_4K, VBASE + 2 * SIZE_4K + 0x800]
        )
        self.assertEqual(got[-2:], [VBASE, VBASE + 0x800])

    def test_random_is_a_permutation_and_needs_rng(self):
        r = Region(base=VBASE, pages=16, stride=SIZE_4K, order="random")
        with self.assertRaises(ValueError):
            list(r.addresses())
        a = list(r.addresses(random.Random(7)))
        b = list(r.addresses(random.Random(7)))
        c = list(r.addresses(random.Random(8)))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(sorted(a), list(Region(base=VBASE, pages=16, stride=SIZE_4K).addresses()))

    def test_repeats_and_count(self):
        r = Region(base=VBASE, pages=3, stride=0x400, repeats=4)
        self.assertEqual(len(list(r.addresses())), 4 * 3 * 4)  # repeats x pages x 4 per page

    def test_wide_stride_touches_each_page_once(self):
        r = Region(base=VBASE, pages=5, stride=SIZE_4K)
        self.assertEqual(len(list(r.addresses())), 5)

    def test_workload_coerces_tuples(self):
        w = Workload(prime=[Region(base=0, pages=1)], measure=[Region(base=0, pages=1)])
        self.assertIsInstance(w.prime, tuple)
        self.assertIsInstance(w.measure, tuple)


class RunRegionsTest(unittest.TestCase):
    def test_total_matches_manual_replay(self):
        regions = (
            Region(base=VBASE, pages=4, stride=0x400),
            Region(base=VBASE, pages=4, stride=0x800, order="reverse", kind="write"),
        )
        sys_a, vm_a, _ = build_vm()
        total = run_regions(sys_a, vm_a, regions)

        sys_b, vm_b, _ = build_vm()
        manual = 0
        for region in regions:
            for vaddr in region.addresses():
                value = (vaddr >> 3) & 0xFFFF_FFFF if region.kind == "write" else None
                manual += sys_b.virtual_access(vaddr, region.kind, vm_b, value=value).total_cycles
        self.assertEqual(total, manual)

    def test_compute_cycles_is_flat_per_access(self):
        region = Region(base=VBASE, pages=2, stride=0x800)
        costly = Region(base=VBASE, pages=2, stride=0x800, compute_cycles=11)
        sys_a, vm_a, _ = build_vm()
        base = run_regions(sys_a, vm_a, (region,))
        sys_b, vm_b, _ = build_vm()
        got = run_regions(sys_b, vm_b, (costly,))
        self.assertEqual(got, base + 11 * 4)

    def test_writes_reach_memory(self):
        sys, vm, _ = build_vm()
        run_regions(sys, vm, (Region(base=VBASE, pages=1, stride=SIZE_4K, kind="write"),))
        for way in range(sys.dcache.ways):  # converting a way writes its lines back
            sys.dcache.configure_way(way, MODE_SPM)
        self.assertEqual(sys.memory.read_word(DATA_BASE), (VBASE >> 3) & 0xFFFF_FFFF)

    def test_ifetch_goes_through_instruction_side(self):
        sys, vm, code_base = build_vm()
        run_regions(sys, vm, (Region(base=code_base, pages=2, stride=0x400, kind="ifetch"),))
        self.assertEqual(sys.itlb.misses, 2)
        self.assertEqual(sys.dtlb.misses, 0)
        self.assertGreater(sys.icache.stats["misses"], 0)

    def test_fault_raises(self):
        sys, vm, _ = build_vm()
        with self.assertRaisesRegex(
            SimulationError, r"^access 0x70000000 by vmid 0 asid 1 faulted \(invalid, stage None\)$"
        ):
            run_regions(sys, vm, (Region(base=0x7000_0000, pages=1),))

    def test_faulting_pte_raises_at_its_access(self):
        # Pages 0-4 are walked, filled and written; page 5's walk faults
        # before it is priced or filled, and page 6 is never reached: the
        # caches saw what a sweep of pages 0-4 alone shows them.
        sys, vm, _ = build_vm()
        clear_leaf(vm, VBASE + 5 * SIZE_4K)
        sweep = Region(base=VBASE, pages=8, stride=SIZE_4K, kind="write")
        with self.assertRaisesRegex(
            SimulationError, r"^access 0x405000 by vmid 0 asid 1 faulted \(invalid, stage None\)$"
        ):
            run_regions(sys, vm, (sweep,))
        self.assertEqual((sys.dtlb.misses, sys.dtlb.fills), (6, 5))
        clean, clean_vm, _ = build_vm()
        run_regions(clean, clean_vm, (Region(base=VBASE, pages=5, stride=SIZE_4K, kind="write"),))
        self.assertEqual(sys.dcache.stats, clean.dcache.stats)


class RunInterferenceTest(unittest.TestCase):
    def test_loop_validation(self):
        with self.assertRaises(ValueError):
            InterferenceLoop(base=0x10, pages=4)
        with self.assertRaises(ValueError):
            InterferenceLoop(base=0, pages=0)
        with self.assertRaises(ValueError):
            InterferenceLoop(base=0, pages=1, touches_per_page=0)
        with self.assertRaises(ValueError):
            InterferenceLoop(base=0, pages=1, stride=10)
        with self.assertRaises(ValueError):
            InterferenceLoop(base=0, pages=1, kind="flush")

    def test_addresses_draw_pages_and_offsets_as_randrange(self):
        # Per visit a page, then per touch an offset, each drawn as
        # randrange draws it; touches clamp at the offsets a page holds.
        def reference(loop, rng, count):
            per_page = max(1, SIZE_4K // loop.stride)
            want = []
            while True:
                page_base = loop.base + rng.randrange(loop.pages) * SIZE_4K
                for _ in range(min(loop.touches_per_page, per_page)):
                    want.append(page_base + rng.randrange(per_page) * loop.stride)
                    if len(want) == count:
                        return want

        cases = itertools.product((8, 64, SIZE_4K, 2 * SIZE_4K), range(1, 10), (1, 3, 512))
        for seed, (stride, touches, pages) in enumerate(cases):
            loop = InterferenceLoop(base=VBASE, pages=pages, stride=stride, touches_per_page=touches)
            ours, theirs = random.Random(seed), random.Random(seed)
            got = list(itertools.islice(loop.addresses(ours), 200))
            case = (stride, touches, pages)
            self.assertEqual(got, reference(loop, theirs, 200), case)
            self.assertEqual(ours.getstate(), theirs.getstate(), case)

    def test_quantum_respected_with_bounded_overshoot(self):
        sys, vm, _ = build_vm()
        loop = InterferenceLoop(base=VBASE, pages=8, stride=64, touches_per_page=4)
        quantum = 5000
        spent = run_interference(sys, vm, loop, quantum, random.Random(3))
        self.assertGreaterEqual(spent, quantum)
        # Overshoot is less than one worst-case access (3 table fetches
        # plus the line fill plus the translation probe).
        self.assertLess(spent, quantum + 4 * 40 + 1)

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            sys, vm, _ = build_vm()
            loop = InterferenceLoop(base=VBASE, pages=8, kind="write")
            spent = run_interference(sys, vm, loop, 3000, random.Random(11))
            results.append((spent, sys.counters()))
        self.assertEqual(results[0], results[1])

    def test_faulting_loop_raises(self):
        sys, vm, _ = build_vm()
        loop = InterferenceLoop(base=0x7000_0000, pages=2)
        with self.assertRaisesRegex(
            SimulationError,
            r"^access 0x7000[0-9a-f]{4} by vmid 0 asid 1 faulted \(invalid, stage None\)$",
        ):
            run_interference(sys, vm, loop, 100, random.Random(0))

    def test_pool_page_invalidated_after_use_faults_with_its_address(self):
        sys, vm, _ = build_vm()
        loop = InterferenceLoop(base=VBASE, pages=1, kind="write")
        cold_dtlb = sys.dtlb.snapshot()
        run_interference(sys, vm, loop, 500, random.Random(0))  # walked and remembered
        clear_leaf(vm, VBASE)
        sys.dtlb.restore(cold_dtlb)
        misses = sys.dtlb.misses
        with self.assertRaisesRegex(
            SimulationError,
            r"^access 0x400[0-9a-f]{3} by vmid 0 asid 1 faulted \(invalid, stage None\)$",
        ):
            run_interference(sys, vm, loop, 500, random.Random(1))
        self.assertEqual(sys.dtlb.misses, misses + 1)  # the first touch raised
        non_canonical = InterferenceLoop(base=1 << 45, pages=1)
        with self.assertRaisesRegex(ValueError, r"^address 0x200000000[0-9a-f]{3} is not canonical$"):
            run_interference(sys, vm, non_canonical, 500, random.Random(1))
        self.assertEqual(sys.dtlb.misses, misses + 1)


if __name__ == "__main__":
    unittest.main()

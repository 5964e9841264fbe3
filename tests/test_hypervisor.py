"""Tests for the VM-monitor model: planning, lock-slot decomposition, the
trap-time CSR protocol, and the iteration loop's reproducibility."""

import random
import statistics
import unittest
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

from pvmsim import hypervisor
from pvmsim.cli import preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import (
    HypervisorConfig,
    IterationRecord,
    MappedRegion,
    ScenarioDef,
    SetupError,
    VmSpec,
    build_plan,
    build_system,
    iteration_seed,
    restore_machine,
    run_interference,
    run_iteration,
    run_range,
    run_regions,
    setup_scenario,
    trap_enter,
    trap_exit,
)
from pvmsim.memsys import LatencyConfig
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_W, PTE_X, SIZE_1G, SIZE_2M, SIZE_4K
from pvmsim.workload import InterferenceLoop, Region, Workload

from oracles import partition_leaves_ref
from state_views import cache_misses, spm_word, tlb_misses

RW = PTE_R | PTE_W | PTE_A | PTE_D
RX = PTE_R | PTE_X | PTE_A | PTE_D

DATA_V = 0x0040_0000
CODE_V = 0x0060_0000
POOL_V = 0x00A0_0000
UPPER_HALF = 0xFFFF_FFC0_0000_0000  # the first canonical address above the hole

FULL = 0xFFFF
CRIT_MASK = 0x00FF
HYP_MASK = 0x0100
INTF_MASK = 0xFE00


def crit_vm(lock=False, spm=False, mask=CRIT_MASK, pages=4, half=0):
    data_v, code_v = half + DATA_V, half + CODE_V
    regions = (
        MappedRegion(
            gvaddr=data_v,
            size=pages * SIZE_4K,
            flags=RW,
            lock=lock,
            backing="dspm" if spm else "ram",
        ),
        MappedRegion(
            gvaddr=code_v,
            size=2 * SIZE_4K,
            flags=RX,
            lock=lock,
            backing="ispm" if spm else "ram",
        ),
    )
    sweep = (
        Region(base=data_v, pages=pages, stride=512),
        Region(base=code_v, pages=2, stride=512, kind="ifetch"),
    )
    reverse = tuple(
        Region(base=r.base, pages=r.pages, stride=r.stride, order="reverse", kind=r.kind)
        for r in sweep
    )
    return VmSpec(
        name="crit",
        vmid=1,
        asid=1,
        partition_mask=mask,
        regions=regions,
        workload=Workload(prime=sweep, measure=reverse),
    )


def intf_vm(mask=INTF_MASK, pages=32):
    return VmSpec(
        name="intf",
        vmid=2,
        asid=2,
        partition_mask=mask,
        regions=(MappedRegion(gvaddr=POOL_V, size=pages * SIZE_4K, flags=RW),),
        workload=InterferenceLoop(base=POOL_V, pages=pages),
    )


def scenario(vms, *, name="unit", iterations=10, seed=1, spm_ways=0, jitter=0, hyp=None):
    return ScenarioDef(
        name=name,
        vms=vms,
        hyp=hyp or HypervisorConfig(partition_mask=HYP_MASK),
        latency=LatencyConfig(jitter=jitter),
        iterations=iterations,
        seed=seed,
        spm_ways=spm_ways,
    )


def fresh_prefix(plan, jitter_rng=None, work_rng=None):
    """A freshly built machine taken through set-up and an iteration's
    deterministic prefix by hand: boot, prime, first trap_enter."""
    sys = build_system(plan.defn, jitter_rng)
    setup_scenario(plan, sys)
    sys.csr.write_cur_part(plan.hyp_context.partition_mask)
    trap_exit(sys, plan.measured)
    run_regions(sys, plan.measured, plan.measured.workload.prime, work_rng)
    trap_enter(plan, sys)
    return sys


class IterationSeedTest(unittest.TestCase):
    def test_stable_and_distinct(self):
        a = iteration_seed(42, 7, "jitter")
        self.assertEqual(a, iteration_seed(42, 7, "jitter"))
        self.assertNotEqual(a, iteration_seed(42, 8, "jitter"))
        self.assertNotEqual(a, iteration_seed(42, 7, "workload"))
        self.assertNotEqual(a, iteration_seed(43, 7, "jitter"))
        self.assertTrue(0 <= a < 1 << 64)


class RegionAndSpecValidationTest(unittest.TestCase):
    def test_mapped_region_rules(self):
        with self.assertRaises(ValueError):  # superpage alignment
            MappedRegion(gvaddr=SIZE_4K, size=SIZE_2M, flags=RW, page_size=SIZE_2M)
        with self.assertRaises(ValueError):  # size granularity
            MappedRegion(gvaddr=0, size=SIZE_4K + 8, flags=RW)
        with self.assertRaises(ValueError):  # scratchpads hold base pages only
            MappedRegion(gvaddr=0, size=SIZE_2M, flags=RW, page_size=SIZE_2M, backing="dspm")
        with self.assertRaises(ValueError):
            MappedRegion(gvaddr=0, size=SIZE_4K, flags=RW, backing="flash")

    def test_vm_spec_rules(self):
        with self.assertRaises(ValueError):  # vmid 0 is the hypervisor's
            VmSpec(name="x", vmid=0, asid=1, partition_mask=1, regions=())
        with self.assertRaises(ValueError):
            VmSpec(name="x", vmid=1, asid=1, partition_mask=0, regions=())

    def test_scenario_rules(self):
        with self.assertRaises(ValueError):  # no measured VM
            scenario((intf_vm(),))
        with self.assertRaises(ValueError):  # two measured VMs
            a = crit_vm()
            b = VmSpec(
                name="crit2",
                vmid=3,
                asid=3,
                partition_mask=1,
                regions=a.regions,
                workload=a.workload,
            )
            scenario((a, b))
        with self.assertRaises(ValueError):  # duplicate ids
            scenario((crit_vm(), crit_vm()))
        with self.assertRaises(ValueError):
            ScenarioDef(name="x", vms=(crit_vm(),), spm_ways=9)


class PlanTest(unittest.TestCase):
    def test_superpage_region_needs_one_slot(self):
        vm = VmSpec(
            name="crit",
            vmid=1,
            asid=1,
            partition_mask=FULL,
            regions=(
                MappedRegion(
                    gvaddr=SIZE_2M, size=SIZE_2M, flags=RW, page_size=SIZE_2M, lock=True
                ),
            ),
            workload=Workload(
                prime=(Region(base=SIZE_2M, pages=1),),
                measure=(Region(base=SIZE_2M, pages=1),),
            ),
        )
        plan = build_plan(scenario((vm,)))
        self.assertEqual(len(plan.lock_chunks["d"]), 1)
        self.assertEqual(len(plan.lock_chunks["i"]), 0)
        self.assertEqual(plan.lock_chunks["d"][0][1].page_size, SIZE_2M)

    def test_base_page_region_needs_one_slot_per_page(self):
        plan = build_plan(scenario((crit_vm(lock=True),)))
        self.assertEqual(len(plan.lock_chunks["d"]), 4)  # 16 KiB of 4K data
        self.assertEqual(len(plan.lock_chunks["i"]), 2)  # executable side
        for _, chunk in plan.lock_chunks["i"]:
            self.assertTrue(chunk.flags & PTE_X)
        for _, chunk in plan.lock_chunks["d"]:
            self.assertFalse(chunk.flags & PTE_X)

    def test_lock_slot_budget_is_enforced(self):
        vm = crit_vm(lock=True, pages=9)  # 9 data PTEs > 8 slots
        with self.assertRaises(SetupError):
            build_plan(scenario((vm,)))

    def test_lock_order_is_first_come_first_served(self):
        plan = build_plan(scenario((crit_vm(lock=True), )))
        addrs = [chunk.gvaddr for _, chunk in plan.lock_chunks["d"]]
        self.assertEqual(addrs, sorted(addrs))
        self.assertEqual(addrs[0], DATA_V)

    def test_data_scratchpad_capacity(self):
        # 4 converted ways x (256 sets x 16 B) = 4 pages of data scratchpad.
        ok = crit_vm(spm=True, pages=4)
        build_plan(scenario((ok,), spm_ways=4))
        too_big = crit_vm(spm=True, pages=5)
        with self.assertRaises(SetupError):
            build_plan(scenario((too_big,), spm_ways=4))

    def test_instruction_scratchpad_capacity(self):
        # 4 converted ways x (128 sets x 16 B) = 2 pages of code scratchpad.
        vm = VmSpec(
            name="crit",
            vmid=1,
            asid=1,
            partition_mask=FULL,
            regions=(
                MappedRegion(gvaddr=CODE_V, size=3 * SIZE_4K, flags=RX, backing="ispm"),
            ),
            workload=Workload(prime=(), measure=(Region(base=CODE_V, pages=1, kind="ifetch"),)),
        )
        with self.assertRaises(SetupError):
            build_plan(scenario((vm,), spm_ways=4))

    def test_unrealizable_regions_are_setup_errors_naming_vm_and_region(self):
        twin = MappedRegion(gvaddr=DATA_V, size=SIZE_4K, flags=RW)
        far = MappedRegion(gvaddr=1 << 39, size=SIZE_4K, flags=RW)  # not canonical SV39
        big = MappedRegion(gvaddr=0x4000_0000, size=SIZE_1G, flags=RW, page_size=SIZE_1G)
        # With crit_vm's 6 pages, 32,768 data frames fill the 128 MiB, so the
        # host frames of the VM's guest page tables do not fit.
        pool = MappedRegion(gvaddr=0x4000_0000, size=(0x8000 - 6) * SIZE_4K, flags=RW)
        for region, pattern in (
            (twin, r"^vm 'crit' region 0x400000: 0x400000 mapped twice$"),
            (far, r"^vm 'crit' region 0x8000000000: address 0x8000000000 outside this space$"),
            (big, r"^vm 'crit' region 0x40000000: does not fit in the 128 MiB of RAM for data"),
            (pool, r"^vm 'crit' page tables: does not fit in the 128 MiB of RAM for data"),
        ):
            vm = crit_vm()
            vm = replace(vm, regions=vm.regions + (region,))
            with self.subTest(region=region), self.assertRaisesRegex(SetupError, pattern):
                build_plan(scenario((vm,)))

    def test_a_layout_fault_is_reported_before_the_lock_slot_budget(self):
        """The layout is built before lock chunks are counted, so a
        scenario that breaks both the slot budget and the hypervisor
        footprint reports the footprint; each alone reports itself."""
        cfg = load_experiment(text=preset_text("synthetic-spm"), seed=1, iterations=1)
        defn = cfg.scenarios["lockspm"]
        few_slots = replace(defn, machine=replace(defn.machine, lock_slots=2))
        far = replace(defn.hyp.footprint, base=0x40_0000_0000)  # not canonical SV39
        budget = r"^D-side lock regions need 4 slots but only 2 are available$"
        footprint = r"^the hypervisor footprint: address 0x4000000000 outside this space$"
        for case, pattern in (
            (few_slots, budget),
            (replace(defn, hyp=replace(defn.hyp, footprint=far)), footprint),
            (replace(few_slots, hyp=replace(defn.hyp, footprint=far)), footprint),
        ):
            for layouts in (None, {}):
                with self.subTest(pattern=pattern, layouts=layouts):
                    with self.assertRaisesRegex(SetupError, pattern):
                        build_plan(case, layouts)

    def test_two_stage_tables_are_walkable(self):
        defn = scenario((crit_vm(), intf_vm()))
        plan = build_plan(defn)
        sys = build_system(defn, None)
        setup_scenario(plan, sys)
        out = sys.virtual_access(DATA_V, "read", plan.measured)  # a fault would raise
        self.assertGreater(out.walk_fetches, 0)  # cold two-stage walk happened

    def test_vms_are_resolved_once_per_plan(self):
        quiet = VmSpec(
            name="quiet",
            vmid=3,
            asid=3,
            partition_mask=INTF_MASK,
            regions=(MappedRegion(gvaddr=POOL_V, size=SIZE_4K, flags=RW),),
        )
        second = VmSpec(
            name="intf2",
            vmid=4,
            asid=4,
            partition_mask=INTF_MASK,
            regions=(MappedRegion(gvaddr=POOL_V, size=4 * SIZE_4K, flags=RW),),
            workload=InterferenceLoop(base=POOL_V, pages=4),
        )
        plan = build_plan(scenario((intf_vm(), quiet, crit_vm(), second)))
        self.assertEqual(plan.measured.name, "crit")
        self.assertIsInstance(plan.measured.workload, Workload)
        # Interference VMs in declaration order; a VM without a workload
        # is mapped but never scheduled.
        self.assertEqual([ctx.name for ctx in plan.interference], ["intf", "intf2"])

    def test_iteration_records_are_plain_data(self):
        rec = run_range(build_plan(scenario((crit_vm(),), iterations=1)), 0, 1)[0]
        self.assertIsInstance(rec, IterationRecord)
        self.assertEqual(rec.index, 0)
        self.assertGreater(rec.cycles, 0)


class TrapProtocolTest(unittest.TestCase):
    """The partition CSR values each step of the trap choreography leaves."""

    def setUp(self):
        self.defn = scenario((crit_vm(), intf_vm()))
        self.plan = build_plan(self.defn)
        self.sys = build_system(self.defn, None)
        setup_scenario(self.plan, self.sys)
        self.csr = self.sys.csr

    def boot(self):
        self.csr.write_cur_part(HYP_MASK)
        trap_exit(self.sys, self.plan.measured)

    def test_boot_installs_critical_mask(self):
        self.boot()
        self.assertEqual((self.csr.cur_part, self.csr.last_part), (CRIT_MASK, CRIT_MASK))

    def test_enter_installs_hypervisor_mask_and_saves_current(self):
        self.boot()
        trap_enter(self.plan, self.sys)
        self.assertEqual((self.csr.cur_part, self.csr.last_part), (HYP_MASK, CRIT_MASK))

    def test_same_vm_resume_restores_saved_mask(self):
        self.boot()
        trap_enter(self.plan, self.sys)
        trap_exit(self.sys)
        self.assertEqual((self.csr.cur_part, self.csr.last_part), (CRIT_MASK, CRIT_MASK))

    def test_cross_vm_switch_installs_next_mask_through_last_part(self):
        self.boot()
        trap_enter(self.plan, self.sys)
        trap_exit(self.sys, self.plan.interference[0])
        self.assertEqual((self.csr.cur_part, self.csr.last_part), (INTF_MASK, INTF_MASK))
        trap_enter(self.plan, self.sys)
        self.assertEqual((self.csr.cur_part, self.csr.last_part), (HYP_MASK, INTF_MASK))
        trap_exit(self.sys, self.plan.measured)
        self.assertEqual((self.csr.cur_part, self.csr.last_part), (CRIT_MASK, CRIT_MASK))


class LockRuntimeTest(unittest.TestCase):
    def test_locked_pages_hit_from_slots_without_fills(self):
        defn = scenario((crit_vm(lock=True),))
        plan = build_plan(defn)
        sys = build_system(defn, None)
        setup_scenario(plan, sys)
        crit = plan.measured
        out = sys.virtual_access(DATA_V + 8, "read", crit)
        self.assertTrue(out.lock_hit)
        self.assertEqual(sys.dtlb.fills, 0)
        code = sys.virtual_access(CODE_V, "ifetch", crit)
        self.assertTrue(code.lock_hit)

    def test_full_lock_coverage_means_zero_measured_tlb_misses(self):
        defn = scenario((crit_vm(lock=True), intf_vm()), iterations=6)
        for rec in run_range(build_plan(defn), 0, 6):
            self.assertEqual(rec.tlb_misses, 0)

    def test_upper_half_lock_regions_hit_their_slots(self):
        """A slot holds the 27-bit page number a lookup compares, so a
        locked VM moved to the upper canonical half gives the same records
        and the same lock hits as in the lower half."""
        for two_stage in (True, False):
            runs = []
            for half in (0, UPPER_HALF):
                crit = replace(crit_vm(lock=True, half=half), two_stage=two_stage)
                plan = build_plan(scenario((crit, intf_vm()), iterations=4, jitter=3))
                records = run_range(plan, 0, 4)
                sys = plan.machine[0]
                runs.append((records, sys.itlb.lock_hits, sys.dtlb.lock_hits))
            self.assertEqual(runs[0], runs[1], "two_stage=%s" % two_stage)
            self.assertTrue(all(hits > 0 for hits in runs[1][1:]))
            self.assertTrue(all(rec.tlb_misses == 0 for rec in runs[1][0]))


class LeafOwnershipTest(unittest.TestCase):
    def test_disjoint_masks_keep_fills_in_their_partitions(self):
        defn = scenario((crit_vm(), intf_vm()))
        plan = build_plan(defn)
        sys = build_system(defn, None)
        setup_scenario(plan, sys)
        crit = plan.measured
        intf = plan.interference[0]

        sys.csr.write_cur_part(HYP_MASK)
        trap_exit(sys, crit)
        run_regions(sys, crit, crit.workload.prime)
        trap_enter(plan, sys)
        trap_exit(sys, intf)
        run_interference(sys, intf, intf.workload, 20_000, random.Random(5))
        trap_enter(plan, sys)
        trap_exit(sys, crit)
        run_regions(sys, crit, crit.workload.measure)

        allowed = {
            1: partition_leaves_ref(16, 16, CRIT_MASK),
            2: partition_leaves_ref(16, 16, INTF_MASK),
            0: partition_leaves_ref(16, 16, HYP_MASK),
        }
        checked = 0
        for tlb in (sys.itlb, sys.dtlb):
            for leaf, entry in enumerate(tlb.entries):
                if entry.valid:
                    self.assertIn(leaf, allowed[entry.asid])
                    checked += 1
        self.assertGreater(checked, 4)


class ReproducibilityTest(unittest.TestCase):
    def test_identical_runs(self):
        defn = scenario((crit_vm(), intf_vm()), iterations=5, jitter=5)
        self.assertEqual(run_range(build_plan(defn), 0, 5), run_range(build_plan(defn), 0, 5))

    def test_chunked_equals_serial(self):
        defn = scenario((crit_vm(), intf_vm()), iterations=6, jitter=5)
        serial = run_range(build_plan(defn), 0, 6)
        chunked = []
        for start, stop in ((0, 2), (2, 5), (5, 6)):
            chunked += run_range(build_plan(defn), start, stop)
        self.assertEqual(serial, chunked)

    def test_single_iteration_matches_batch(self):
        defn = scenario((crit_vm(), intf_vm()), iterations=4)
        plan = build_plan(defn)
        batch = run_range(build_plan(defn), 0, 4)
        self.assertEqual(run_iteration(plan, 2), batch[2])

    def test_seed_changes_interference_outcomes(self):
        a = run_range(build_plan(scenario((crit_vm(), intf_vm()), iterations=4, seed=1)), 0, 4)
        b = run_range(build_plan(scenario((crit_vm(), intf_vm()), iterations=4, seed=2)), 0, 4)
        self.assertNotEqual(a, b)


class SnapshotIsolationTest(unittest.TestCase):
    """Iterations restore one machine per plan, snapshotted after the
    deterministic prefix; neither the interference quanta nor the measured
    phase may leak state (memory words, scratchpad words, TLB entries,
    replacement bits) into it."""

    SPM_V = 0x0080_0000
    JITTER = 4

    def defn(self):
        crit = VmSpec(
            name="crit",
            vmid=1,
            asid=1,
            partition_mask=FULL,
            regions=(
                MappedRegion(gvaddr=DATA_V, size=4 * SIZE_4K, flags=RW),
                MappedRegion(gvaddr=self.SPM_V, size=SIZE_4K, flags=RW, backing="dspm", lock=True),
                MappedRegion(gvaddr=CODE_V, size=2 * SIZE_4K, flags=RX, backing="ispm", lock=True),
            ),
            workload=Workload(
                prime=(
                    Region(base=DATA_V, pages=4, stride=512, kind="write"),
                    Region(base=self.SPM_V, pages=1, stride=64, kind="write"),
                    Region(base=CODE_V, pages=2, stride=512, kind="ifetch"),
                ),
                measure=(
                    Region(base=DATA_V, pages=4, stride=512, order="reverse"),
                    Region(base=self.SPM_V, pages=1, stride=64),
                    Region(base=CODE_V, pages=2, stride=512, kind="ifetch"),
                ),
            ),
        )
        intf = VmSpec(
            name="intf",
            vmid=2,
            asid=2,
            partition_mask=FULL,
            regions=(MappedRegion(gvaddr=POOL_V, size=32 * SIZE_4K, flags=RW),),
            workload=InterferenceLoop(base=POOL_V, pages=32, kind="write"),
        )
        return scenario(
            (crit, intf),
            iterations=4,
            spm_ways=4,
            jitter=self.JITTER,
            hyp=HypervisorConfig(partition_mask=FULL, quantum_cycles=6000),
        )

    def assert_same_state(self, got, want):
        # Part by part, and without assertEqual's diff of thousands of words.
        parts = ("itlb", "dtlb", "icache", "dcache", "csr", "memory")
        for name, got_part, want_part in zip(parts, got, want):
            self.assertTrue(got_part == want_part, "%s state differs" % name)

    def test_out_of_order_iterations_match_fresh_plans(self):
        defn = self.defn()
        fresh = run_range(build_plan(defn), 0, defn.iterations)
        self.assertGreater(len({r.cycles for r in fresh}), 1)
        plan = build_plan(defn)
        for index in (3, 0, 3, 1, 3):
            self.assertEqual(run_iteration(plan, index), fresh[index])
        # The snapshot still equals a freshly built machine after set-up
        # and the prefix.
        self.assert_same_state(plan.machine[1], fresh_prefix(plan, random.Random(0)).snapshot())

    def test_restore_discards_what_an_iteration_wrote(self):
        defn = self.defn()
        plan = build_plan(defn)
        run_iteration(plan, 2)
        sys = plan.machine[0]
        want = fresh_prefix(plan, random.Random(0))
        spm = hypervisor.DSPM_BASE

        def intf_entries():
            return [e for e in sys.dtlb.entries if e.valid and e.asid == 2]

        # What the interference quantum and the measured phase left
        # behind: the interference VM's translations and write-backs; and
        # a scratchpad word and the partition CSRs, rewritten after the
        # iteration (every VM here runs under the same mask).
        self.assertTrue(intf_entries())
        self.assertGreater(len(sys.memory.snapshot()), len(want.memory.snapshot()))

        def misses(machine):
            counts = machine.counters()
            return tlb_misses(counts), cache_misses(counts)

        self.assertNotEqual(misses(sys), misses(want))
        prime_word = spm_word(sys.dcache, 0, 0, 0)
        self.assertNotEqual(prime_word, 0)  # written by the prime
        sys.dcache.access(spm, "write", ~prime_word)
        sys.csr.write_cur_part(INTF_MASK)

        jitter = random.Random(9)
        self.assertIs(restore_machine(plan, jitter, random.Random(0)), sys)
        self.assert_same_state(sys.snapshot(), want.snapshot())
        self.assertEqual(intf_entries(), [])
        self.assertEqual(spm_word(sys.dcache, 0, 0, 0), prime_word)
        self.assertEqual(sys.counters(), want.counters())
        # The restored machine draws from the generator it was handed,
        # already past the prefix's k draws, one per cache miss.
        self.assertIs(sys.rng, jitter)
        expected = random.Random(9)
        for _ in range(cache_misses(want.counters())):
            expected.randint(-self.JITTER, self.JITTER)
        self.assertEqual(jitter.getstate(), expected.getstate())

    def test_fixed_order_snapshot_comes_from_the_plan_alone(self):
        # Neither the master seed nor the iteration that runs first
        # changes the snapshot: its machine draws from a generator of its
        # own, and jitter only prices cycles the prefix throws away.
        snapshots = []
        for seed in (1, 2):
            for first in (0, 3):
                plan = build_plan(replace(self.defn(), seed=seed))
                run_iteration(plan, first)
                self.assertEqual(len(plan.machine), 3)
                snapshots.append(plan.machine[1])
        for snapshot in snapshots[1:]:
            self.assert_same_state(snapshot, snapshots[0])


class PrefixSnapshotTest(unittest.TestCase):
    """The deterministic prefix (boot, prime, first trap_enter) runs once
    per plan unless the prime visits pages in random order."""

    def random_prime_vm(self):
        vm = crit_vm()
        prime = tuple(replace(r, order="random") for r in vm.workload.prime)
        return replace(vm, workload=replace(vm.workload, prime=prime))

    def prime_runs(self, defn, iterations):
        """How many times run_regions ran the measured VM's prime."""
        plan = build_plan(defn)
        prime = plan.measured.workload.prime
        with mock.patch.object(hypervisor, "run_regions", wraps=run_regions) as spy:
            for index in range(iterations):
                run_iteration(plan, index)
        return sum(1 for call in spy.call_args_list if call.args[2] is prime)

    def test_snapshot_is_the_machine_after_boot_prime_and_first_trap(self):
        defn = scenario((crit_vm(), intf_vm()), jitter=3)
        plan = build_plan(defn)
        run_iteration(plan, 0)
        run_iteration(plan, 1)
        want = fresh_prefix(plan, random.Random(0))
        self.assertEqual(plan.machine[1], want.snapshot())
        # After trap_enter, not before it: the hypervisor's mask is
        # installed and the critical VM's saved.
        self.assertEqual(plan.machine[1][4], (HYP_MASK, CRIT_MASK))

    def test_draw_count_is_the_prefix_jitter_draws(self):
        defn = scenario((crit_vm(), intf_vm()), jitter=3)
        plan = build_plan(defn)
        jitter = random.Random(0)
        k = cache_misses(fresh_prefix(plan, jitter).counters())
        self.assertGreater(k, 0)
        # Every draw advances the generator, so the states agree only if
        # the prefix drew exactly k times, one per cache miss.
        expected = random.Random(0)
        for _ in range(k):
            expected.randint(-3, 3)
        self.assertEqual(jitter.getstate(), expected.getstate())
        # Restoring the snapshot moves an iteration's generator as far,
        # on the plan's first iteration and on every later one.
        for _ in range(2):
            restored = random.Random(0)
            restore_machine(plan, restored, random.Random(0))
            self.assertEqual(restored.getstate(), expected.getstate())

    def test_random_order_prime_runs_on_every_iteration(self):
        defn = scenario((self.random_prime_vm(), intf_vm()), jitter=3)
        self.assertEqual(self.prime_runs(defn, 4), 4)
        plan = build_plan(defn)
        run_iteration(plan, 0)
        # The snapshot is the machine right after set-up.
        want = build_system(defn, random.Random(0))
        setup_scenario(plan, want)
        self.assertEqual(plan.machine[1], want.snapshot())
        # A fixed-order prime runs once per plan.
        self.assertEqual(self.prime_runs(scenario((crit_vm(), intf_vm()), jitter=3), 4), 1)

    def test_jitter_free_plan_never_touches_a_generator(self):
        plan = build_plan(scenario((crit_vm(), intf_vm())))
        made = []

        class Recording(random.Random):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        with mock.patch.object(hypervisor, "random", SimpleNamespace(Random=Recording)):
            for index in range(3):
                run_iteration(plan, index)
        self.assertEqual(len(made), 3)  # the interference streams; no region is random-order
        # No jitter generator exists, so a jitter draw would have raised.
        self.assertIsNone(plan.machine[0].rng)
        self.assertGreater(cache_misses(fresh_prefix(plan).counters()), 0)  # misses, but no draws


class InterferencePhysicsTest(unittest.TestCase):
    """Small-scale versions of the headline effects; the experiment harness
    reproduces them at full scale."""

    def test_isolation_is_cycle_identical_without_jitter(self):
        records = run_range(build_plan(scenario((crit_vm(),), iterations=8)), 0, 8)
        self.assertEqual(len({r.cycles for r in records}), 1)

    def test_interference_raises_mean_and_spread(self):
        iso = run_range(build_plan(scenario((crit_vm(mask=FULL),), iterations=12)), 0, 12)
        noisy_defn = scenario(
            (crit_vm(mask=FULL), intf_vm(mask=FULL)),
            iterations=12,
            hyp=HypervisorConfig(partition_mask=FULL),
        )
        noisy = run_range(build_plan(noisy_defn), 0, 12)
        self.assertGreater(statistics.mean(r.cycles for r in noisy),
                           statistics.mean(r.cycles for r in iso))
        self.assertGreater(statistics.pstdev(r.cycles for r in noisy), 0)
        self.assertEqual(statistics.pstdev(r.cycles for r in iso), 0)

    def test_partitioning_reduces_measured_tlb_misses(self):
        shared_defn = scenario(
            (crit_vm(mask=FULL), intf_vm(mask=FULL)),
            iterations=12,
            hyp=HypervisorConfig(partition_mask=FULL),
        )
        shared = run_range(build_plan(shared_defn), 0, 12)
        parted = run_range(build_plan(scenario((crit_vm(), intf_vm()), iterations=12)), 0, 12)
        self.assertLess(
            statistics.mean(r.tlb_misses for r in parted),
            statistics.mean(r.tlb_misses for r in shared),
        )

    def test_locks_plus_scratchpad_restore_constant_time_under_attack(self):
        defn = scenario(
            (crit_vm(lock=True, spm=True, mask=FULL), intf_vm(mask=FULL)),
            iterations=8,
            spm_ways=4,
            jitter=6,
            hyp=HypervisorConfig(partition_mask=FULL),
        )
        records = run_range(build_plan(defn), 0, 8)
        self.assertEqual(len({r.cycles for r in records}), 1)
        for rec in records:
            self.assertEqual(rec.tlb_misses, 0)
            self.assertEqual(rec.cache_misses, 0)


if __name__ == "__main__":
    unittest.main()

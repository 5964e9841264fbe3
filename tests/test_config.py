"""Configuration-file parsing and validation.

Every rejection path must name the offending section and key so a typo
in a long experiment file is a one-glance fix; the acceptance on that
promise is string-matching the error text here.
"""

import os
import unittest

import pytest

from pvmsim.config import ConfigError, load_experiment
from pvmsim.hypervisor import HypervisorConfig
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_W, PTE_X, SIZE_2M
from pvmsim.workload import InterferenceLoop, Region, Workload

BENCH_WORKLOAD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench",
    "workloads",
    "spm-writes-longq.ini",
)

BASE = """\
[run]
name = unit
iterations = 12
seed = 7
scenarios = quiet noisy

[latency]
memory = 40
jitter = 3

[tlb]
entries = 16
partitions = 16
lock_slots = 8

[cache]
ways = 8
icache_sets = 128
dcache_sets = 256
line_bytes = 16

[hypervisor]
mask = 0x0100
quantum = 1500
footprint_base = 0x00700000
footprint_pages = 2
footprint_stride = 2048

[vm.crit]
vmid = 1
asid = 1
mask = 0x00ff
role = measured
region.data = base=0x00400000 pages=2 flags=rw
region.code = base=0x00600000 pages=1 flags=rx
prime = data stride=1024; code
measure = data stride=1024 order=reverse; code

[vm.intf]
vmid = 2
asid = 2
mask = 0xfe00
role = interference
region.pool = base=0x40000000 pages=8 flags=rw
loop = pool stride=64 touches=2

[scenario.quiet]
vms = crit
hyp_mask = 0xffff

[scenario.noisy]
vms = crit intf
spm_ways = 0
"""


def load(text=BASE, **kw):
    return load_experiment(text=text, **kw)


class ParseShapeTest(unittest.TestCase):
    def test_base_config_parses(self):
        cfg = load()
        self.assertEqual(cfg.name, "unit")
        self.assertEqual(cfg.seed, 7)
        self.assertEqual(cfg.scenarios["noisy"].iterations, 12)
        self.assertEqual(cfg.scenario_names, ("quiet", "noisy"))
        self.assertEqual(set(cfg.scenarios), {"quiet", "noisy"})

    def test_scenario_defn_carries_machine_shape(self):
        defn = load().scenarios["noisy"]
        self.assertEqual(defn.tlb_entries, 16)
        self.assertEqual(defn.lock_slots, 8)
        self.assertEqual(defn.dcache_sets, 256)
        self.assertEqual(defn.latency.memory_cycles, 40)
        self.assertEqual(defn.latency.jitter, 3)
        self.assertEqual(defn.hyp.quantum_cycles, 1500)
        self.assertEqual(defn.hyp.footprint[0].pages, 2)
        self.assertEqual(defn.iterations, 12)
        self.assertEqual(defn.seed, 7)

    def test_missing_hypervisor_keys_take_the_dataclass_defaults(self):
        text = BASE.split("[hypervisor]")[0] + "[vm.crit]" + BASE.split("[vm.crit]")[1]
        cfg = load(text)
        self.assertEqual(cfg.scenarios["noisy"].hyp, HypervisorConfig())
        # hyp_mask still overrides the default mask, and only the mask.
        self.assertEqual(
            cfg.scenarios["quiet"].hyp, HypervisorConfig(partition_mask=0xFFFF)
        )
        # A partial footprint keeps the default of each key left out.
        text = BASE.replace("footprint_pages = 2\nfootprint_stride = 2048\n", "")
        footprint = load(text).scenarios["noisy"].hyp.footprint
        self.assertEqual(footprint, (Region(base=0x00700000, pages=2, stride=512),))

    def test_benchmark_workload_loads(self):
        # The benchmark's own workload file must keep parsing under the schema.
        cfg = load_experiment(BENCH_WORKLOAD)
        self.assertEqual(cfg.scenario_names, ("isolation", "unmitigated", "spm", "lockspm"))
        for defn in cfg.scenarios.values():
            self.assertEqual(defn.hyp.quantum_cycles, 24000)

    def test_vm_section_becomes_spec(self):
        crit = next(v for v in load().scenarios["noisy"].vms if v.name == "crit")
        self.assertEqual(crit.vmid, 1)
        self.assertEqual(crit.partition_mask, 0x00FF)
        self.assertIsInstance(crit.workload, Workload)
        data = next(r for r in crit.regions if r.gvaddr == 0x0040_0000)
        self.assertEqual(data.size, 2 * 4096)
        self.assertEqual(data.flags, PTE_R | PTE_W | PTE_A | PTE_D)

    def test_interference_vm_gets_loop(self):
        intf = next(v for v in load().scenarios["noisy"].vms if v.name == "intf")
        self.assertIsInstance(intf.workload, InterferenceLoop)
        self.assertEqual(intf.workload.touches_per_page, 2)

    def test_sweep_defaults(self):
        crit = next(v for v in load().scenarios["quiet"].vms if v.name == "crit")
        code_sweep = crit.workload.prime[1]
        # Unset stride falls back to 512; executable regions default to ifetch.
        self.assertEqual(code_sweep.stride, 512)
        self.assertEqual(code_sweep.kind, "ifetch")
        data_sweep = crit.workload.prime[0]
        self.assertEqual(data_sweep.kind, "read")
        self.assertEqual(data_sweep.pages, 2)

    def test_superpage_region(self):
        text = BASE.replace(
            "region.data = base=0x00400000 pages=2 flags=rw",
            "region.data = base=0x00400000 pages=2 flags=rw page_size=2m",
        )
        crit = next(v for v in load(text).scenarios["quiet"].vms if v.name == "crit")
        data = next(r for r in crit.regions if r.gvaddr == 0x0040_0000)
        self.assertEqual(data.page_size, SIZE_2M)
        self.assertEqual(data.size, 2 * SIZE_2M)

    def test_scenario_order_follows_run_key(self):
        text = BASE.replace("scenarios = quiet noisy", "scenarios = noisy quiet")
        self.assertEqual(load(text).scenario_names, ("noisy", "quiet"))

    def test_missing_run_scenarios_uses_file_order(self):
        text = BASE.replace("scenarios = quiet noisy\n", "")
        self.assertEqual(load(text).scenario_names, ("quiet", "noisy"))


class OverrideTest(unittest.TestCase):
    def test_cli_seed_and_iterations_beat_file(self):
        cfg = load(seed=99, iterations=5)
        self.assertEqual(cfg.seed, 99)
        self.assertEqual(cfg.scenarios["quiet"].seed, 99)
        self.assertEqual(cfg.scenarios["quiet"].iterations, 5)

    def test_scenario_level_values_win_without_cli_override(self):
        text = BASE.replace("vms = crit\n", "vms = crit\niterations = 3\nseed = 42\n")
        cfg = load(text)
        self.assertEqual(cfg.scenarios["quiet"].iterations, 3)
        self.assertEqual(cfg.scenarios["quiet"].seed, 42)
        self.assertEqual(cfg.scenarios["noisy"].iterations, 12)

    def test_cli_override_beats_scenario_level(self):
        text = BASE.replace("vms = crit\n", "vms = crit\niterations = 3\nseed = 42\n")
        cfg = load(text, seed=99, iterations=5)
        self.assertEqual(cfg.scenarios["quiet"].iterations, 5)
        self.assertEqual(cfg.scenarios["quiet"].seed, 99)

    def test_select_restricts_and_orders(self):
        cfg = load().select(["noisy"])
        self.assertEqual(cfg.scenario_names, ("noisy",))
        self.assertEqual(list(cfg.scenarios), ["noisy"])

    def test_select_unknown_scenario(self):
        with pytest.raises(ConfigError, match=r"\[scenario.absent\]"):
            load().select(["absent"])

    def test_select_repeated_scenario(self):
        with pytest.raises(ConfigError, match="scenario 'noisy' is selected more than once"):
            load().select(["noisy", "quiet", "noisy"])


class RejectionTest(unittest.TestCase):
    """Each bad input must raise ConfigError naming the offending spot."""

    def check(self, text, pattern):
        with pytest.raises(ConfigError, match=pattern):
            load(text)

    def test_unknown_section(self):
        self.check(BASE + "\n[extras]\nx = 1\n", r"\[extras\]: unknown section")

    def test_unknown_run_key(self):
        self.check(BASE.replace("name = unit", "name = unit\ncolor = red"), r"\[run\].*color")

    def test_unknown_latency_key(self):
        for key in ("warp", "trap_entry", "trap_exit", "vm_switch"):
            self.check(
                BASE.replace("memory = 40", "memory = 40\n%s = 9" % key),
                r"\[latency\]: unknown key '%s'" % key,
            )

    def test_unknown_cache_key(self):
        self.check(BASE.replace("ways = 8", "ways = 8\nbanks = 2"), r"\[cache\].*banks")

    def test_non_integer_value(self):
        self.check(
            BASE.replace("quantum = 1500", "quantum = soon"),
            r"\[hypervisor\] quantum: expected an integer",
        )

    def test_unknown_vm_key(self):
        self.check(BASE.replace("vmid = 2", "vmid = 2\npriority = 3"), r"\[vm.intf\].*priority")

    def test_region_missing_base(self):
        self.check(
            BASE.replace(
                "region.pool = base=0x40000000 pages=8 flags=rw",
                "region.pool = pages=8 flags=rw",
            ),
            r"\[vm.intf\] region.pool: missing 'base'",
        )

    def test_region_bad_flag_letter(self):
        self.check(
            BASE.replace("pages=8 flags=rw", "pages=8 flags=rq"),
            r"region.pool.*unknown permission letter",
        )

    def test_region_bad_page_size(self):
        self.check(
            BASE.replace("pages=8 flags=rw", "pages=8 flags=rw page_size=16k"),
            r"region.pool: page_size must be one of",
        )

    def test_region_misaligned_base(self):
        self.check(
            BASE.replace(
                "region.data = base=0x00400000 pages=2 flags=rw",
                "region.data = base=0x00400000 pages=2 flags=rw page_size=2m\n"
                "region.off = base=0x00401000 pages=1 flags=rw page_size=2m",
            ),
            r"region.off.*aligned",
        )

    def test_sweep_unknown_region(self):
        self.check(
            BASE.replace("prime = data stride=1024; code", "prime = dta stride=1024; code"),
            r"\[vm.crit\] prime: unknown region 'dta'",
        )

    def test_sweep_unknown_key(self):
        self.check(
            BASE.replace("measure = data stride=1024 order=reverse; code",
                         "measure = data stride=1024 wrap=yes; code"),
            r"\[vm.crit\] measure: unknown key 'wrap'",
        )

    def test_sweep_bad_order_token(self):
        self.check(
            BASE.replace("order=reverse", "order=sideways"),
            r"\[vm.crit\] measure",
        )

    def test_loop_on_measured_vm(self):
        self.check(
            BASE.replace("measure = data stride=1024 order=reverse; code",
                         "measure = data stride=1024 order=reverse; code\nloop = data"),
            r"\[vm.crit\].*prime/measure, not loop",
        )

    def test_measured_vm_missing_measure(self):
        self.check(
            BASE.replace("measure = data stride=1024 order=reverse; code\n", ""),
            r"\[vm.crit\].*missing 'measure'",
        )

    def test_interference_vm_missing_loop(self):
        self.check(
            BASE.replace("loop = pool stride=64 touches=2\n", ""),
            r"\[vm.intf\].*missing 'loop'",
        )

    def test_bad_role(self):
        self.check(BASE.replace("role = interference", "role = observer"), r"\[vm.intf\].*role")

    def test_scenario_unknown_vm(self):
        self.check(
            BASE.replace("vms = crit intf", "vms = crit ghost"),
            r"\[scenario.noisy\]: unknown vm 'ghost'",
        )

    def test_scenario_missing_vms(self):
        self.check(
            BASE.replace("vms = crit\nhyp_mask = 0xffff", "hyp_mask = 0xffff"),
            r"\[scenario.quiet\]: missing 'vms'",
        )

    def test_invalid_hypervisor_value(self):
        self.check(BASE.replace("quantum = 1500", "quantum = 0"), r"\[hypervisor\]: quantum")
        self.check(
            BASE.replace("footprint_stride = 2048", "footprint_stride = 12"),
            r"\[hypervisor\]: stride",
        )
        self.check(
            BASE.replace("vms = crit\nhyp_mask = 0xffff", "vms = crit\nhyp_mask = 0"),
            r"\[scenario.quiet\]: hypervisor partition mask",
        )

    def test_run_lists_repeated_scenario(self):
        self.check(
            BASE.replace("scenarios = quiet noisy", "scenarios = quiet noisy quiet"),
            r"scenario 'quiet' is selected more than once",
        )

    def test_run_lists_unknown_scenario(self):
        self.check(
            BASE.replace("scenarios = quiet noisy", "scenarios = quiet missing"),
            r"\[run\] scenarios: unknown scenario 'missing'",
        )

    def test_scenario_without_measured_vm(self):
        self.check(
            BASE.replace("vms = crit\nhyp_mask = 0xffff", "vms = intf\nhyp_mask = 0xffff"),
            r"\[scenario.quiet\].*measured",
        )

    def test_spm_ways_exceed_cache_ways(self):
        self.check(
            BASE.replace("spm_ways = 0", "spm_ways = 9"),
            r"\[scenario.noisy\].*spm_ways",
        )

    def test_machine_the_scenario_cannot_build(self):
        # Each rule of Cache, PlruTree and PartitionCsrFile, at load time.
        for old, new, pattern in (
            ("ways = 8", "ways = 6", r"ways must be a power of two >= 2, got 6"),
            ("ways = 8", "ways = 1", r"ways must be a power of two >= 2, got 1"),
            ("icache_sets = 128", "icache_sets = 96", r"icache_sets must be a power of two"),
            ("dcache_sets = 256", "dcache_sets = 0", r"dcache_sets must be a power of two"),
            ("line_bytes = 16", "line_bytes = 24", r"line_bytes must be a power of two"),
            ("line_bytes = 16", "line_bytes = 4", r"line_bytes must be at least 8"),
            ("entries = 16", "entries = 12", r"entries must be a power of two >= 2, got 12"),
            ("partitions = 16", "partitions = 32", r"partitions must be a power of two <= entries"),
            ("partitions = 16", "partitions = 12", r"partitions must be a power of two <= entries"),
            ("lock_slots = 8", "lock_slots = 17", r"lock_slots must lie in \[0, entries\], got 17"),
            (
                "entries = 16\npartitions = 16",
                "entries = 4\npartitions = 4",
                r"lock_slots must lie in \[0, entries\], got 8",
            ),
            (
                "partitions = 16",
                "partitions = 8",
                r"hypervisor mask 0xffff wider than 8 partitions",
            ),
            ("mask = 0xfe00", "mask = 0x1fe00", r"vm 'intf' mask 0x1fe00 wider than 16 partitions"),
        ):
            with self.subTest(new=new):
                text = BASE.replace(old, new)
                self.assertNotEqual(text, BASE)
                self.check(text, r"^\[scenario\.(quiet|noisy)\]: " + pattern)

    def test_duplicate_kv_in_region(self):
        self.check(
            BASE.replace("pages=8 flags=rw", "pages=8 pages=9 flags=rw"),
            r"region.pool: duplicate key 'pages'",
        )

    def test_garbage_ini_syntax(self):
        self.check("just some words\n", r"configuration does not parse")


if __name__ == "__main__":
    unittest.main()

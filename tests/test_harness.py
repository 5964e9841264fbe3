"""Experiment runner, statistics, and output rendering.

The contract under test: summaries use the population standard
deviation, comparisons against a zero baseline read "undefined", CSV and
JSON outputs are byte-stable for a given configuration and seed, and
splitting iterations over worker processes changes nothing.
"""

import contextlib
import dataclasses
import gc
import io
import json
import multiprocessing
import os
import re
import tempfile
import unittest
import unittest.mock

import pytest

from pvmsim import harness, hypervisor
from pvmsim.cli import main as cli_main
from pvmsim.cli import preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import (
    _ranges,
    build_bundle,
    compare,
    render_csv,
    render_json,
    run_experiment,
    summarize,
    write_outputs,
)
from pvmsim.hypervisor import IterationRecord

SMALL = """\
[run]
name = unit
iterations = 8
seed = 5

[latency]
memory = 40
jitter = 2

[hypervisor]
quantum = 1500
footprint_pages = 2
footprint_stride = 2048

[vm.crit]
vmid = 1
asid = 1
mask = 0x00ff
role = measured
region.data = base=0x00100000 pages=2 flags=rw
region.code = base=0x00600000 pages=1 flags=rx
prime = data stride=1024; code
measure = data stride=1024 order=reverse; code

[vm.intf]
vmid = 2
asid = 2
mask = 0xfe00
role = interference
region.pool = base=0x40080000 pages=16 flags=rw
loop = pool stride=64 touches=2

[scenario.isolation]
vms = crit
hyp_mask = 0xffff

[scenario.unmitigated]
vms = crit intf
hyp_mask = 0xffff
"""


# A second scenario whose measured VM locks 9 data pages: one lock slot per
# page, one more than the default 8, so it cannot be realized.
LOCK_OVERFLOW = SMALL.replace(
    "[scenario.unmitigated]",
    """[vm.hog]
vmid = 3
asid = 3
mask = 0x00ff
role = measured
region.data = base=0x00100000 pages=9 flags=rw lock=true
prime = data
measure = data

[scenario.locked]
vms = hog
hyp_mask = 0xffff

[scenario.unmitigated]""",
)

# Iteration counts that 3 workers do not divide (8 and 7), plus a scenario
# of 5, listed out of file order.  "tiny" and "isolation" have no
# interference VM, so they run in the calling process.
UNEVEN = SMALL.replace(
    "[scenario.unmitigated]",
    """[scenario.tiny]
vms = crit
hyp_mask = 0xffff
iterations = 5

[scenario.unmitigated]""",
).replace("[scenario.isolation]\n", "[scenario.isolation]\niterations = 7\n")
UNEVEN_ORDER = ["unmitigated", "tiny", "isolation"]


def records_from(values):
    return [IterationRecord(i, v, 0, 0) for i, v in enumerate(values)]


class SummarizeTest(unittest.TestCase):
    def test_hand_computed_fixture(self):
        # Ten values, five 1s and five 9s:
        #   mean = (5*1 + 5*9)/10 = 5.0
        #   population variance = ((5*(1-5)^2 + 5*(9-5)^2)/10) = 16 -> std 4.0
        #   inclusive quartiles at positions 2.25 / 4.5 / 6.75 of the sorted
        #   list -> q1 = 1, median = (1+9)/2 = 5, q3 = 9
        out = summarize(records_from([1, 1, 1, 1, 1, 9, 9, 9, 9, 9]))
        self.assertEqual(out["iterations"], 10)
        self.assertEqual(out["cycles"]["mean"], 5.0)
        self.assertEqual(out["cycles"]["std"], 4.0)
        self.assertEqual(out["cycles"]["min"], 1)
        self.assertEqual(out["cycles"]["q1"], 1.0)
        self.assertEqual(out["cycles"]["median"], 5.0)
        self.assertEqual(out["cycles"]["q3"], 9.0)
        self.assertEqual(out["cycles"]["max"], 9)

    def test_population_not_sample_std(self):
        # Sample std of [2, 4] is sqrt(2); population std is exactly 1.
        out = summarize(records_from([2, 4]))
        self.assertEqual(out["cycles"]["std"], 1.0)

    def test_single_record(self):
        out = summarize(records_from([7]))
        self.assertEqual(out["cycles"]["std"], 0.0)
        self.assertEqual(out["cycles"]["q1"], 7.0)
        self.assertEqual(out["cycles"]["q3"], 7.0)

    def test_empty_records(self):
        out = summarize([])
        self.assertEqual(out, {"iterations": 0})

    def test_miss_totals(self):
        recs = [IterationRecord(0, 10, 2, 5), IterationRecord(1, 12, 4, 7)]
        out = summarize(recs)
        self.assertEqual(out["tlb_misses"], {"mean": 3.0, "total": 6})
        self.assertEqual(out["cache_misses"], {"mean": 6.0, "total": 12})


class CompareTest(unittest.TestCase):
    def bundle(self, base_values, subj_values):
        cfg = load_experiment(text=SMALL)
        results = {
            "isolation": records_from(base_values),
            "unmitigated": records_from(subj_values),
        }
        return build_bundle(cfg, results)

    def test_delta_percentages(self):
        bundle = self.bundle([100, 100, 100, 100], [150, 150, 150, 150])
        delta = compare(bundle, "isolation", "unmitigated")
        self.assertEqual(delta["delta_mean_pct"], 50.0)
        # Both stds are zero: zero baseline reads "undefined".
        self.assertEqual(delta["delta_std_pct"], "undefined")

    def test_zero_mean_baseline_undefined(self):
        bundle = self.bundle([0, 0], [5, 5])
        delta = compare(bundle, "isolation", "unmitigated")
        self.assertEqual(delta["delta_mean_pct"], "undefined")

    def test_nonzero_std_delta(self):
        bundle = self.bundle([1, 1, 1, 1, 1, 9, 9, 9, 9, 9], [3, 7])
        delta = compare(bundle, "isolation", "unmitigated")
        # stds: 4.0 -> 2.0 = -50%
        self.assertEqual(delta["delta_std_pct"], -50.0)

    def test_unknown_scenario_raises(self):
        bundle = self.bundle([1], [2])
        with pytest.raises(KeyError, match="absent"):
            compare(bundle, "isolation", "absent")

    def test_empty_scenario_raises_value_error(self):
        cfg = load_experiment(text=SMALL)
        bundle = build_bundle(cfg, {"isolation": [], "unmitigated": records_from([1])})
        with pytest.raises(ValueError, match="isolation"):
            compare(bundle, "isolation", "unmitigated")


class BundleTest(unittest.TestCase):
    def test_bundle_identity_fields(self):
        cfg = load_experiment(text=SMALL)
        bundle = build_bundle(cfg, {"isolation": records_from([1]), "unmitigated": records_from([2])})
        self.assertEqual(bundle["experiment"], "unit")
        self.assertEqual(bundle["seed"], 5)
        self.assertEqual(len(bundle["config_sha256"]), 64)
        self.assertIn("population standard deviation", bundle["stats_note"])
        self.assertIn("simulator_version", bundle)

    def test_deltas_vs_both_baselines(self):
        cfg = load_experiment(text=SMALL)
        bundle = build_bundle(
            cfg,
            {"isolation": records_from([100, 102]), "unmitigated": records_from([200, 220])},
        )
        self.assertIn("vs_isolation", bundle["scenarios"]["unmitigated"])
        self.assertIn("vs_unmitigated", bundle["scenarios"]["isolation"])
        self.assertNotIn("vs_isolation", bundle["scenarios"]["isolation"])

    def test_no_scenarios_is_a_valid_empty_bundle(self):
        # load_experiment rejects a configuration that selects nothing, so
        # empty the selection of a loaded one.
        cfg = dataclasses.replace(load_experiment(text=SMALL), scenario_names=(), scenarios={})
        results = run_experiment(cfg)
        bundle = build_bundle(cfg, results)
        self.assertEqual(bundle["scenarios"], {})
        render_json(bundle)  # must serialize cleanly


class RenderTest(unittest.TestCase):
    def test_csv_header_and_rows(self):
        recs = [IterationRecord(0, 11, 1, 2), IterationRecord(1, 13, 0, 4)]
        self.assertEqual(
            render_csv(recs),
            "iteration,cycles,tlb_misses,cache_misses\n0,11,1,2\n1,13,0,4\n",
        )

    def test_csv_empty(self):
        self.assertEqual(render_csv([]), "iteration,cycles,tlb_misses,cache_misses\n")

    def test_json_sorted_and_newline_terminated(self):
        text = render_json({"b": 1, "a": {"z": 1, "y": 2}})
        self.assertTrue(text.endswith("\n"))
        self.assertLess(text.index('"a"'), text.index('"b"'))
        self.assertLess(text.index('"y"'), text.index('"z"'))
        json.loads(text)


class EndToEndTest(unittest.TestCase):
    def test_serial_and_parallel_identical(self):
        cfg = load_experiment(text=SMALL, iterations=10)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        self.assertEqual(serial, parallel)

    def test_outputs_byte_identical_across_runs(self, tmp=None):
        cfg = load_experiment(text=SMALL)
        results = run_experiment(cfg)
        import tempfile

        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            paths1 = write_outputs(d1, cfg, results)
            paths2 = write_outputs(d2, load_experiment(text=SMALL), run_experiment(load_experiment(text=SMALL)))
            self.assertEqual([os.path.basename(p) for p in paths1],
                             [os.path.basename(p) for p in paths2])
            for p1, p2 in zip(paths1, paths2):
                with open(p1, "rb") as h1, open(p2, "rb") as h2:
                    self.assertEqual(h1.read(), h2.read(), os.path.basename(p1))

    def test_output_file_names(self):
        import tempfile

        cfg = load_experiment(text=SMALL)
        results = run_experiment(cfg)
        with tempfile.TemporaryDirectory() as d:
            paths = write_outputs(d, cfg, results)
            names = sorted(os.path.basename(p) for p in paths)
            self.assertEqual(
                names,
                ["unit-isolation.csv", "unit-summary.json", "unit-unmitigated.csv"],
            )


def uneven_config():
    return load_experiment(text=UNEVEN, scenarios=UNEVEN_ORDER)


def test_ranges_cut_long_scenarios_only():
    assert _ranges(24, 2) == [(0, 24)]
    assert _ranges(1000, 2) == [(0, 500), (500, 1000)]
    # 200 // 64 = 3 ranges of at least MIN_SLICE, not one per process.
    assert _ranges(200, 4) == [(0, 67), (67, 134), (134, 200)]
    assert _ranges(0, 2) == []
    assert _ranges(1000, 1) == []  # no pool


def test_one_pool_per_experiment(pools):
    cfg = uneven_config()
    run_experiment(cfg, workers=3)
    # "unmitigated" ships whole (8 < MIN_SLICE); "tiny" and "isolation"
    # are interference-free and stay home.
    assert len(pools) == 1
    assert (pools[0].max_workers, pools[0].initializer) == (1, gc.freeze)
    assert pools[0].ranges() == {"unmitigated": [(0, 8)]}
    run_experiment(cfg, workers=1)
    run_experiment(load_experiment(text=SMALL, scenarios=["isolation"]), workers=2)
    assert len(pools) == 1


def test_pool_forks_where_the_platform_can(pools, monkeypatch):
    cfg = uneven_config()
    serial = run_experiment(cfg, workers=1)
    assert run_experiment(cfg, workers=3) == serial
    if "fork" in multiprocessing.get_all_start_methods():
        assert pools[0].mp_context.get_start_method() == "fork"
    else:
        assert pools[0].mp_context is None
    # Without fork the pool keeps the platform's default start method.
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    assert run_experiment(cfg, workers=3) == serial
    assert pools[1].mp_context is None


def test_pool_is_no_larger_than_its_job_count(pools, monkeypatch):
    # 9 iterations over 4 processes, ranges of at least 3: 3 jobs.
    monkeypatch.setattr(harness, "MIN_SLICE", 3)
    cfg = load_experiment(text=SMALL, iterations=9)
    run_experiment(cfg, workers=4)
    assert [(p.max_workers, p.initializer, len(p.jobs)) for p in pools] == [(3, gc.freeze, 3)]
    assert pools[0].ranges() == {"unmitigated": [(0, 3), (3, 6), (6, 9)]}


def test_pool_is_no_larger_than_the_cpu_count(pools, monkeypatch):
    # 16 iterations over 8 workers on 2 CPUs: cut for the 2 processes
    # that serve them, not into 8 ranges that each set up the machine again.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "MIN_SLICE", 1)
    cfg = load_experiment(text=SMALL, iterations=16, scenarios=["unmitigated"])
    serial = run_experiment(cfg, workers=1)
    assert run_experiment(cfg, workers=8) == serial
    assert [(p.max_workers, p.initializer, len(p.jobs)) for p in pools] == [(2, gc.freeze, 2)]
    assert pools[0].ranges() == {"unmitigated": [(0, 8), (8, 16)]}


def test_one_contiguous_range_per_worker_per_scenario(pools, monkeypatch):
    monkeypatch.setattr(harness, "MIN_SLICE", 1)
    cfg = uneven_config()
    assert run_experiment(cfg, workers=3) == run_experiment(cfg, workers=1)
    # Submitted scenario by scenario in run order; the interference-free
    # "tiny" and "isolation" run in the calling process.
    assert [(p.max_workers, p.initializer) for p in pools] == [(3, gc.freeze)]
    assert pools[0].ranges() == {"unmitigated": [(0, 3), (3, 6), (6, 8)]}


def test_plans_are_built_once_per_scenario_in_the_calling_process(monkeypatch):
    parent = os.getpid()
    built = []
    real = hypervisor.build_plan

    def counting(defn, *layouts):
        assert os.getpid() == parent, "a worker process built a plan"
        built.append(defn.name)
        return real(defn, *layouts)

    monkeypatch.setattr(hypervisor, "build_plan", counting)
    run_experiment(uneven_config(), workers=3)
    assert built == UNEVEN_ORDER


def test_results_follow_scenario_names_order():
    cfg = uneven_config()
    for workers in (1, 3):
        assert list(run_experiment(cfg, workers=workers)) == UNEVEN_ORDER


def test_uneven_ranges_equal_serial_records(monkeypatch):
    monkeypatch.setattr(harness, "MIN_SLICE", 1)
    cfg = uneven_config()
    serial = run_experiment(cfg, workers=1)
    assert [len(serial[n]) for n in UNEVEN_ORDER] == [8, 5, 7]
    assert run_experiment(cfg, workers=3) == serial


def test_unrealizable_scenario_fails_before_any_iteration(monkeypatch, pools):
    ran = []
    real = hypervisor.run_iteration

    def counting(plan, index):
        ran.append((plan.defn.name, index))
        return real(plan, index)

    monkeypatch.setattr(hypervisor, "run_iteration", counting)
    cfg = load_experiment(text=LOCK_OVERFLOW)
    assert cfg.scenario_names == ("isolation", "locked", "unmitigated")
    for workers in (1, 2):
        with pytest.raises(hypervisor.SetupError, match="'locked'.*9 slots"):
            run_experiment(cfg, workers=workers)
    assert ran == []
    assert pools == []


def test_progress_is_logged_once_each_scenario_is_complete(monkeypatch):
    ran = []
    real = hypervisor.run_iteration

    def counting(plan, index):
        ran.append(plan.defn.name)
        return real(plan, index)

    def log(line):
        name = line.split()[1]
        # Every iteration of this scenario ran before its line was written.
        assert ran.count(name) == cfg.scenarios[name].iterations
        lines.append(line)

    monkeypatch.setattr(hypervisor, "run_iteration", counting)
    cfg = uneven_config()
    lines = []
    run_experiment(cfg, workers=1, log=log)
    assert [line.split()[1] for line in lines] == UNEVEN_ORDER
    assert all(line.endswith(" s") for line in lines)


class CliTest(unittest.TestCase):
    def run_cli(self, argv):
        return cli_main(argv)

    def test_run_and_compare_roundtrip(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL)
            code = self.run_cli(["run", cfg_path, "--outdir", d, "--quiet"])
            self.assertEqual(code, 0)
            summary = os.path.join(d, "unit-summary.json")
            self.assertTrue(os.path.exists(summary))
            code = self.run_cli(["compare", summary, "isolation", "unmitigated"])
            self.assertEqual(code, 0)

    def test_compare_unknown_scenario_fails(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL)
            self.run_cli(["run", cfg_path, "--outdir", d, "--quiet"])
            summary = os.path.join(d, "unit-summary.json")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.run_cli(["compare", summary, "isolation", "ghost"])
            self.assertEqual(code, 1)
            self.assertEqual(
                err.getvalue(),
                "error: scenario 'ghost' not in bundle (has: isolation, unmitigated)\n",
            )

    def test_workers_below_one_fail_fast(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL)
            for workers in ("0", "-4"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = self.run_cli(
                        ["run", cfg_path, "--outdir", d, "--workers", workers, "--quiet"]
                    )
                self.assertEqual(code, 2)
                self.assertEqual(err.getvalue().count("\n"), 1)
                self.assertIn("--workers", err.getvalue())
            self.assertEqual(os.listdir(d), ["unit.ini"])  # nothing ran

    def test_unrealizable_scenario_is_config_error_before_any_output(self):
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "overflow.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(LOCK_OVERFLOW)
            for workers in ("1", "2"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.run_cli(["run", cfg_path, "--outdir", d, "--workers", workers])
                self.assertEqual(code, 2)
                self.assertEqual(out.getvalue(), "")
                self.assertEqual(err.getvalue().count("\n"), 1)
                self.assertTrue(err.getvalue().startswith("configuration error: scenario 'locked'"))
            self.assertEqual(os.listdir(d), ["overflow.ini"])  # nothing written

    def test_unbuildable_machine_is_config_error_before_any_output(self):
        preset = preset_text("synthetic-nospm")
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "edited.ini")
            for old, new, where in (
                ("ways = 8", "ways = 6", "[cache]"),
                ("entries = 16", "entries = 12", "[tlb]"),
                ("line_bytes = 16", "line_bytes = 4", "[cache]"),
                ("partitions = 16", "partitions = 32", "[tlb]"),
                ("partitions = 16", "partitions = 8", "[scenario.isolation]"),  # the masks
                ("entries = 16", "entries = 4", "[tlb]"),
                ("dcache_sets = 256", "dcache_sets = 4194304", "[cache]"),  # a 512 MiB data array
            ):
                with open(cfg_path, "w", encoding="utf-8") as handle:
                    handle.write(preset.replace(old, new))
                for workers in ("1", "2"):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.run_cli(["run", cfg_path, "--outdir", d, "--workers", workers])
                    self.assertEqual(code, 2, new)
                    self.assertEqual(out.getvalue(), "")
                    self.assertEqual(err.getvalue().count("\n"), 1)
                    self.assertTrue(
                        err.getvalue().startswith("configuration error: %s: " % where),
                        err.getvalue(),
                    )
            self.assertEqual(os.listdir(d), ["edited.ini"])  # nothing written

    def test_unrealizable_region_is_config_error_before_any_output(self):
        for name, text, start in (
            (
                "same-base",
                SMALL.replace(
                    "flags=rx\n", "flags=rx\nregion.twin = base=0x00100000 pages=1 flags=rw\n"
                ),
                "scenario 'isolation': vm 'crit' region 0x100000: 0x100000 mapped twice",
            ),
            (
                "non-canonical",
                SMALL.replace("base=0x00100000", "base=0x8000000000"),
                "scenario 'isolation': vm 'crit' region 0x8000000000: address 0x8000000000 "
                "outside this space",
            ),
            (
                "footprint-non-canonical",
                SMALL.replace("footprint_pages", "footprint_base = 0x4000000000\nfootprint_pages"),
                "scenario 'isolation': the hypervisor footprint: address 0x4000000000 "
                "outside this space\n",
            ),
            (
                "pool-past-ram",  # 40,000 frames of 4 KiB, 128 MiB is 32,768
                SMALL.replace("pages=16", "pages=40000"),
                "scenario 'unmitigated': vm 'intf' region 0x40080000: does not fit in",
            ),
            (
                "giga-page",
                SMALL.replace(
                    "flags=rx\n",
                    "flags=rx\nregion.big = base=0x40000000 pages=1 flags=rw page_size=1g\n",
                ),
                "scenario 'isolation': vm 'crit' region 0x40000000: does not fit in",
            ),
        ):
            with self.subTest(name), tempfile.TemporaryDirectory() as d:
                cfg_path = os.path.join(d, name + ".ini")
                with open(cfg_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                for workers in ("1", "2"):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.run_cli(["run", cfg_path, "--outdir", d, "--workers", workers])
                    self.assertEqual(code, 2)
                    self.assertEqual(out.getvalue(), "")
                    self.assertEqual(err.getvalue().count("\n"), 1)  # no progress line
                    self.assertTrue(
                        err.getvalue().startswith("configuration error: " + start), err.getvalue()
                    )
                self.assertEqual(os.listdir(d), [name + ".ini"])  # nothing written

    def test_page_tables_past_their_area_are_config_error_before_any_output(self):
        # A single-stage crit with one page in each of n 2 MiB spans of its
        # second GiB: a root, two mid-level tables and the leaf tables of
        # its two own regions make 5 + n table pages, and its area holds 512.
        def sparse(n):
            regions = "".join(
                "region.s%d = base=0x%x pages=1 flags=rw\n" % (i, 0x4000_0000 + i * 0x20_0000)
                for i in range(n)
            )
            return SMALL.replace("role = measured\n", "two_stage = false\nrole = measured\n" + regions)

        with tempfile.TemporaryDirectory() as d:
            argv = {}
            for n, name in ((507, "fits"), (508, "past")):
                cfg_path = os.path.join(d, name + ".ini")
                with open(cfg_path, "w", encoding="utf-8") as handle:
                    handle.write(sparse(n))
                argv[name] = ["run", cfg_path, "--outdir", os.path.join(d, name), "--iterations", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(self.run_cli(argv["fits"] + ["--quiet"]), 0)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.run_cli(argv["past"])
            self.assertEqual(code, 2)
            self.assertEqual(out.getvalue(), "")
            self.assertEqual(
                err.getvalue(),
                "configuration error: scenario 'isolation': vm 'crit': 513 page-table pages "
                "outgrow the 512 of its table area\n",
            )
            self.assertEqual(os.listdir(os.path.join(d, "past")), [])  # nothing written

    def test_repeated_scenario_is_config_error_before_any_output(self):
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL)
            out, err = io.StringIO(), io.StringIO()
            argv = ["run", cfg_path, "--outdir", d, "--scenario", "isolation", "--scenario", "isolation"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.run_cli(argv)
            self.assertEqual(code, 2)
            self.assertEqual(out.getvalue(), "")
            self.assertEqual(
                err.getvalue(),
                "configuration error: scenario 'isolation' is selected more than once\n",
            )
            self.assertEqual(os.listdir(d), ["unit.ini"])  # nothing written

    def run_rejected(self, name, text, argv=()):
        """Run `text` as <name>.ini; assert exit 2, one stderr line and no
        output, serially and with 2 workers; return that line."""
        lines = set()
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, name + ".ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for workers in ("1", "2"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.run_cli(
                        ["run", cfg_path, "--outdir", d, "--workers", workers, *argv]
                    )
                self.assertEqual(code, 2)
                self.assertEqual(out.getvalue(), "")
                self.assertEqual(err.getvalue().count("\n"), 1)
                lines.add(err.getvalue())
            self.assertEqual(os.listdir(d), [name + ".ini"])  # nothing written
        self.assertEqual(len(lines), 1)
        return lines.pop()

    def test_scenario_flag_picks_a_scenario_left_out_of_run_scenarios(self):
        text = SMALL.replace("seed = 5\n", "seed = 5\nscenarios = isolation\n")
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                argv = ["run", cfg_path, "--outdir", d, "--scenario", "unmitigated", "--quiet"]
                code = self.run_cli(argv)
            self.assertEqual(code, 0)
            self.assertEqual(out.getvalue().split()[0], "unmitigated")
            self.assertEqual(
                sorted(os.listdir(d)), ["unit-summary.json", "unit-unmitigated.csv", "unit.ini"]
            )

    def test_bad_selection_reads_the_same_from_flag_and_file(self):
        for names, line in (
            (["ghost"], "[scenario.ghost]: not defined (defined: isolation, unmitigated)"),
            (["isolation", "isolation"], "scenario 'isolation' is selected more than once"),
        ):
            with self.subTest(names=names):
                run_key = "seed = 5\nscenarios = %s\n" % " ".join(names)
                listed = SMALL.replace("seed = 5\n", run_key)
                flags = [arg for name in names for arg in ("--scenario", name)]
                for got in (
                    self.run_rejected("listed", listed),
                    self.run_rejected("flagged", SMALL, flags),
                ):
                    self.assertEqual(got, "configuration error: %s\n" % line)

    def test_selecting_nothing_is_config_error_before_any_output(self):
        for name, text, line in (
            ("empty", "", "no scenario selected (defined: none)"),
            (
                "none-listed",
                SMALL.replace("seed = 5\n", "seed = 5\nscenarios =\n"),
                "no scenario selected (defined: isolation, unmitigated)",
            ),
        ):
            with self.subTest(name):
                self.assertEqual(self.run_rejected(name, text), "configuration error: %s\n" % line)

    def test_sweep_past_its_region_is_config_error_before_any_output(self):
        # data has 2 pages and code 1; a sweep may cover fewer, never more.
        for old, new, line in (
            ("prime = data", "prime = data pages=3", "prime: pages=3 exceeds its 2-page"),
            ("reverse; code", "reverse; code pages=2", "measure: pages=2 exceeds its 1-page"),
        ):
            with self.subTest(new):
                self.assertEqual(
                    self.run_rejected("long-sweep", SMALL.replace(old, new)),
                    "configuration error: [vm.crit] %s region\n" % line,
                )

    def test_negative_iterations_fail_fast(self):
        self.assertEqual(
            self.run_rejected("unit", SMALL, ["--iterations", "-1"]),
            "error: --iterations must be at least 0, got -1\n",
        )
        self.assertEqual(
            self.run_rejected("unit", SMALL.replace("iterations = 8", "iterations = -1")),
            "configuration error: [run] iterations: must be >= 0, got -1\n",
        )

    def test_interference_that_costs_nothing_is_config_error_before_any_output(self):
        # Once its one-page pool is cached, every touch would cost 0 cycles
        # and the 100,000-cycle quantum would never end.
        text = preset_text("synthetic-spm")
        for old, new in (
            ("memory = 40", "tlb_hit = 0\ncache_hit = 0\nspm = 0\nmemory = 40"),
            ("quantum = 2400", "quantum = 100000"),
            ("base=0x40080000 pages=64", "base=0x40080000 pages=1"),
        ):
            self.assertIn(old, text)
            text = text.replace(old, new)
        self.assertEqual(
            self.run_rejected("free", text, ["--scenario", "unmitigated", "--iterations", "0"]),
            "configuration error: [scenario.unmitigated]: vm 'intf': an interference touch "
            "can cost 0 cycles, so its quantum would never end\n",
        )

    def test_scratchpad_the_access_cannot_reach_is_config_error_before_any_output(self):
        # Each cache decodes only its own scratchpad window.  Four converted
        # ways hold either region, so only the access kind is wrong.
        spm = SMALL.replace("hyp_mask = 0xffff\n", "hyp_mask = 0xffff\nspm_ways = 4\n")
        for old, new, line in (
            ("pages=2 flags=rw", "pages=2 flags=rw backing=ispm",
             "loads and stores cannot reach region 'data' on ispm"),
            ("pages=1 flags=rx", "pages=1 flags=rx backing=dspm",
             "fetches cannot reach region 'code' on dspm"),
        ):
            with self.subTest(new):
                self.assertEqual(
                    self.run_rejected("backing", spm.replace(old, new)),
                    "configuration error: [vm.crit] prime: %s\n" % line,
                )

    def test_unusable_outdir_fails_fast(self):
        # A path under a regular file, and the file itself: exit 2 on one
        # line before any iteration runs.
        with tempfile.TemporaryDirectory() as d:
            blocker = os.path.join(d, "file")
            with open(blocker, "w", encoding="utf-8") as handle:
                handle.write("not a directory\n")
            for outdir, reason in (
                (os.path.join(blocker, "x"), "Not a directory"),
                (blocker, "File exists"),
            ):
                out, err = io.StringIO(), io.StringIO()
                with unittest.mock.patch.object(hypervisor, "run_iteration") as ran:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.run_cli(
                            ["run", "synthetic-nospm", "--iterations", "30", "--outdir", outdir]
                        )
                self.assertEqual(code, 2)
                self.assertEqual(out.getvalue(), "")
                self.assertEqual(err.getvalue(), "error: --outdir %s: %s\n" % (outdir, reason))
                ran.assert_not_called()
            self.assertEqual(os.listdir(d), ["file"])

    def test_progress_goes_to_stderr_and_quiet_silences_it(self):
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL)
            streams = {}
            files = {}
            for flags in ((), ("--quiet",)):
                outdir = os.path.join(d, "quiet" if flags else "loud")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.run_cli(["run", cfg_path, "--outdir", outdir, *flags])
                self.assertEqual(code, 0)
                streams[flags] = out.getvalue().replace(outdir, "<outdir>"), err.getvalue()
                files[flags] = {}
                for name in sorted(os.listdir(outdir)):
                    with open(os.path.join(outdir, name), "rb") as handle:
                        files[flags][name] = handle.read()
            self.assertEqual(streams[()][0], streams[("--quiet",)][0])
            self.assertEqual(files[()], files[("--quiet",)])
            self.assertEqual(streams[("--quiet",)][1], "")
            progress = streams[()][1].splitlines()
            self.assertEqual([line.split()[1] for line in progress], ["isolation", "unmitigated"])
            for line in progress:
                # e.g. "scenario isolation   20 iterations at   812.4 iterations/s, done at   0.03 s"
                match = re.fullmatch(
                    r"scenario \S+ +(\d+) iterations at +([0-9.]+) iterations/s, done at +[0-9.]+ s",
                    line,
                )
                self.assertIsNotNone(match, line)
                self.assertGreater(float(match.group(2)), 0)

    def test_name_with_a_path_separator_is_config_error_before_any_output(self):
        # Both names become file names under --outdir; neither may leave it.
        with tempfile.TemporaryDirectory() as elsewhere:
            escaped = os.path.join(elsewhere, "escaped")
            for text, line in (
                (SMALL.replace("name = unit", "name = sub/x"),
                 "[run] name: 'sub/x' holds a path separator; it names output files"),
                (SMALL.replace("name = unit", "name = " + escaped),
                 "[run] name: %r holds a path separator; it names output files" % escaped),
                (SMALL.replace("[scenario.isolation]", "[scenario.iso/x]"),
                 "[scenario.iso/x]: 'iso/x' holds a path separator; it names output files"),
            ):
                with self.subTest(line), unittest.mock.patch.object(
                    hypervisor, "run_iteration"
                ) as ran:
                    got = self.run_rejected("unit", text)
                    self.assertEqual(got, "configuration error: %s\n" % line)
                    ran.assert_not_called()
            self.assertEqual(os.listdir(elsewhere), [])

    def test_compare_malformed_summary_fails_fast(self):
        good = {"cycles": {"mean": 10.0, "std": 1.0}}
        with tempfile.TemporaryDirectory() as d:
            for name, scenarios in (
                ("entry-not-a-dict", {"a": 1, "b": good}),
                ("cycles-not-a-dict", {"a": {"cycles": [1, 2]}, "b": good}),
                ("mean-a-string", {"a": good, "b": {"cycles": {"mean": "10", "std": 1.0}}}),
                ("std-missing", {"a": good, "b": {"cycles": {"mean": 10.0}}}),
            ):
                with self.subTest(name):
                    path = os.path.join(d, name + ".json")
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump({"scenarios": scenarios}, handle)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.run_cli(["compare", path, "a", "b"])
                    self.assertEqual(code, 2)
                    self.assertEqual(out.getvalue(), "")
                    self.assertEqual(
                        err.getvalue(), "error: %s is not a summary written by `run`\n" % path
                    )
            # A well-formed summary still compares, and an entry with no
            # iterations is still a comparison error.
            path = os.path.join(d, "ok.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"scenarios": {"a": good, "b": good, "empty": {"iterations": 0}}}, handle)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(self.run_cli(["compare", path, "a", "b"]), 0)
            self.assertEqual(json.loads(out.getvalue())["delta_mean_pct"], 0.0)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                self.assertEqual(self.run_cli(["compare", path, "a", "empty"]), 1)
            self.assertEqual(err.getvalue(), "error: scenario 'empty' has no iterations to compare\n")

    def test_compare_missing_file_fails_fast(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = self.run_cli(["compare", os.path.join(d, "nope.json"), "a", "b"])
        self.assertEqual(code, 2)
        self.assertEqual(err.getvalue().count("\n"), 1)

    def test_compare_non_json_file_fails_fast(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            for name, body in (("text.json", "not json\n"), ("list.json", "[1, 2]\n")):
                path = os.path.join(d, name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(body)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = self.run_cli(["compare", path, "a", "b"])
                self.assertEqual(code, 2)
                self.assertEqual(err.getvalue().count("\n"), 1)

    def test_unknown_preset_is_config_error(self):
        code = self.run_cli(["run", "no-such-preset", "--quiet"])
        self.assertEqual(code, 2)

    def test_bad_config_key_is_config_error(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "broken.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL.replace("memory = 40", "memoryy = 40"))
            code = self.run_cli(["run", cfg_path, "--outdir", d, "--quiet"])
            self.assertEqual(code, 2)

    def run_unreadable(self, path, outdir):
        """Run the config at `path`; assert exit 2, one stderr line naming
        it and nothing on stdout or in `outdir`."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.run_cli(["run", path, "--outdir", outdir, "--quiet"])
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")
        self.assertEqual(err.getvalue().count("\n"), 1)
        self.assertTrue(
            err.getvalue().startswith("configuration error: cannot read config file %r: " % path)
        )
        self.assertFalse(os.path.exists(outdir))

    def test_config_directory_is_config_error(self):
        with tempfile.TemporaryDirectory() as d:
            self.run_unreadable(d, os.path.join(d, "out"))

    def test_config_not_utf8_is_config_error(self):
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "utf16.ini")
            with open(cfg_path, "wb") as handle:
                handle.write(b"\xff\xfe" + SMALL.encode("utf-16-le"))
            self.run_unreadable(cfg_path, os.path.join(d, "out"))


class TouchRateTest(unittest.TestCase):
    """The interference loop's touches-per-page knob trades page-crossing
    rate against per-page dwell time.  The shipped presets use touches=2;
    this sweep pins the qualitative direction: fewer touches per visit
    means more page visits per quantum, hence more TLB pressure on the
    measured VM."""

    def test_touch_rate_direction(self):
        from pvmsim.cli import preset_text

        base = preset_text("synthetic-nospm")
        means = {}
        for touches in (1, 2, 8):
            text = base.replace("touches=2", "touches=%d" % touches)
            cfg = load_experiment(text=text, iterations=60, scenarios=["unmitigated"])
            recs = run_experiment(cfg)["unmitigated"]
            means[touches] = sum(r.tlb_misses for r in recs) / len(recs)
        self.assertGreaterEqual(means[1], means[2])
        self.assertGreaterEqual(means[2], means[8])
        self.assertGreater(means[1], means[8])


if __name__ == "__main__":
    unittest.main()

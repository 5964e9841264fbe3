"""Experiment runner, statistics, and output rendering.

The contract under test: summaries use the population standard
deviation, comparisons against a zero baseline read "undefined", CSV and
JSON outputs are byte-stable for a given configuration and seed, and
splitting iterations over worker processes changes nothing.
"""

import concurrent.futures
import contextlib
import io
import json
import os
import tempfile
import unittest

import pytest

from pvmsim import hypervisor
from pvmsim.cli import main as cli_main
from pvmsim.cli import preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import (
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
# below the 2 * workers threshold that runs in the calling process, listed
# out of file order.
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
        text = SMALL.split("[scenario.isolation]")[0]
        cfg = load_experiment(text=text)
        self.assertEqual(cfg.scenario_names, ())
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


@pytest.fixture
def pools(monkeypatch):
    """Every process pool run_experiment opens, with the (plan, start, stop)
    arguments of each job submitted to it."""
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.max_workers = max_workers
            self.jobs = []
            opened.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.jobs.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened


def uneven_config():
    return load_experiment(text=UNEVEN).select(UNEVEN_ORDER)


def test_one_pool_per_experiment(pools):
    cfg = uneven_config()
    run_experiment(cfg, workers=3)
    assert len(pools) == 1
    assert pools[0].max_workers == 3
    run_experiment(cfg, workers=1)
    run_experiment(load_experiment(text=SMALL, iterations=3), workers=2)  # all below 2 * 2
    assert len(pools) == 1


def test_pool_is_no_larger_than_its_job_count(pools):
    # 9 iterations over 4 workers: ranges of ceil(9 / 4) = 3, so 3 jobs.
    cfg = load_experiment(text=SMALL, iterations=9).select(["isolation"])
    run_experiment(cfg, workers=4)
    assert [(p.max_workers, len(p.jobs)) for p in pools] == [(3, 3)]


def test_one_contiguous_range_per_worker_per_scenario(pools):
    cfg = uneven_config()
    run_experiment(cfg, workers=3)
    ranges = {}
    for plan, start, stop in pools[0].jobs:
        ranges.setdefault(plan.defn.name, []).append((start, stop))
    # Submitted scenario by scenario in run order; "tiny" (5 < 2 * 3) stays home.
    assert list(ranges) == ["unmitigated", "isolation"]
    assert ranges["unmitigated"] == [(0, 3), (3, 6), (6, 8)]
    assert ranges["isolation"] == [(0, 3), (3, 6), (6, 7)]


def test_plans_are_built_once_per_scenario_in_the_calling_process(monkeypatch):
    parent = os.getpid()
    built = []
    real = hypervisor.build_plan

    def counting(defn):
        assert os.getpid() == parent, "a worker process built a plan"
        built.append(defn.name)
        return real(defn)

    monkeypatch.setattr(hypervisor, "build_plan", counting)
    run_experiment(uneven_config(), workers=3)
    assert built == UNEVEN_ORDER


def test_results_follow_scenario_names_order():
    cfg = uneven_config()
    for workers in (1, 3):
        assert list(run_experiment(cfg, workers=workers)) == UNEVEN_ORDER


def test_uneven_ranges_equal_serial_records():
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
            code = self.run_cli(["compare", summary, "isolation", "ghost"])
            self.assertEqual(code, 1)

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
            for old, new in (
                ("ways = 8", "ways = 6"),
                ("entries = 16", "entries = 12"),
                ("line_bytes = 16", "line_bytes = 4"),
                ("partitions = 16", "partitions = 32"),
                ("partitions = 16", "partitions = 8"),
                ("entries = 16", "entries = 4"),
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
                        err.getvalue().startswith("configuration error: [scenario.isolation]: "),
                        err.getvalue(),
                    )
            self.assertEqual(os.listdir(d), ["edited.ini"])  # nothing written

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

    def test_progress_goes_to_stderr_and_quiet_silences_it(self):
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "unit.ini")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(SMALL)
            streams = {}
            for flags in ((), ("--quiet",)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.run_cli(["run", cfg_path, "--outdir", d, *flags])
                self.assertEqual(code, 0)
                streams[flags] = out.getvalue(), err.getvalue()
            self.assertEqual(streams[()][0], streams[("--quiet",)][0])
            self.assertEqual(streams[("--quiet",)][1], "")
            progress = streams[()][1].splitlines()
            self.assertEqual([line.split()[1] for line in progress], ["isolation", "unmitigated"])

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
            cfg = load_experiment(text=text, iterations=60).select(["unmitigated"])
            recs = run_experiment(cfg)["unmitigated"]
            means[touches] = sum(r.tlb_misses for r in recs) / len(recs)
        self.assertGreaterEqual(means[1], means[2])
        self.assertGreaterEqual(means[2], means[8])
        self.assertGreater(means[1], means[8])


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark; not part of the tier-1 suite.

    python3 -m pytest bench/tests -q

They run the benchmark for a single timed run or traced pass, so they check
what it emits and how it gates, never how fast anything is.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import run  # noqa: E402

END_TO_END = {"iter_per_s": "iterations/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
TARGETS = (
    "plru.init", "plru.touch", "plru.insert", "plru.set_lock",
    "tlb.lookup", "tlb.fill", "tlb.program_lock_slot",
    "walker.walk_single", "walker.walk_two_stage",
    "cache.init", "cache.access", "cache.configure_way", "cache.memory_read", "cache.memory_write",
    "memsys.virtual_access",
    "hypervisor.build_plan", "hypervisor.build_system", "hypervisor.setup_scenario",
    "hypervisor.run_iteration",
    "workload.run_regions", "workload.run_interference",
    "config.load_experiment",
    "harness.run_experiment", "harness.write_outputs", "harness.build_bundle",
)
RATIOS = {
    "tlb.hit_ratio": "ratio",
    "tlb.lock_hit_ratio": "ratio",
    "tlb.fill_drop_ratio": "ratio",
    "walker.fetches_per_walk": "fetches/walk",
    "walker.walk_two_stage.incl_share": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.spm_share": "ratio",
    "memsys.host_us_per_access": "us",
    "hypervisor.build_setup_share": "ratio",
    "harness.run_experiment.incl_s": "s",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = dict(RATIOS)
for _target in TARGETS:
    PER_LAYER[_target + ".calls"] = "count"
    PER_LAYER[_target + ".self_s"] = "s"


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def _bench(workload, trace, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5", "--seconds", "0"]
    return subprocess.run(
        cmd + ["--trace", str(trace)], capture_output=True, text=True, timeout=170, cwd=cwd
    )


def _result(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key, expected in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected == _declared(key)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert any(line.startswith("error_rate ") for line in proc.stdout.splitlines())


def test_end_to_end_times_are_scaled_by_the_host_speed_probe(monkeypatch):
    # A host running at half the reference speed: scaled times are half the
    # measured ones, and the rate twice the measured one.
    monkeypatch.setattr(run.hostspeed, "probe", lambda: 2 * run.hostspeed.REFERENCE_S)
    workload = run.WORKLOADS["nospm-ladder"]
    pinned = run.load_pins()[workload.name][str(workload.iterations)]["6"]
    tally = run.Tally()
    measured, raw, _ = run.measure_end_to_end(workload, 5, 0, pinned, tally)
    assert tally.attempted == 1 and tally.failed == 0
    assert raw["host_slowdown"] == pytest.approx(2)
    assert measured["wall_s"][1] == pytest.approx(raw["wall_s"] / 2)
    assert measured["setup_s"][1] == pytest.approx(raw["setup_s"] / 2)
    assert measured["iter_per_s"][1] == pytest.approx(raw["iter_per_s"] * 2)


def test_self_times_add_up_to_run_experiment_inclusive_time(tmp_path):
    text = run.config_text(run.WORKLOADS["nospm-ladder"])
    with layers.Tracer() as tracer:
        run.run_once(text, 1, 2, 1, str(tmp_path))
    own = tracer.self_times()
    parent = tracer.parent
    [top] = [i for i, nid in enumerate(tracer.name) if tracer.labels[nid] == "harness.run_experiment"]

    def inside(i):
        while i >= 0 and i != top:
            i = parent[i]
        return i == top

    inclusive = tracer.end[top] - tracer.start[top]
    assert sum(own[i] for i in range(len(own)) if inside(i)) == pytest.approx(inclusive, abs=1e-9)
    # The per-label summary that the metrics come from adds up the same way.
    summary = tracer.summary()
    roots = sum(tracer.end[i] - tracer.start[i] for i, p in enumerate(parent) if p < 0)
    assert sum(v[1] for v in summary.values()) == pytest.approx(roots, abs=1e-9)
    assert summary["harness.run_experiment"][2] == pytest.approx(inclusive)


def test_tracer_restores_targets_and_reports_missing_ones(tmp_path):
    from pvmsim import hypervisor, plru

    before = (hypervisor.build_plan, plru.PlruTree.touch)
    gone = ("plru.gone", "plru", "PlruTree", "no_such_method", None)
    with layers.Tracer(layers.TARGETS + (gone,)) as tracer:
        run.run_once(run.config_text(run.WORKLOADS["nospm-ladder"]), 1, 1, 1, str(tmp_path))
    assert (hypervisor.build_plan, plru.PlruTree.touch) == before
    assert tracer.summary()["plru.gone"] is None
    assert tracer.summary()["plru.touch"][0] > 0


def test_digest_gate_rejects_perturbed_records_and_csvs(tmp_path):
    outdir = str(tmp_path)
    text = run.config_text(run.WORKLOADS["nospm-ladder"])
    cfg, results, _, _ = run.run_once(text, 1, run.TRACE_ITERATIONS, 1, outdir)
    pinned = run.load_pins()["nospm-ladder"][str(run.TRACE_ITERATIONS)]["1"]
    assert run.gate(results, cfg, outdir, pinned) is None

    name = cfg.scenario_names[0]
    first = results[name][0]
    perturbed = dict(results, **{name: [replace(first, cycles=first.cycles + 1)] + results[name][1:]})
    assert run.gate(perturbed, cfg, outdir, pinned).startswith("record digest")

    path = os.path.join(outdir, "%s-%s.csv" % (cfg.name, name))
    with open(path, encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    # Extra columns are ignored: only the named ones enter the digest.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([header + ",extra"] + [r + ",7" for r in rows]) + "\n")
    assert run.gate(results, cfg, outdir, pinned) is None
    fields = rows[0].split(",")
    fields[2] = str(int(fields[2]) + 1)  # tlb_misses
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([header, ",".join(fields)] + rows[1:]) + "\n")
    assert run.gate(results, cfg, outdir, pinned).startswith("CSV digest")


def test_digest_mismatch_fails_the_command(monkeypatch, capsys):
    pins = run.load_pins()
    for by_seed in pins["nospm-ladder"].values():
        for seed in by_seed:
            by_seed[seed] = "0" * 64
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    assert run.main(["--workload", "nospm-ladder", "--seed", "5", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_unparsable_workload_fails_fast_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(run, "config_text", lambda workload: "[run\nname = x\n")
    assert run.main(["--workload", "spm-writes-longq", "--seconds", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("configuration error:")


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("nospm-ladder", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""

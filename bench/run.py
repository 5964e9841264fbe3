"""pvmsim benchmark: host time of mitigation-ladder runs, end to end and per module.

    python3 bench/run.py --workload nospm-ladder --seed 3 --seconds 30 --trace 0

The simulator is imported from the ``src`` directory beside this one, never
from an installed copy; without it the command exits with code 2 before
measuring anything.

``--trace 0`` times the workload as a user runs it, with tracing off:
configuration text in, per-scenario CSVs and the summary JSON out, repeated
until ``--seconds`` have passed.  ``--trace 1`` runs the traced pass of
``layers.py`` instead and reports per-module calls, self times and ratios.
The end-to-end times are scaled to a reference host speed by a probe timed
around every step (``hostspeed.py``), because the shared host's own speed
drifts by more than the bounds; the unscaled medians are printed beside them.
Every run's records are checked against SHA-256 digests pinned in
``digests.json`` (regenerate with ``pin_digests.py``); any mismatch or
exception counts as a failed run and the command exits with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric with its unit and spread, and the run metadata.  The
same result, with the metadata, is written to ``bench/out/<workload>/``.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import hostspeed
import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

sys.path.insert(0, SRC_DIR)
try:
    import pvmsim
    from pvmsim import cli, config, harness, hypervisor
except ImportError:
    pvmsim = None


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # shipped preset name, or an INI path relative to bench/
    workers: int
    iterations: int  # per scenario in one timed run


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists: BENCHMARK.json and README.md.
        Workload("nospm-ladder", "synthetic-nospm", workers=1, iterations=20),
        Workload("powerwindow-w2", "powerwindow-like", workers=2, iterations=24),
        Workload("spm-writes-longq", "workloads/spm-writes-longq.ini", workers=1, iterations=8),
    )
}

TRACE_ITERATIONS = 4  # per scenario in one traced pass; >= 2 * workers keeps the pool in use
PINNED_SEEDS = 64  # --seed n runs master seed 1 + n % PINNED_SEEDS

END_TO_END_UNITS = {
    "iter_per_s": "iterations/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

NOTES = (
    "iter_per_s, wall_s, setup_s, *_s and *_us figures are host time on this machine; "
    "simulated cycles are deterministic and are pinned through the record digest, not timed",
    "iter_per_s, wall_s and setup_s are scaled to the reference host speed of hostspeed.py by "
    "a probe timed before and after each step; the unscaled medians are printed beside them "
    "and work.host_slowdown is the median probe time over its reference",
    "every iteration starts from an empty modelled machine (cold TLBs and caches, no warm start)",
    "the model is unvalidated: the repository holds no measurements from real hardware, "
    "so no accuracy figure is given",
    "traced times include the tracer's own cost (trace.overhead_ratio) and are not end-to-end times",
    "tlb.hit_ratio and tlb.lock_hit_ratio are over all TLB lookups; tlb.fill_drop_ratio over "
    "fills; cache.hit_ratio over cached accesses (hits + misses); cache.spm_share over all "
    "cache accesses; the two *_share figures over harness.run_experiment's inclusive time",
)


# -- inputs ---------------------------------------------------------------------


def config_text(workload):
    if workload.source.endswith(".ini"):
        with open(os.path.join(BENCH_DIR, workload.source), "r", encoding="utf-8") as handle:
            return handle.read()
    return cli.preset_text(workload.source)


def master_seed(seed):
    return 1 + seed % PINNED_SEEDS


def load_pins():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the record digest ------------------------------------------------------------


def _digest(rows):
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(("%s,%d,%d,%d,%d\n" % row).encode())
    return h.hexdigest()


def records_digest(results):
    """SHA-256 over sorted (scenario, index, cycles, tlb_misses, cache_misses)."""
    return _digest(
        (name, r.index, r.cycles, r.tlb_misses, r.cache_misses)
        for name, records in results.items()
        for r in records
    )


def csv_digest(outdir, cfg):
    """The same digest, read back from the written CSVs by column name."""
    rows = []
    for name in cfg.scenario_names:
        path = os.path.join(outdir, "%s-%s.csv" % (cfg.name, name))
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                rows.append(
                    (
                        name,
                        int(row["iteration"]),
                        int(row["cycles"]),
                        int(row["tlb_misses"]),
                        int(row["cache_misses"]),
                    )
                )
    return _digest(rows)


def gate(results, cfg, outdir, expected):
    """None when the returned records and the written CSVs both match the
    pinned digest, else a one-line description of the mismatch."""
    got = records_digest(results)
    if got != expected:
        return "record digest %s != pinned %s" % (got[:16], expected[:16])
    got = csv_digest(outdir, cfg)
    if got != expected:
        return "CSV digest %s != pinned %s" % (got[:16], expected[:16])
    return None


# -- one run as a user invokes it -------------------------------------------------------


def run_once(text, seed, iterations, workers, outdir):
    """Config text to written CSV/JSON, through the public entry points.
    Returns (config, results, seconds inside run_experiment, wall seconds)."""
    t0 = time.perf_counter()
    cfg = config.load_experiment(text=text, seed=seed, iterations=iterations)
    t1 = time.perf_counter()
    results = harness.run_experiment(cfg, workers=workers)
    t2 = time.perf_counter()
    harness.write_outputs(outdir, cfg, results)
    t3 = time.perf_counter()
    return cfg, results, t2 - t1, t3 - t0


def setup_once(text, seed, iterations):
    t0 = time.perf_counter()
    cfg = config.load_experiment(text=text, seed=seed, iterations=iterations)
    for name in cfg.scenario_names:
        hypervisor.build_plan(cfg.scenarios[name])
    return time.perf_counter() - t0


class Tally:
    """Attempted and failed runs; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, step):
        """Run step(); it returns None on success or a mismatch description."""
        self.attempted += 1
        try:
            problem = step()
        except Exception:  # any exception is a failed run; keep measuring
            problem = traceback.format_exc().rstrip()
        if problem is not None:
            self.failed += 1
            print("run %d failed: %s" % (self.attempted, problem), file=sys.stderr)


def _spread(values):
    """(q1, median, q3, sample count)."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, len(values)


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


# -- trace 0: end-to-end metrics ---------------------------------------------------------


def measure_end_to_end(workload, seed, seconds, expected, tally):
    """Repeat set-up and the timed run until `seconds` have passed, with a
    host-speed probe between steps.  Each step's times are scaled to the
    probe's reference speed by the mean of the probes on either side
    (hostspeed.py).  Set-up samples are spread over the whole window, like
    the run samples, so that both see the same machine.  Returns ({metric:
    (q1, median, q3, samples)}, {metric: raw median}, work)."""
    text = config_text(workload)
    master = master_seed(seed)
    outdir = os.path.join(OUT_DIR, workload.name, "run")
    samples = {"setup_s": [], "iter_per_s": [], "wall_s": []}
    raw = {name: [] for name in samples}
    probes = []

    def timed():
        before = probes[-1]
        setup_s = setup_once(text, master, workload.iterations)
        cfg, results, run_s, wall_s = run_once(
            text, master, workload.iterations, workload.workers, outdir
        )
        probes.append(hostspeed.probe())
        problem = gate(results, cfg, outdir, expected)
        if problem is None:
            scale = hostspeed.REFERENCE_S / ((before + probes[-1]) / 2)
            iterations = sum(len(r) for r in results.values())
            for name, value, scaled in (
                ("setup_s", setup_s, setup_s * scale),
                ("iter_per_s", iterations / run_s, iterations / (run_s * scale)),
                ("wall_s", wall_s, wall_s * scale),
            ):
                raw[name].append(value)
                samples[name].append(scaled)
        return problem

    # Warm-up, untimed: imports, first allocations, the output directory.
    # Peak memory is read here, before the probe's own allocations can set
    # the high-water mark.
    run_once(text, master, workload.iterations, workload.workers, outdir)
    rss = _peak_rss_mb()
    probes.append(hostspeed.probe())
    deadline = time.perf_counter() + seconds
    while True:
        tally.check(timed)
        if time.perf_counter() >= deadline:
            break
    metrics = {"peak_rss_mb": (rss, rss, rss, 1)}
    metrics.update((name, _spread(v)) for name, v in samples.items() if v)
    raw_medians = {name: statistics.median(v) for name, v in raw.items() if v}
    raw_medians["host_slowdown"] = statistics.median(probes) / hostspeed.REFERENCE_S

    # Simulated work of one run, counted with tracing on, outside the timing.
    count_only = [t for t in layers.TARGETS if t[0] == "memsys.virtual_access"]
    with layers.Tracer(count_only) as counter:
        cfg, results, _, _ = run_once(text, master, workload.iterations, 1, outdir)
    accesses = counter.summary()["memsys.virtual_access"]
    work = {
        "master_seed": master,
        "scenarios": list(cfg.scenario_names),
        "iterations_per_run": sum(len(r) for r in results.values()),
        "virtual_access_per_run": None if accesses is None else accesses[0],
    }
    return metrics, raw_medians, work


# -- trace 1: per-layer metrics ---------------------------------------------------------


def measure_layers(workload, seed, seconds, expected, tally):
    """Repeat passes until `seconds` have passed.  A pass is an untraced
    serial run, the same run with every target traced and, for a parallel
    workload, a parallel run tracing only the outer targets.  Reports the
    pass with the median traced run time, so that its self times add up, and
    writes out the spans of the first pass.  Returns ({metric: (value,
    unit, better)}, work)."""
    text = config_text(workload)
    master = master_seed(seed)
    outdir = os.path.join(OUT_DIR, workload.name, "trace")
    outer_targets = [t for t in layers.TARGETS if t[0] in layers.OUTER_LABELS]
    passes = []
    tracers = []

    def one_pass():
        cfg, results, untraced_s, _ = run_once(text, master, TRACE_ITERATIONS, 1, outdir)
        problem = gate(results, cfg, outdir, expected)
        if problem:
            return "untraced: " + problem
        with layers.Tracer() as tracer:
            cfg, results, traced_s, _ = run_once(text, master, TRACE_ITERATIONS, 1, outdir)
        problem = gate(results, cfg, outdir, expected)
        if problem:
            return "traced: " + problem
        outer = None
        if workload.workers > 1:
            with layers.Tracer(outer_targets) as outer:
                cfg, results, _, _ = run_once(
                    text, master, TRACE_ITERATIONS, workload.workers, outdir
                )
            problem = gate(results, cfg, outdir, expected)
            if problem:
                return "traced parallel: " + problem
        if not tracers:
            tracers.extend(t for t in (tracer, outer) if t is not None)
        passes.append(
            (
                traced_s,
                untraced_s,
                tracer.summary(),
                None if outer is None else outer.summary(),
                tracer.counts,
                sum(len(r) for r in results.values()),
            )
        )
        return None

    deadline = time.perf_counter() + seconds
    while True:
        tally.check(one_pass)
        if time.perf_counter() >= deadline:
            break
    if not passes:
        return {}, {}
    for tracer, kind in zip(tracers, ("layers", "outer")):
        tracer.write_spans(os.path.join(OUT_DIR, workload.name, "spans-%s.csv" % kind))

    untraced_s = statistics.median(p[1] for p in passes)
    passes.sort(key=lambda p: p[0])
    traced_s, _, summary, outer, counts, iterations = passes[len(passes) // 2]
    metrics = layers.layer_metrics(summary, outer, counts, untraced_s, traced_s)
    accesses = summary["memsys.virtual_access"]
    work = {
        "master_seed": master,
        "iterations_per_pass": iterations,
        "passes": len(passes),
        "virtual_access_per_pass": None if accesses is None else accesses[0],
        "missing_targets": sorted(label for label, v in summary.items() if v is None),
    }
    return metrics, work


# -- reporting -----------------------------------------------------------------------------


def _machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def _fmt(value):
    return "missing" if value is None else "%.6g" % value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if pvmsim is None or not os.path.abspath(pvmsim.__file__).startswith(SRC_DIR + os.sep):
        print("error: no pvmsim source under %s" % SRC_DIR, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        # Fail fast, before anything is timed, if the workload stops parsing.
        config.load_experiment(text=config_text(workload), iterations=1)
    except (config.ConfigError, OSError) as exc:
        print("configuration error: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 2
    iterations = TRACE_ITERATIONS if args.trace else workload.iterations
    master = master_seed(args.seed)
    try:
        expected = load_pins()[workload.name][str(iterations)][str(master)]
    except (OSError, ValueError, KeyError) as exc:
        print("error: no pinned digest for %s at %d iterations, seed %d (%r)"
              % (workload.name, iterations, master, exc), file=sys.stderr)
        return 2

    os.makedirs(os.path.join(OUT_DIR, workload.name), exist_ok=True)
    tally = Tally()
    metrics = {}
    if args.trace:
        measured, work = measure_layers(workload, args.seed, args.seconds, expected, tally)
        for name, (value, unit, _) in measured.items():
            metrics[name] = {"value": value, "unit": unit}
            if value is None:
                metrics[name]["missing"] = True
            print("%-40s %12s %s" % (name, _fmt(value), unit))
    else:
        measured, raw, work = measure_end_to_end(
            workload, args.seed, args.seconds, expected, tally
        )
        for name in ("iter_per_s", "wall_s", "setup_s", "peak_rss_mb"):
            if name not in measured:
                continue
            q1, median, q3, samples = measured[name]
            metrics[name] = {"value": median, "unit": END_TO_END_UNITS[name]}
            unscaled = "" if name not in raw else ", unscaled %s" % _fmt(raw[name])
            print("%-12s %12s %-12s median of %d (q1 %s, q3 %s%s)"
                  % (name, _fmt(median), END_TO_END_UNITS[name], samples, _fmt(q1), _fmt(q3),
                     unscaled))
        work["host_slowdown"] = raw["host_slowdown"]
    print("%-12s %12s %-12s failed %d of %d runs"
          % ("error_rate", _fmt(tally.failed / tally.attempted), "ratio", tally.failed, tally.attempted))

    meta = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "machine": _machine(), "work": work, "notes": NOTES}
    print("metadata: %s" % json.dumps(meta, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    path = os.path.join(OUT_DIR, workload.name, "result-trace%d.json" % args.trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(result, metadata=meta), handle, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner: executes a configured scenario matrix, computes
descriptive statistics, and writes plot-ready CSV/JSON bundles.

Outputs are deliberately timestamp-free and built from sorted keys, so a
given configuration + seed reproduces byte-identical files; that, not
wall-clock speed, is the contract the parallel mode must keep.

Every selected scenario's plan is built in this process before the first
iteration, so a scenario that cannot be realized (a lock-slot or
scratchpad overflow) fails before any work is done.  Scenarios of one
layout -- the same VMs' regions, stages, footprint, converted ways and
machine, whatever their ids, masks, locks and workloads -- share one
layout (page tables and frames), mapped once for the first of them
(hypervisor.build_plan), and the machines over it walk each page once:
the remembered walks belong to its spaces, so they last this call only.

With workers > 1 the experiment opens one process pool of procs =
min(workers, CPUs) processes, or fewer when there are fewer jobs, as a
forking pool starts all its processes at the first submit.  A range shipped to the pool
starts cold: its worker unpickles the plan and builds, sets up and warms
the machine again (a built machine cannot be pickled: see Cache), which
costs about as much as 4.5 to 5.5 warm iterations.  So a scenario is cut into
near-equal contiguous ranges, one per process, only as far as each keeps
MIN_SLICE iterations, and otherwise ships whole.  An interference-free
plan draws every iteration after its first, so it runs in this process,
beside the pool, and is never shipped.  The pool's feeder thread may
still be pickling shipped plans while it runs, so nothing a parent-run
plan mutates (its machine, compiled sweeps and fixed record) may be
reachable from a shipped plan: such state lives on the plan itself,
never on the Workload or Region objects that scenarios share.  The
address spaces that scenarios share are read-only once built, and the
walks remembered for them are kept beside them, in memsys, where no
plan reaches them: a shipped plan pickles its spaces' tables alone, and
its worker walks its own unpickled copies afresh.  Results
are collected in submission order; because every iteration reseeds from
(master seed, iteration index), any split yields the same records.
"""

import concurrent.futures
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import statistics
import time

from . import __version__, hypervisor


# The fewest iterations worth a cold range: its start-up (4.5 to 5.5 warm
# iterations of an `unmitigated` scenario, timed as one range and as 41
# through a one-process pool, CPython 3.11) stays under ~10% of it.
MIN_SLICE = 64


def _ranges(iterations, procs):
    """The near-equal contiguous [start, stop) ranges a scenario is split
    into for a pool of `procs` processes: one per process as far as each
    keeps MIN_SLICE iterations, else the whole scenario; empty without a
    pool or an iteration."""
    if procs <= 1 or not iterations:
        return []
    size = math.ceil(iterations / max(1, min(procs, iterations // MIN_SLICE)))
    return [(start, min(start + size, iterations)) for start in range(0, iterations, size)]


def run_experiment(config, workers=1, log=None):
    """Run every selected scenario; returns {name: [IterationRecord]} in
    config.scenario_names order.

    Raises hypervisor.SetupError, naming the scenario, before any
    iteration runs if a scenario cannot be realized.  log, if given,
    receives one line per scenario once its records are complete, with
    the scenario's iterations per second since the previous line.
    """
    started = last = time.perf_counter()
    plans = {}
    layouts = {}  # scenarios of one layout share its address spaces, for this call only
    for name in config.scenario_names:
        try:
            # Looked up on the module at call time, like run_range's
            # run_iteration, so wrappers installed on the module see it.
            plans[name] = hypervisor.build_plan(config.scenarios[name], layouts)
        except hypervisor.SetupError as exc:
            raise hypervisor.SetupError("scenario %r: %s" % (name, exc)) from exc
    procs = min(workers, os.cpu_count() or 1)
    ranges = {
        name: [] if plan.interference_free else _ranges(plan.defn.iterations, procs)
        for name, plan in plans.items()
    }
    jobs = sum(len(r) for r in ranges.values())
    # Fork wherever the platform has it, else its default.  Workers need
    # nothing their arguments do not carry, so any start method works, and
    # this process starts no threads, so forking it is safe.  On Linux a
    # 2-worker pool starts, runs one empty job per process and shuts down
    # in about 6 ms with fork, where forkserver (the default from CPython
    # 3.14) takes about 80 ms and spawn about 110 ms (CPython 3.11, 2
    # vCPUs), more than a small experiment runs for.
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    pool = None
    if jobs:
        # A forked worker's collector would walk, and so copy on write,
        # the whole heap it inherited: freeze that heap first.
        pool = concurrent.futures.ProcessPoolExecutor(
            min(procs, jobs), mp_context=context, initializer=gc.freeze
        )
    results = {}
    try:
        futures = {
            name: [pool.submit(hypervisor.run_range, plans[name], a, b) for a, b in ranges[name]]
            for name in plans
        }
        for name in list(plans):
            plan = plans.pop(name)  # the last reference: freed with its machine on the next pass
            pending = futures.pop(name)
            if pending:
                records = [r for future in pending for r in future.result()]
            else:
                records = hypervisor.run_range(plan, 0, plan.defn.iterations)
            results[name] = records
            if log:
                now = time.perf_counter()
                rate = len(records) / (now - last) if now > last else 0.0
                last = now
                log(
                    "scenario %-24s %6d iterations at %9.1f iterations/s, done at %8.2f s"
                    % (name, len(records), rate, now - started)
                )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results


# -- statistics -------------------------------------------------------------------


def summarize(records):
    """Descriptive statistics of one scenario's records.

    The spread figure is the population standard deviation (N divisor,
    statistics.pstdev): the iterations are the whole population of the
    deterministic experiment, not a sample from a larger one.
    """
    cycles = [r.cycles for r in records]
    out = {"iterations": len(records)}
    if not records:
        return out
    if len(cycles) >= 2:
        q1, median, q3 = statistics.quantiles(cycles, n=4, method="inclusive")
    else:
        q1 = median = q3 = float(cycles[0])
    out["cycles"] = {
        "mean": round(statistics.fmean(cycles), 6),
        "std": round(statistics.pstdev(cycles), 6),
        "min": min(cycles),
        "q1": round(q1, 6),
        "median": round(median, 6),
        "q3": round(q3, 6),
        "max": max(cycles),
    }
    out["tlb_misses"] = {
        "mean": round(statistics.fmean(r.tlb_misses for r in records), 6),
        "total": sum(r.tlb_misses for r in records),
    }
    out["cache_misses"] = {
        "mean": round(statistics.fmean(r.cache_misses for r in records), 6),
        "total": sum(r.cache_misses for r in records),
    }
    return out


def _pct_delta(baseline, subject):
    if baseline == 0:
        return "undefined"
    return round((subject - baseline) / baseline * 100.0, 3)


def compare(bundle, baseline_name, subject_name):
    """Δmean% / Δstd% of measured cycles between two scenarios of a
    summary bundle (percentages relative to the baseline; a zero
    baseline reads 'undefined' rather than infinity)."""
    scenarios = bundle["scenarios"]
    for name in (baseline_name, subject_name):
        if name not in scenarios:
            raise KeyError(
                "scenario %r not in bundle (has: %s)" % (name, ", ".join(sorted(scenarios)))
            )
        if "cycles" not in scenarios[name]:
            raise ValueError("scenario %r has no iterations to compare" % name)
    base = scenarios[baseline_name]["cycles"]
    subj = scenarios[subject_name]["cycles"]
    return {
        "baseline": baseline_name,
        "subject": subject_name,
        "delta_mean_pct": _pct_delta(base["mean"], subj["mean"]),
        "delta_std_pct": _pct_delta(base["std"], subj["std"]),
    }


# -- output bundle -----------------------------------------------------------------


def build_bundle(config, results):
    """The JSON-ready summary: stats per scenario plus pairwise deltas
    against the isolation and unmitigated scenarios when present."""
    scenarios = {}
    for name in config.scenario_names:
        defn = config.scenarios[name]
        entry = summarize(results[name])
        entry["seed"] = defn.seed
        scenarios[name] = entry
    bundle = {
        "experiment": config.name,
        "simulator_version": __version__,
        "config_sha256": hashlib.sha256(config.text.encode()).hexdigest(),
        "seed": config.seed,
        "stats_note": (
            "std is the population standard deviation (N divisor) of "
            "measured-phase cycles"
        ),
        "scenarios": scenarios,
    }
    for baseline in ("isolation", "unmitigated"):
        if baseline not in scenarios or "cycles" not in scenarios[baseline]:
            continue
        for name, entry in scenarios.items():
            if name == baseline or "cycles" not in entry:
                continue
            delta = compare(bundle, baseline, name)
            entry["vs_%s" % baseline] = {k: delta[k] for k in ("delta_mean_pct", "delta_std_pct")}
    return bundle


def render_csv(records):
    out = io.StringIO()
    out.write("iteration,cycles,tlb_misses,cache_misses\n")
    for r in records:
        out.write("%d,%d,%d,%d\n" % (r.index, r.cycles, r.tlb_misses, r.cache_misses))
    return out.getvalue()


def render_json(bundle):
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


def write_outputs(outdir, config, results):
    """Write per-scenario CSVs and the summary JSON; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name in config.scenario_names:
        path = os.path.join(outdir, "%s-%s.csv" % (config.name, name))
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_csv(results[name]))
        paths.append(path)
    summary_path = os.path.join(outdir, "%s-summary.json" % config.name)
    with open(summary_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(render_json(build_bundle(config, results)))
    paths.append(summary_path)
    return paths

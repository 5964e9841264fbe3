"""Pin the record digests that bench/run.py checks every run against.

    python3 bench/pin_digests.py

For every workload, at its timed iteration count and at the traced-pass
count, and for each of the PINNED_SEEDS master seeds, runs the workload
serially and writes the digest of its records to bench/digests.json.
Serial on purpose: a parallel run must reproduce these digests exactly.
Re-pin only when a change is meant to alter simulated records.
"""

import json

import run


def main():
    pins = {}
    for workload in run.WORKLOADS.values():
        text = run.config_text(workload)
        by_count = pins[workload.name] = {}
        for iterations in sorted({workload.iterations, run.TRACE_ITERATIONS}):
            by_seed = by_count[str(iterations)] = {}
            for master in range(1, run.PINNED_SEEDS + 1):
                cfg = run.config.load_experiment(text=text, seed=master, iterations=iterations)
                by_seed[str(master)] = run.records_digest(run.harness.run_experiment(cfg))
            print("pinned %s at %d iterations per scenario" % (workload.name, iterations))
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

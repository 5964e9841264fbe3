"""Cross-version golden records: every shipped preset, pinned by digest.

The determinism contract says a configuration and seed give the same
records; the other tests check that only within one build.  This file
pins SHA-256 digests of the sorted (scenario, index, cycles, tlb_misses,
cache_misses) rows for every preset at a few seeds, so a change that is
meant to leave behaviour alone (a refactor, a speed-up) is shown to leave
every record alone.  Serial, two-worker and three-worker runs must all
match the pin; at 4 iterations three workers fall below the harness's
2 * workers threshold and run in the calling process.  The process pool's
uneven split is pinned separately: 7 iterations over 3 workers run as the
ranges [0, 3), [3, 6) and [6, 7).

Regenerate (only when records are meant to change, and say so):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import run_experiment

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "records.json")
SEEDS = (1, 2)
ITERATIONS = 4
UNEVEN = {"iterations": 7, "seed": 1, "workers": 3}


def records_digest(results):
    """SHA-256 over the sorted (scenario, index, cycles, tlb, cache) rows."""
    rows = sorted(
        (name, r.index, r.cycles, r.tlb_misses, r.cache_misses)
        for name, records in results.items()
        for r in records
    )
    h = hashlib.sha256()
    for row in rows:
        h.update(("%s,%d,%d,%d,%d\n" % row).encode())
    return h.hexdigest()


def run_digest(preset, seed, workers, iterations=ITERATIONS):
    cfg = load_experiment(text=preset_text(preset), seed=seed, iterations=iterations)
    return records_digest(run_experiment(cfg, workers=workers))


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_every_preset():
    golden = load_golden()
    assert golden["iterations"] == ITERATIONS
    assert sorted(golden["digests"]) == preset_names()
    for preset in preset_names():
        assert sorted(golden["digests"][preset]) == [str(s) for s in SEEDS]
    assert {k: v for k, v in golden["uneven"].items() if k != "digests"} == UNEVEN
    assert sorted(golden["uneven"]["digests"]) == preset_names()


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", preset_names())
def test_records_match_golden_digest(preset, seed, workers):
    expected = load_golden()["digests"][preset][str(seed)]
    assert run_digest(preset, seed, workers) == expected


@pytest.mark.parametrize("preset", preset_names())
def test_uneven_ranges_match_golden_digest(preset):
    expected = load_golden()["uneven"]["digests"][preset]
    assert run_digest(preset, UNEVEN["seed"], UNEVEN["workers"], UNEVEN["iterations"]) == expected


def main():
    digests = {
        preset: {str(seed): run_digest(preset, seed, 1) for seed in SEEDS}
        for preset in preset_names()
    }
    uneven = dict(
        UNEVEN,
        digests={
            preset: run_digest(preset, UNEVEN["seed"], 1, UNEVEN["iterations"])
            for preset in preset_names()
        },
    )
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"iterations": ITERATIONS, "digests": digests, "uneven": uneven},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print("wrote %s" % GOLDEN_PATH)


if __name__ == "__main__":
    main()

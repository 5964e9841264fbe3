# Keeps the tests directory importable (for the shared oracles module).

import concurrent.futures
import os

import pytest


@pytest.fixture
def pools(monkeypatch):
    """Every process pool run_experiment opens, with the (plan, start, stop)
    arguments of each job submitted to it, on a host of 4 CPUs whatever
    this one has (a test may patch os.cpu_count again)."""
    opened = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.max_workers = max_workers
            self.mp_context = kwargs.get("mp_context")
            self.initializer = kwargs.get("initializer")
            self.jobs = []
            opened.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.jobs.append(args)
            return super().submit(fn, *args, **kwargs)

        def ranges(self):
            """{scenario: [(start, stop), ...]} in submission order,
            asserting that every submitted plan is unbuilt and none is
            interference-free."""
            ranges = {}
            for plan, start, stop in self.jobs:
                # A built machine holds each cache's access step, a closure
                # that cannot be pickled: every plan goes to the pool before
                # any iteration runs.
                assert plan.machine is None
                # An interference-free plan draws every iteration after its
                # first, so it runs in the calling process.
                assert not plan.interference_free, plan.defn.name
                ranges.setdefault(plan.defn.name, []).append((start, stop))
            return ranges

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened


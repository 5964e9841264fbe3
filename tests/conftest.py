# Keeps the tests directory importable (for the shared oracles module).

import concurrent.futures
import os
import pickle

import pytest

# The most bytes a pool job may pickle to: a scenario's name and a range,
# never a plan, which pickles to tens of kilobytes.
MAX_JOB_BYTES = 256


@pytest.fixture
def pools(monkeypatch):
    """Every process pool run_experiment opens, with the arguments its
    initializer is given (initargs) and the (scenario, start, stop)
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
            self.initargs = kwargs.get("initargs")
            self.jobs = []
            self.job_bytes = []
            opened.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.jobs.append(args)
            self.job_bytes.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

        def ranges(self):
            """{scenario: [(start, stop), ...]} in submission order,
            asserting that the initializer was handed exactly the plans of
            the submitted scenarios, each under its own name, unbuilt and
            not interference-free, and that no job pickles to more than
            MAX_JOB_BYTES."""
            (plans,) = self.initargs
            ranges = {}
            for name, start, stop in self.jobs:
                plan = plans[name]
                assert plan.defn.name == name
                # A built machine holds each cache's access step, a closure
                # that cannot be pickled, and a spawned worker unpickles
                # every shipped plan: no shipped plan runs in the caller.
                assert plan.machine is None
                # An interference-free plan draws every iteration after its
                # first, so it runs in the calling process.
                assert not plan.interference_free, name
                ranges.setdefault(name, []).append((start, stop))
            assert list(ranges) == list(plans)
            assert max(self.job_bytes) <= MAX_JOB_BYTES, self.job_bytes
            return ranges

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened

"""Abstract memory workloads: access-pattern descriptors and their executor.

A measured workload is two region lists: an untimed prime pass that warms
translations and lines, and a timed measure pass.  Each Region describes a
simple sweep::

    pages    -- how many 4 KiB virtual pages, starting at base
    stride   -- byte step inside each page (stride >= page size means one
                access per page)
    order    -- page visit order: forward, reverse, or random (seeded)
    repeats  -- how many times to sweep the whole region
    kind     -- read / write / ifetch
    compute_cycles -- flat cycle charge after every access (models the
                work done between memory operations)

The classic TLB micro-benchmark is then: prime the pages forward, measure
them in reverse (reverse order avoids self-eviction, so every measured
miss was inflicted from outside).

An InterferenceLoop is open-ended instead: it visits uniformly random
pages of its pool, a few line-granular touches per visit, until the cycle
quantum the scheduler granted is used up.  Per visit it draws a page and
then per touch an offset, each as randrange(n) would draw it.

Two executors serve the region lists, with the same cycles and effects.
The timed measured phase and the hypervisor's footprint are each
compiled once per plan (compile_sweeps) into sweeps: a maximal run of
consecutive fixed-order regions of one kind and one compute charge
becomes one sweep over a precomputed address tuple, and a random-order
region stays a sweep of its own, whose pages are shuffled from the
workload generator when it starts.  run_measure runs each sweep with one
MemorySystem.run_loop, as run_interference runs a quantum: the hot paths
build no per-access outcome, and back-to-back regions of one kind cost
one loop set-up.  run_regions takes one virtual_access per address and
runs only the untimed prime, which every plan's first iteration runs, so
the outcome-building path, which tests hold to a reference pipeline and
the benchmark's traced pass observes, runs in every experiment.  None of
them checks for faults: memsys raises at the access that finds one.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .memsys import KINDS
from .sv39 import SIZE_4K

ORDERS = ("forward", "reverse", "random")
# The most accesses one sweep may ask for; presets' sweeps take at most 16.
MAX_SWEEP_ACCESSES = 1 << 18


def _check_sweep(sweep, what, count, counted):
    """Raise ValueError unless the fields a Region and an InterferenceLoop
    share are usable: `what` names the sweep, and `count` is its other
    count (repeats, or touches per visit), which `counted` describes."""
    if sweep.base % SIZE_4K or sweep.base < 0:
        raise ValueError("%s base 0x%x is not page-aligned" % (what, sweep.base))
    if sweep.pages < 1 or count < 1:
        raise ValueError("%s needs at least one page and %s" % (what, counted))
    if sweep.stride < 8 or sweep.stride % 8:
        raise ValueError("stride must be a positive multiple of 8 bytes")
    if sweep.kind not in KINDS:
        raise ValueError("kind must be one of %r" % (KINDS,))
    if sweep.compute_cycles < 0:
        raise ValueError("compute_cycles must be >= 0")


@dataclass(frozen=True)
class Region:
    base: int
    pages: int
    stride: int = 512
    order: str = "forward"
    repeats: int = 1
    kind: str = "read"
    compute_cycles: int = 0

    def __post_init__(self):
        _check_sweep(self, "region", self.repeats, "one repeat")
        if self.order not in ORDERS:
            raise ValueError("order must be one of %r" % (ORDERS,))
        per_page = -(-SIZE_4K // self.stride)  # the offsets addresses() visits in a page
        accesses = self.pages * per_page * self.repeats
        if accesses > MAX_SWEEP_ACCESSES:
            raise ValueError(
                "region sweep takes %d accesses, more than %d" % (accesses, MAX_SWEEP_ACCESSES)
            )

    def addresses(self, rng=None):
        """Yield the access addresses of the full sweep (all repeats)."""
        pages = list(range(self.pages))
        if self.order == "reverse":
            pages.reverse()
        elif self.order == "random":
            if rng is None:
                raise ValueError("random order needs a seeded generator")
            rng.shuffle(pages)
        for _ in range(self.repeats):
            for p in pages:
                page_base = self.base + p * SIZE_4K
                for off in range(0, SIZE_4K, self.stride):
                    yield page_base + off


@dataclass(frozen=True)
class Workload:
    """prime runs untimed before every measurement; measure is what's timed."""

    prime: tuple
    measure: tuple

    def __post_init__(self):
        object.__setattr__(self, "prime", tuple(self.prime))
        object.__setattr__(self, "measure", tuple(self.measure))


@dataclass(frozen=True)
class InterferenceLoop:
    """Open-ended random-page pounding, sized by the scheduler's quantum."""

    base: int
    pages: int
    stride: int = 64
    touches_per_page: int = 8
    kind: str = "read"
    compute_cycles: int = 0

    def __post_init__(self):
        _check_sweep(self, "loop", self.touches_per_page, "one touch per visit")

    def addresses(self, rng):
        """Yield touch addresses forever, each draw random.Random.randrange(n)
        written out: the same values, and the same generator state."""
        per_page = max(1, SIZE_4K // self.stride)
        touches = min(self.touches_per_page, per_page)
        base, pages, stride = self.base, self.pages, self.stride
        getrandbits = rng.getrandbits
        bits_p, bits_o = pages.bit_length(), per_page.bit_length()
        while True:
            r = getrandbits(bits_p)
            while r >= pages:
                r = getrandbits(bits_p)
            page_base = base + r * SIZE_4K
            for _ in range(touches):
                r = getrandbits(bits_o)
                while r >= per_page:
                    r = getrandbits(bits_o)
                yield page_base + r * stride


def run_regions(sys, vm, regions, rng=None):
    """Execute a region list on behalf of vm, one virtual_access per
    address; returns total cycles."""
    total = 0
    for region in regions:
        for vaddr in region.addresses(rng):
            out = sys.virtual_access(vaddr, region.kind, vm)
            total += out.total_cycles + region.compute_cycles
    return total


class Sweep(NamedTuple):
    """One run_loop of the measured phase: `kind` accesses, each charged
    `compute_cycles`, at `addresses`, or, when that is None, at the
    addresses of the random-order `region`, drawn as the sweep starts."""

    kind: str
    compute_cycles: int
    addresses: tuple
    region: Region = None


def compile_sweeps(regions):
    """The sweeps that perform a region list: consecutive fixed-order
    regions of one kind and compute charge merge into one sweep over their
    addresses, in order; a random-order region stays a sweep of its own."""
    sweeps = []
    for region in regions:
        kind, compute = region.kind, region.compute_cycles
        last = sweeps[-1] if sweeps else None
        if region.order == "random":
            sweeps.append(Sweep(kind, compute, None, region))
        elif last is not None and last.region is None and last[:2] == (kind, compute):
            last.addresses.extend(region.addresses())
        else:
            sweeps.append(Sweep(kind, compute, list(region.addresses())))
    return tuple(
        sweep if sweep.region is not None else sweep._replace(addresses=tuple(sweep.addresses))
        for sweep in sweeps
    )


def run_measure(sys, vm, sweeps, rng):
    """run_regions' cycles and effects for the region list compiled into
    `sweeps`, each sweep one run_loop with no quantum to stop it."""
    run_loop = sys.run_loop
    total = 0
    for kind, compute, addresses, region in sweeps:
        if addresses is None:
            addresses = region.addresses(rng)
        total += run_loop(vm, kind, addresses, compute, math.inf)
    return total


def run_interference(sys, vm, loop, quantum, rng):
    """Run `loop` on behalf of vm until `quantum` cycles are spent; returns
    them.  The overshoot is at most one access (scheduler fairness)."""
    return sys.run_loop(vm, loop.kind, loop.addresses(rng), loop.compute_cycles, quantum)

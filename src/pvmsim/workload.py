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
then per touch an offset, each as randrange(n) would draw it, and
MemorySystem.run_loop prices those addresses without per-access outcomes.
Neither checks for faults: memsys raises at the access that finds one.
"""

from dataclasses import dataclass

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
        """Yield touch addresses forever, each draw memsys.randbelow written out."""
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
    """Execute a region list on behalf of vm; returns total cycles."""
    total = 0
    for region in regions:
        for vaddr in region.addresses(rng):
            out = sys.virtual_access(vaddr, region.kind, vm)
            total += out.total_cycles + region.compute_cycles
    return total


def run_interference(sys, vm, loop, quantum, rng):
    """Run `loop` on behalf of vm until `quantum` cycles are spent; returns
    them.  The overshoot is at most one access (scheduler fairness)."""
    return sys.run_loop(vm, loop.kind, loop.addresses(rng), loop.compute_cycles, quantum)

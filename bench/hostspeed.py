"""Host-speed probe: a fixed pure-Python kernel timed beside the simulator.

The benchmark runs on a few vCPUs of a shared host whose speed drifts with
the load of other tenants: the same code runs up to twice as slow for
seconds to minutes at a time, in process CPU time as much as in wall time.
No estimator over the simulator's own timings removes a slowdown that
covers a whole run.  So the benchmark times this kernel right before and
right after every measured step and scales the step's time by

    REFERENCE_S / (mean of the two probe times)

which reads as host seconds at the speed the probe has on an uncontended
host.  The kernel does the kind of work the simulator does (attribute
access on small objects, short list scans, dictionary lookups, integer
arithmetic, allocation) and never touches the simulator, so a change to the
simulator moves the scaled times exactly as it moves the raw ones.

Its working set of a few MiB matters.  Under the same contention, a kernel
that fits in the core's private caches slows by up to 20% more than the
simulator does, which left scaled medians over 20-second windows 7% apart
(interquartile range over median); with this working set they were 2-3%
apart while the raw medians were 21% apart.
"""

import time

REFERENCE_S = 0.024  # probe() on an uncontended host: 2 vCPU Intel Xeon, CPython 3.11
ACCESSES = 10000
PAGES = 1 << 16


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag, dirty):
        self.tag = tag
        self.dirty = dirty


class _Cache:
    """A small set-associative LRU cache with write-back counting."""

    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.stats = {"hit": 0, "miss": 0, "writeback": 0}

    def access(self, addr, write):
        lines = self.sets[(addr >> 4) % len(self.sets)]
        tag = addr >> 12
        for i, line in enumerate(lines):
            if line.tag == tag:
                lines.append(lines.pop(i))
                line.dirty = line.dirty or write
                self.stats["hit"] += 1
                return True
        self.stats["miss"] += 1
        if len(lines) >= self.ways and lines.pop(0).dirty:
            self.stats["writeback"] += 1
        lines.append(_Line(tag, write))
        return False


def _kernel(accesses):
    # A working set of a few MiB, like the simulator's machine state: a
    # 4096-set cache and a 64 Ki-entry page table, rebuilt on every call.
    cache = _Cache(4096, 8)
    pages = {vpn: (vpn * 7919) & 0xFFFFF for vpn in range(PAGES)}
    x = 12345
    for _ in range(accesses):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        paddr = (pages[(x >> 8) & (PAGES - 1)] << 12) | (x & 0xFFF)
        cache.access(paddr, (x >> 20) & 1)
    return cache.stats


EXPECTED = _kernel(ACCESSES)


def probe():
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    stats = _kernel(ACCESSES)
    elapsed = time.perf_counter() - t0
    if stats != EXPECTED:
        raise RuntimeError("host-speed kernel is not deterministic: %r" % (stats,))
    return elapsed

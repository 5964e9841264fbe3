"""Traced pass of the pvmsim benchmark: spans around the calls into each module.

Every target is wrapped at the name its caller actually looks up, from
outside the simulator: a module attribute that another module imported by
name (``memsys.walk_two_stage``, ``hypervisor.run_regions``) or a method on
the class (``PlruTree.touch``).  Each call records one span -- name, parent,
start, end -- in flat arrays kept in memory; the benchmark writes them out
once the measurement is over.  A span's self time is its duration minus the
time its child spans cover.

Counts come from the wrapped calls' return values (``LookupResult``,
``AccessResult.event``, ``len(WalkResult.accesses)``, ``Tlb.fill`` returning
None), never from the simulator's internal statistics.  A target that no
longer exists is reported as missing instead of as zero, and the tracer
leaves the modules exactly as it found them.
"""

import functools
import importlib
import time
from array import array
from collections import Counter


def _lookup(counts, res):
    if res.hit:
        counts["tlb.hits"] += 1
        if res.lock_hit:
            counts["tlb.lock_hits"] += 1


def _fill(counts, leaf):
    if leaf is None:
        counts["tlb.dropped_fills"] += 1


def _walk(counts, res):
    counts["walker.walks"] += 1
    counts["walker.fetches"] += len(res.accesses)


def _cache_access(counts, res):
    counts["cache.event." + res.event] += 1


# (label, pvmsim module, class or None for a module attribute, attribute, observer)
TARGETS = (
    ("plru.init", "plru", "PlruTree", "__init__", None),
    ("plru.touch", "plru", "PlruTree", "touch", None),
    ("plru.insert", "plru", "PlruTree", "insert", None),
    ("plru.set_lock", "plru", "PlruTree", "set_lock", None),
    ("tlb.lookup", "tlb", "Tlb", "lookup", _lookup),
    ("tlb.fill", "tlb", "Tlb", "fill", _fill),
    ("tlb.program_lock_slot", "tlb", "Tlb", "program_lock_slot", None),
    # Top-level walks are looked up in memsys; the host walks nested in a
    # two-stage walk are looked up in walker itself.  Only top-level walks
    # count towards walker.fetches_per_walk.
    ("walker.walk_single", "memsys", None, "walk_single", _walk),
    ("walker.walk_single", "walker", None, "walk_single", None),
    ("walker.walk_two_stage", "memsys", None, "walk_two_stage", _walk),
    ("cache.init", "cache", "Cache", "__init__", None),
    ("cache.access", "cache", "Cache", "access", _cache_access),
    ("cache.configure_way", "cache", "Cache", "configure_way", None),
    ("cache.memory_read", "cache", "Memory", "read_word", None),
    ("cache.memory_write", "cache", "Memory", "write_word", None),
    ("memsys.virtual_access", "memsys", "MemorySystem", "virtual_access", None),
    ("hypervisor.build_plan", "hypervisor", None, "build_plan", None),
    ("hypervisor.build_system", "hypervisor", None, "build_system", None),
    ("hypervisor.setup_scenario", "hypervisor", None, "setup_scenario", None),
    ("hypervisor.run_iteration", "hypervisor", None, "run_iteration", None),
    ("workload.run_regions", "hypervisor", None, "run_regions", None),
    ("workload.run_interference", "hypervisor", None, "run_interference", None),
    ("config.load_experiment", "config", None, "load_experiment", None),
    ("harness.run_experiment", "harness", None, "run_experiment", None),
    ("harness.write_outputs", "harness", None, "write_outputs", None),
    ("harness.build_bundle", "harness", None, "build_bundle", None),
)

LABELS = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Called a handful of times per run, so tracing them costs next to nothing;
# these are the only targets wrapped in a parallel run, whose other spans
# would happen in worker processes.
OUTER_LABELS = frozenset(
    ("config.load_experiment", "harness.run_experiment", "harness.write_outputs", "harness.build_bundle")
)


class Tracer:
    """Wraps the given targets while active (use as a context manager)."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.labels = list(dict.fromkeys(t[0] for t in targets))
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.missing = set()
        self._stack = [-1]
        self._undo = []

    def __enter__(self):
        present = set()
        try:
            for label, module, cls, attr, observe in self.targets:
                owner = importlib.import_module("pvmsim." + module)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    continue
                nid = self.labels.index(label)
                setattr(owner, attr, self._wrap(original, nid, observe))
                self._undo.append((owner, attr, original))
                present.add(label)
        except BaseException:
            self._restore()
            raise
        self.missing = set(self.labels) - present
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, nid, observe):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return span

    def self_times(self):
        """Per span: its duration minus the time its direct children cover."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def summary(self):
        """label -> (calls, self seconds, inclusive seconds); None if missing."""
        acc = {label: [0, 0.0, 0.0] for label in self.labels}
        for nid, own, s, e in zip(self.name, self.self_times(), self.start, self.end):
            entry = acc[self.labels[nid]]
            entry[0] += 1
            entry[1] += own
            entry[2] += e - s
        return {label: None if label in self.missing else tuple(acc[label]) for label in self.labels}

    def write_spans(self, path):
        """One CSV row per span; times in seconds from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                handle.write("%d,%d,%s,%.9f,%.9f\n" % (i, p, self.labels[nid], s - t0, e - t0))


def _ratio(num, den):
    return None if num is None or not den else num / den


def _field(summary, label, index):
    entry = summary.get(label)
    return None if entry is None else entry[index]


def layer_metrics(layers, outer, counts, untraced_run_s, traced_run_s):
    """Per-layer metrics of one traced pass: {name: (value, unit, better)}.

    layers is the serial pass's summary.  outer is the summary of a
    parallel pass that traced only OUTER_LABELS, or None for a serial
    workload; when given, the config and harness figures come from it.
    A value is None when its target is missing or its base is zero.
    """
    merged = dict(layers)
    if outer is not None:
        merged.update((label, outer[label]) for label in OUTER_LABELS)
    out = {}
    for label in LABELS:
        out[label + ".calls"] = (_field(merged, label, 0), "count", "lower")
        out[label + ".self_s"] = (_field(merged, label, 1), "s", "lower")

    run_s = _field(layers, "harness.run_experiment", 2)
    lookups = _field(merged, "tlb.lookup", 0)
    build = _field(layers, "hypervisor.build_system", 2)
    setup = _field(layers, "hypervisor.setup_scenario", 2)
    hits, misses = counts["cache.event.hit"], counts["cache.event.miss"]
    spm = counts["cache.event.spm"] + counts["cache.event.spm-misconfig"]
    accesses = _field(merged, "memsys.virtual_access", 0)
    for name, value, unit, better in (
        ("tlb.hit_ratio", _ratio(counts["tlb.hits"], lookups), "ratio", "higher"),
        ("tlb.lock_hit_ratio", _ratio(counts["tlb.lock_hits"], lookups), "ratio", "higher"),
        (
            "tlb.fill_drop_ratio",
            _ratio(counts["tlb.dropped_fills"], _field(merged, "tlb.fill", 0)),
            "ratio",
            "lower",
        ),
        (
            "walker.fetches_per_walk",
            _ratio(counts["walker.fetches"], counts["walker.walks"]),
            "fetches/walk",
            "lower",
        ),
        (
            "walker.walk_two_stage.incl_share",
            _ratio(_field(layers, "walker.walk_two_stage", 2), run_s),
            "ratio",
            "lower",
        ),
        ("cache.hit_ratio", _ratio(hits, hits + misses), "ratio", "higher"),
        ("cache.spm_share", _ratio(spm, _field(merged, "cache.access", 0)), "ratio", "higher"),
        ("memsys.host_us_per_access", _ratio(untraced_run_s * 1e6, accesses), "us", "lower"),
        (
            "hypervisor.build_setup_share",
            _ratio(None if build is None or setup is None else build + setup, run_s),
            "ratio",
            "lower",
        ),
        ("harness.run_experiment.incl_s", _field(merged, "harness.run_experiment", 2), "s", "lower"),
        ("trace.overhead_ratio", _ratio(traced_run_s, untraced_run_s), "ratio", "lower"),
    ):
        out[name] = (value, unit, better)
    return out

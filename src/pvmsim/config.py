"""Experiment configuration files: schema, validation, scenario construction.

The format is INI (configparser).  Unknown sections or keys are hard
errors that name the offending location, so typos never silently fall
back to defaults.  The full schema::

    [run]           name, iterations, seed, scenarios (names, space-separated;
                    default: every [scenario.*] in file order)
    [latency]       tlb_hit cache_hit spm memory jitter    (cycle counts)
    [tlb]           entries partitions lock_slots
    [cache]         ways icache_sets dcache_sets line_bytes
    [hypervisor]    mask quantum footprint_base footprint_pages footprint_stride
    [vm.<name>]     vmid asid mask two_stage role
                    region.<rname> = base=0x... pages=N flags=rwx
                                     [page_size=4k|2m|1g] [backing=ram|dspm|ispm]
                                     [lock=true]
                    role=measured:      prime = / measure = sweep; sweep; ...
                      sweep: <rname> [order=forward|reverse|random] [stride=N]
                             [pages=N] [repeats=N] [kind=read|write|ifetch]
                             [compute=N]
                    role=interference:  loop = <rname> [stride=N] [touches=N]
                                        [kind=...] [compute=N]
    [scenario.<n>]  vms (vm names, space-separated), spm_ways, hyp_mask,
                    iterations, seed

Integers accept 0x-prefixed hex.  Each section and each key=value list
has one table below (key -> dataclass field, parser); only the keys
present are passed on, so every default is the dataclass's own.  A
sweep covers its whole region unless pages= says fewer, and its kind
defaults to ifetch for executable regions.  The run name and the
scenario names become output file names, so they may not hold a path
separator.

[tlb] and [cache] describe one MachineConfig, built and checked once per
experiment (geometry and array sizes, errors under [tlb] or [cache]) and
shared by every scenario; a scenario checks only its own masks and
spm_ways against it.
"""

import configparser
import os
from dataclasses import dataclass, replace

from .hypervisor import HypervisorConfig, MappedRegion, ScenarioDef, VmSpec
from .memsys import LatencyConfig, MachineConfig
from .sv39 import PTE_A, PTE_D, PTE_R, PTE_W, PTE_X, SIZE_1G, SIZE_2M, SIZE_4K
from .workload import InterferenceLoop, Region, Workload


class ConfigError(ValueError):
    """A configuration problem, annotated with the offending section/key."""


_PAGE_SIZES = {"4k": SIZE_4K, "2m": SIZE_2M, "1g": SIZE_1G}
_FLAG_LETTERS = {"r": PTE_R, "w": PTE_W, "x": PTE_X}


def _fail(where, message):
    raise ConfigError("%s: %s" % (where, message))


class _located:
    """Report a ValueError raised in the with-block as a ConfigError at `where`."""

    def __init__(self, where):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError) and not isinstance(exc, ConfigError):
            _fail(self.where, str(exc))


def _int(where, raw):
    try:
        return int(raw, 0)
    except ValueError:
        _fail(where, "expected an integer, got %r" % raw)


def _count(where, raw):
    value = _int(where, raw)
    if value < 0:
        _fail(where, "must be >= 0, got %d" % value)
    return value


def _bool(where, raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    _fail(where, "expected a boolean, got %r" % raw)


def _str(where, raw):
    return raw


def _file_name(where, raw):
    if any(sep and sep in raw for sep in (os.sep, os.altsep)):
        _fail(where, "%r holds a path separator; it names output files" % raw)
    return raw


def _words(where, raw):
    return raw.split()


def _flags(where, raw):
    value = PTE_A | PTE_D  # accessed/dirty are pre-set; faults on them are unmodeled
    for letter in raw.strip().lower():
        if letter not in _FLAG_LETTERS:
            _fail(where, "unknown permission letter %r (use r/w/x)" % letter)
        value |= _FLAG_LETTERS[letter]
    if not value & (PTE_R | PTE_W | PTE_X):
        _fail(where, "flags need at least one of r/w/x")
    return value


def _page_size(where, raw):
    token = raw.lower()
    if token not in _PAGE_SIZES:
        _fail(where, "must be one of %s" % ", ".join(sorted(_PAGE_SIZES)))
    return _PAGE_SIZES[token]


def _ints(*keys):
    return {key: (key, _int) for key in keys}


# key -> (dataclass field, parser), one table per section and key=value list
_RUN = {
    "name": ("name", _file_name),
    "scenarios": ("scenarios", _words),
    "iterations": ("iterations", _count),
} | _ints("seed")
_LATENCY = {
    key: (key + "_cycles", _int) for key in ("tlb_hit", "cache_hit", "spm", "memory")
} | _ints("jitter")
_TLB = _ints("entries", "partitions", "lock_slots")
_CACHE = _ints("ways", "icache_sets", "dcache_sets", "line_bytes")
# footprint_* keys go to the fields of the footprint Region
_FOOTPRINT = {"footprint_" + field: (field, _int) for field in ("base", "pages", "stride")}
_HYPERVISOR = {"mask": ("partition_mask", _int), "quantum": ("quantum_cycles", _int)} | _FOOTPRINT
_VM = (
    {"mask": ("partition_mask", _int), "two_stage": ("two_stage", _bool)}
    | {key: (key, _count) for key in ("vmid", "asid")}
    | {key: (key, _str) for key in ("role", "prime", "measure", "loop")}
)
_ROLES = {"measured": ("prime", "measure"), "interference": ("loop",)}
_SCENARIO = {"vms": ("vms", _words)} | _ints("spm_ways", "hyp_mask", "iterations", "seed")
_REGION = {
    "base": ("gvaddr", _int),
    "pages": ("pages", _int),  # times page_size, into the MappedRegion's size
    "flags": ("flags", _flags),
    "page_size": ("page_size", _page_size),
    "backing": ("backing", _str),
    "lock": ("lock", _bool),
}
_SWEEP = {
    "order": ("order", _str),
    "kind": ("kind", _str),
    "compute": ("compute_cycles", _int),
} | _ints("stride", "pages", "repeats")
_LOOP = {
    "touches": ("touches_per_page", _int),
    "kind": ("kind", _str),
    "compute": ("compute_cycles", _int),
} | _ints("stride")


def _read(where, pairs, table, required=()):
    """Parse `pairs` (key -> raw text) through `table` into field -> value
    for the keys present; unknown and missing keys are errors, and a value
    that does not parse is reported at '<where> <key>'."""
    values = {}
    for key, raw in pairs.items():
        if key not in table:
            _fail(where, "unknown key %r (allowed: %s)" % (key, ", ".join(sorted(table))))
        field, parse = table[key]
        values[field] = parse("%s %s" % (where, key), raw)
    for key in required:
        if key not in pairs:
            _fail(where, "missing %r" % key)
    return values


def _kv_items(where, raw, first_is_name=False):
    """Split 'a=1 b=2' (optionally 'name a=1 b=2') into (name, dict)."""
    parts = raw.split()
    name = None
    if first_is_name:
        if not parts or "=" in parts[0]:
            _fail(where, "expected a region name first in %r" % raw)
        name = parts[0]
        parts = parts[1:]
    pairs = {}
    for part in parts:
        if "=" not in part:
            _fail(where, "expected key=value, got %r" % part)
        key, _, value = part.partition("=")
        if key in pairs:
            _fail(where, "duplicate key %r" % key)
        pairs[key] = value
    return name, pairs


@dataclass
class ExperimentConfig:
    """A parsed experiment: run-level identity plus one ScenarioDef per
    selected scenario, in run order."""

    scenario_names: tuple
    scenarios: dict  # name -> ScenarioDef
    text: str  # the raw configuration, hashed into result bundles
    name: str = "experiment"
    seed: int = 1


def _parse_region(where, raw):
    values = _read(where, _kv_items(where, raw)[1], _REGION, required=("base", "pages", "flags"))
    pages = values.pop("pages")
    with _located(where):
        return MappedRegion(size=pages * values.get("page_size", MappedRegion.page_size), **values)


def _region_workload(where, raw, regions, table):
    """(region, field -> value) of one '<rname> key=value ...' item."""
    rname, kv = _kv_items(where, raw, first_is_name=True)
    values = _read(where, kv, table)
    if rname not in regions:
        _fail(where, "unknown region %r" % rname)
    region = regions[rname]
    if region.flags & PTE_X:
        values.setdefault("kind", "ifetch")
    # Each cache decodes only its own scratchpad window.
    fetch = values.get("kind") == "ifetch"
    if region.backing not in ("ram", "ispm" if fetch else "dspm"):
        accesses = "fetches" if fetch else "loads and stores"
        _fail(where, "%s cannot reach region %r on %s" % (accesses, rname, region.backing))
    return region, values


def _parse_sweeps(where, raw, regions):
    sweeps = []
    for item in filter(None, (s.strip() for s in raw.split(";"))):
        region, values = _region_workload(where, item, regions, _SWEEP)
        pages = region.size // SIZE_4K
        if values.setdefault("pages", pages) > pages:
            _fail(where, "pages=%d exceeds its %d-page region" % (values["pages"], pages))
        with _located(where):
            sweeps.append(Region(base=region.gvaddr, **values))
    if not sweeps:
        _fail(where, "needs at least one sweep")
    return tuple(sweeps)


def _parse_loop(where, raw, regions):
    region, values = _region_workload(where, raw, regions, _LOOP)
    with _located(where):
        return InterferenceLoop(base=region.gvaddr, pages=region.size // SIZE_4K, **values)


def _parse_vm(section, options):
    where = "[%s]" % section
    regions = {}
    plain = {}
    for key, raw in options.items():
        if key.startswith("region."):
            regions[key.split(".", 1)[1]] = _parse_region("%s %s" % (where, key), raw)
        else:
            plain[key] = raw
    values = _read(where, plain, _VM, required=("vmid", "asid", "mask", "role"))
    if not regions:
        _fail(where, "needs at least one region.<name>")
    role = values.pop("role")
    if role not in _ROLES:
        _fail(where, "role must be 'measured' or 'interference', got %r" % role)
    wanted = _ROLES[role]
    for key in ("prime", "measure", "loop"):
        if key in values and key not in wanted:
            _fail(where, "%s VMs take %s, not %s" % (role, "/".join(wanted), key))
        if key in wanted and key not in values:
            _fail(where, "%s VM is missing %r" % (role, key))
    parse = _parse_sweeps if role == "measured" else _parse_loop
    lists = {key: parse("%s %s" % (where, key), values.pop(key), regions) for key in wanted}
    with _located(where):
        return VmSpec(
            name=section.split(".", 1)[1],
            regions=tuple(regions.values()),
            workload=Workload(**lists) if role == "measured" else lists["loop"],
            **values,
        )


def _select(defined, names):
    """The scenarios to run, in order: `names`, or every defined one."""
    available = "(defined: %s)" % (", ".join(defined) or "none")
    for i, name in enumerate(names):
        if name not in defined:
            _fail("[scenario.%s]" % name, "not defined %s" % available)
        if name in names[:i]:
            raise ConfigError("scenario %r is selected more than once" % name)
    if not names:
        raise ConfigError("no scenario selected %s" % available)
    return {name: defined[name] for name in names}


def load_experiment(*, text, seed=None, iterations=None, scenarios=None):
    """Parse and validate a configuration's text; returns an ExperimentConfig.

    seed/iterations, when given, override the file's run- and
    scenario-level values; scenarios, when given, replaces [run]
    scenarios and may name any defined scenario.
    """
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str  # keep key case; region names may be case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        # configparser's messages span lines; an error is reported in one.
        message = " ".join(str(exc).splitlines())
        raise ConfigError("configuration does not parse: %s" % message) from None

    sections = {name: dict(cp[name]) for name in cp.sections()}
    for section in sections:
        fixed_section = section in ("run", "latency", "tlb", "cache", "hypervisor")
        if not fixed_section and not section.startswith(("vm.", "scenario.")):
            _fail("[%s]" % section, "unknown section")

    def fixed(name, table):
        return _read("[%s]" % name, sections.get(name, {}), table)

    overrides = {k: v for k, v in (("seed", seed), ("iterations", iterations)) if v is not None}
    # Scenarios inherit the run seed, so its default is read here.
    run = {"seed": ExperimentConfig.seed, **fixed("run", _RUN), **overrides}
    listed = run.pop("scenarios", None)
    inherited = {key: run.pop(key) for key in ("seed", "iterations") if key in run}

    with _located("[latency]"):
        latency = LatencyConfig(**fixed("latency", _LATENCY))
    # One machine for every scenario.  The [tlb] keys are checked against
    # the default cache first, so each rule is reported under its section.
    with _located("[tlb]"):
        machine = MachineConfig(**fixed("tlb", _TLB))
    with _located("[cache]"):
        machine = replace(machine, **fixed("cache", _CACHE))

    hyp_values = fixed("hypervisor", _HYPERVISOR)
    footprint = {f: hyp_values.pop(f) for f, _ in _FOOTPRINT.values() if f in hyp_values}
    hyp = HypervisorConfig()
    with _located("[hypervisor]"):
        hyp = replace(hyp, footprint=replace(hyp.footprint, **footprint), **hyp_values)

    vms = {}
    for section in sections:
        if section.startswith("vm."):
            spec = _parse_vm(section, sections[section])
            vms[spec.name] = spec

    defined = {}
    for section in sections:
        if not section.startswith("scenario."):
            continue
        where = "[%s]" % section
        sname = _file_name(where, section.split(".", 1)[1])
        values = _read(where, sections[section], _SCENARIO, required=("vms",))
        members = []
        for vm_name in values.pop("vms"):
            if vm_name not in vms:
                _fail(where, "unknown vm %r (defined: %s)" % (vm_name, ", ".join(vms)))
            members.append(vms[vm_name])
        s_hyp = hyp
        with _located(where):
            if "hyp_mask" in values:
                s_hyp = replace(hyp, partition_mask=values.pop("hyp_mask"))
            defined[sname] = ScenarioDef(
                name=sname,
                vms=tuple(members),
                hyp=s_hyp,
                latency=latency,
                machine=machine,
                **{**inherited, **values, **overrides},
            )

    if scenarios is None:
        scenarios = defined if listed is None else listed
    chosen = _select(defined, list(scenarios))
    return ExperimentConfig(
        scenario_names=tuple(chosen), scenarios=chosen, text=text, seed=inherited["seed"], **run
    )

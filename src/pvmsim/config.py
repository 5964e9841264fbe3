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

Integers accept 0x-prefixed hex.  A sweep's kind defaults to ifetch for
executable regions and read otherwise.
"""

import configparser
from dataclasses import dataclass, replace

from .hypervisor import HypervisorConfig, MappedRegion, ScenarioDef, VmSpec
from .memsys import LatencyConfig
from .sv39 import PTE_A, PTE_D, PTE_R, PTE_W, PTE_X, SIZE_1G, SIZE_2M, SIZE_4K
from .workload import InterferenceLoop, Region, Workload


class ConfigError(ValueError):
    """A configuration problem, annotated with the offending section/key."""


_PAGE_SIZES = {"4k": SIZE_4K, "2m": SIZE_2M, "1g": SIZE_1G}
_FLAG_LETTERS = {"r": PTE_R, "w": PTE_W, "x": PTE_X}

_RUN_KEYS = {"name", "iterations", "seed", "scenarios"}
_LATENCY_KEYS = {
    "tlb_hit": "tlb_hit_cycles",
    "cache_hit": "cache_hit_cycles",
    "spm": "spm_cycles",
    "memory": "memory_cycles",
    "jitter": "jitter",
}
_TLB_KEYS = {"entries": "tlb_entries", "partitions": "tlb_partitions", "lock_slots": "lock_slots"}
_CACHE_KEYS = {"ways", "icache_sets", "dcache_sets", "line_bytes"}
# [hypervisor] key -> HypervisorConfig field, or field of its footprint Region
_HYP_KEYS = {
    "mask": "partition_mask",
    "quantum": "quantum_cycles",
    "footprint_base": "base",
    "footprint_pages": "pages",
    "footprint_stride": "stride",
}
_FOOTPRINT_FIELDS = ("base", "pages", "stride")
_VM_KEYS = {"vmid", "asid", "mask", "two_stage", "role", "prime", "measure", "loop"}
_SCENARIO_KEYS = {"vms", "spm_ways", "hyp_mask", "iterations", "seed"}
_SWEEP_KEYS = {"order", "stride", "pages", "repeats", "kind", "compute"}
_LOOP_KEYS = {"stride", "touches", "kind", "compute"}
_REGION_KEYS = {"base", "pages", "flags", "page_size", "backing", "lock"}


def _fail(where, message):
    raise ConfigError("%s: %s" % (where, message))


def _int(where, raw):
    try:
        return int(raw, 0)
    except ValueError:
        _fail(where, "expected an integer, got %r" % raw)


def _bool(where, raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    _fail(where, "expected a boolean, got %r" % raw)


def _flags(where, raw):
    value = PTE_A | PTE_D  # accessed/dirty are pre-set; faults on them are unmodeled
    for letter in raw.strip().lower():
        if letter not in _FLAG_LETTERS:
            _fail(where, "unknown permission letter %r (use r/w/x)" % letter)
        value |= _FLAG_LETTERS[letter]
    if not value & (PTE_R | PTE_W | PTE_X):
        _fail(where, "flags need at least one of r/w/x")
    return value


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


def _check_keys(where, pairs, allowed):
    for key in pairs:
        if key not in allowed:
            _fail(where, "unknown key %r (allowed: %s)" % (key, ", ".join(sorted(allowed))))


@dataclass
class ExperimentConfig:
    """A parsed experiment: run-level identity plus one ScenarioDef per
    scenario section, in file order."""

    name: str
    seed: int
    scenario_names: tuple
    scenarios: dict  # name -> ScenarioDef
    text: str  # the raw configuration, hashed into result bundles

    def __post_init__(self):
        seen = set()
        for name in self.scenario_names:
            if name in seen:
                raise ConfigError("scenario %r is selected more than once" % name)
            seen.add(name)

    def select(self, names):
        """Restrict to the given scenario names (order preserved)."""
        for name in names:
            if name not in self.scenarios:
                _fail(
                    "[scenario.%s]" % name,
                    "not defined; available: %s" % ", ".join(self.scenario_names),
                )
        return replace(
            self,
            scenario_names=tuple(names),
            scenarios={n: self.scenarios[n] for n in names},
        )


def _parse_region(where, raw):
    _, kv = _kv_items(where, raw)
    _check_keys(where, kv, _REGION_KEYS)
    for required in ("base", "pages", "flags"):
        if required not in kv:
            _fail(where, "missing %r" % required)
    page_size = SIZE_4K
    if "page_size" in kv:
        token = kv["page_size"].lower()
        if token not in _PAGE_SIZES:
            _fail(where, "page_size must be one of %s" % ", ".join(sorted(_PAGE_SIZES)))
        page_size = _PAGE_SIZES[token]
    try:
        return MappedRegion(
            gvaddr=_int(where, kv["base"]),
            size=_int(where, kv["pages"]) * page_size,
            flags=_flags(where, kv["flags"]),
            page_size=page_size,
            backing=kv.get("backing", "ram"),
            lock=_bool(where, kv["lock"]) if "lock" in kv else False,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(where, str(exc))


def _parse_sweeps(where, raw, regions):
    sweeps = []
    for item in filter(None, (s.strip() for s in raw.split(";"))):
        rname, kv = _kv_items(where, item, first_is_name=True)
        _check_keys(where, kv, _SWEEP_KEYS)
        if rname not in regions:
            _fail(where, "unknown region %r" % rname)
        region = regions[rname]
        kind = kv.get("kind", "ifetch" if region.flags & PTE_X else "read")
        try:
            sweeps.append(
                Region(
                    base=region.gvaddr,
                    pages=_int(where, kv["pages"]) if "pages" in kv else region.size // SIZE_4K,
                    stride=_int(where, kv["stride"]) if "stride" in kv else 512,
                    order=kv.get("order", "forward"),
                    repeats=_int(where, kv["repeats"]) if "repeats" in kv else 1,
                    kind=kind,
                    compute_cycles=_int(where, kv["compute"]) if "compute" in kv else 0,
                )
            )
        except ConfigError:
            raise
        except ValueError as exc:
            _fail(where, str(exc))
    if not sweeps:
        _fail(where, "needs at least one sweep")
    return tuple(sweeps)


def _parse_loop(where, raw, regions):
    rname, kv = _kv_items(where, raw, first_is_name=True)
    _check_keys(where, kv, _LOOP_KEYS)
    if rname not in regions:
        _fail(where, "unknown region %r" % rname)
    region = regions[rname]
    kind = kv.get("kind", "ifetch" if region.flags & PTE_X else "read")
    try:
        return InterferenceLoop(
            base=region.gvaddr,
            pages=region.size // SIZE_4K,
            stride=_int(where, kv["stride"]) if "stride" in kv else 64,
            touches_per_page=_int(where, kv["touches"]) if "touches" in kv else 8,
            kind=kind,
            compute_cycles=_int(where, kv["compute"]) if "compute" in kv else 0,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(where, str(exc))


def _parse_vm(section, options):
    where = "[%s]" % section
    name = section.split(".", 1)[1]
    regions = {}
    plain = {}
    for key, raw in options.items():
        if key.startswith("region."):
            rname = key.split(".", 1)[1]
            regions[rname] = _parse_region("%s %s" % (where, key), raw)
        elif key in _VM_KEYS:
            plain[key] = raw
        else:
            _fail(where, "unknown key %r" % key)
    for required in ("vmid", "asid", "mask", "role"):
        if required not in plain:
            _fail(where, "missing %r" % required)
    if not regions:
        _fail(where, "needs at least one region.<name>")
    role = plain["role"]
    if role == "measured":
        if "loop" in plain:
            _fail(where, "a measured VM takes prime/measure, not loop")
        for required in ("prime", "measure"):
            if required not in plain:
                _fail(where, "measured VM is missing %r" % required)
        workload = Workload(
            prime=_parse_sweeps("%s prime" % where, plain["prime"], regions),
            measure=_parse_sweeps("%s measure" % where, plain["measure"], regions),
        )
    elif role == "interference":
        if "prime" in plain or "measure" in plain:
            _fail(where, "an interference VM takes loop, not prime/measure")
        if "loop" not in plain:
            _fail(where, "interference VM is missing 'loop'")
        workload = _parse_loop("%s loop" % where, plain["loop"], regions)
    else:
        _fail(where, "role must be 'measured' or 'interference', got %r" % role)
    try:
        return VmSpec(
            name=name,
            vmid=_int(where, plain["vmid"]),
            asid=_int(where, plain["asid"]),
            partition_mask=_int(where, plain["mask"]),
            regions=tuple(regions.values()),
            workload=workload,
            two_stage=_bool(where, plain["two_stage"]) if "two_stage" in plain else True,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(where, str(exc))


def _mapped_section(cp, name, mapping_or_keys):
    """Read one optional section of scalar ints with key checking."""
    out = {}
    if not cp.has_section(name):
        return out
    where = "[%s]" % name
    options = cp[name]
    keys = mapping_or_keys if isinstance(mapping_or_keys, dict) else None
    allowed = set(mapping_or_keys)
    _check_keys(where, options, allowed)
    for key, raw in options.items():
        out[keys[key] if keys else key] = _int("%s %s" % (where, key), raw)
    return out


def load_experiment(path=None, *, text=None, seed=None, iterations=None):
    """Parse and validate a configuration; returns an ExperimentConfig.

    seed/iterations, when given, override the file's run-level values
    (scenario-level overrides in the file still win for iterations of a
    specific scenario unless the CLI override is present).
    """
    if text is None:
        if path is None:
            raise ValueError("need a path or text")
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str  # keep key case; region names may be case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("configuration does not parse: %s" % exc) from None

    vm_sections = []
    scenario_sections = []
    for section in cp.sections():
        if section in ("run", "latency", "tlb", "cache", "hypervisor"):
            continue
        if section.startswith("vm."):
            vm_sections.append(section)
        elif section.startswith("scenario."):
            scenario_sections.append(section)
        else:
            _fail("[%s]" % section, "unknown section")

    run = dict(cp["run"]) if cp.has_section("run") else {}
    _check_keys("[run]", run, _RUN_KEYS)
    name = run.get("name", "experiment")
    run_seed = seed if seed is not None else _int("[run] seed", run.get("seed", "1"))
    run_iters = (
        iterations if iterations is not None else _int("[run] iterations", run.get("iterations", "10000"))
    )

    try:
        latency = LatencyConfig(**_mapped_section(cp, "latency", _LATENCY_KEYS)).validate()
    except ValueError as exc:
        _fail("[latency]", str(exc))
    machine = _mapped_section(cp, "tlb", _TLB_KEYS)
    machine.update(_mapped_section(cp, "cache", _CACHE_KEYS))

    # Only the keys present override HypervisorConfig's own defaults.
    hyp_raw = _mapped_section(cp, "hypervisor", _HYP_KEYS)
    footprint = {key: hyp_raw.pop(key) for key in _FOOTPRINT_FIELDS if key in hyp_raw}
    hyp = HypervisorConfig()
    try:
        hyp = replace(hyp, footprint=(replace(hyp.footprint[0], **footprint),), **hyp_raw)
    except ValueError as exc:
        _fail("[hypervisor]", str(exc))

    vms = {}
    for section in vm_sections:
        spec = _parse_vm(section, dict(cp[section]))
        vms[spec.name] = spec

    scenarios = {}
    order = []
    for section in scenario_sections:
        where = "[%s]" % section
        sname = section.split(".", 1)[1]
        options = dict(cp[section])
        _check_keys(where, options, _SCENARIO_KEYS)
        if "vms" not in options:
            _fail(where, "missing 'vms'")
        members = []
        for vm_name in options["vms"].split():
            if vm_name not in vms:
                _fail(where, "unknown vm %r (defined: %s)" % (vm_name, ", ".join(vms)))
            members.append(vms[vm_name])
        s_iters = run_iters
        if iterations is None and "iterations" in options:
            s_iters = _int("%s iterations" % where, options["iterations"])
        s_seed = run_seed
        if seed is None and "seed" in options:
            s_seed = _int("%s seed" % where, options["seed"])
        s_hyp = hyp
        try:
            if "hyp_mask" in options:
                s_hyp = replace(hyp, partition_mask=_int(where, options["hyp_mask"]))
            defn = ScenarioDef(
                name=sname,
                vms=tuple(members),
                hyp=s_hyp,
                latency=latency,
                iterations=s_iters,
                seed=s_seed,
                spm_ways=_int(where, options["spm_ways"]) if "spm_ways" in options else 0,
                **machine,
            )
        except ConfigError:
            raise
        except ValueError as exc:
            _fail(where, str(exc))
        scenarios[sname] = defn
        order.append(sname)

    if "scenarios" in run:
        chosen = run["scenarios"].split()
        for sname in chosen:
            if sname not in scenarios:
                _fail("[run] scenarios", "unknown scenario %r" % sname)
        order = chosen

    return ExperimentConfig(
        name=name,
        seed=run_seed,
        scenario_names=tuple(order),
        scenarios={n: scenarios[n] for n in order},
        text=text,
    )

"""Metamorphic relations: input changes that must leave every record as it
was.

The golden files pin what the code did when they were pinned; they cannot
catch a defect that was already there.  Each relation below rewrites the
text of every preset and of WRITES_TEXT, runs both texts at a few
iterations and compares the CSV bytes of every scenario the relation
covers:

- every `vmid` and `asid` plus 5: no record depends on an id's value;
- the measured VMs' ids swapped with the interference VMs';
- the last and the second scenario of the ladder run alone, in that
  order (`partlock` then `unmitigated` on synthetic-nospm), against the
  full ladder: a scenario's records depend on its own definition only,
  not on which scenarios run beside it or before it;
- the partition masks' halves swapped, bit i with bit i ^ 8 in every
  `mask` and `hyp_mask`: an automorphism of the 16-leaf PLRU tree, so it
  moves no record of a scenario without lock slots.  A lock slot j pins
  TLB leaf j whatever the masks say, so a scenario with locks may move:
  the swapped synthetic-nospm `partlock` does (pinned below), because
  its locks then take leaves 0-7 from the interference VM and the
  hypervisor rather than from the measured VM's own partitions.
"""

import functools
import re

import pytest

from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import render_csv, run_experiment
from test_golden import WRITES_TEXT

ITERATIONS = 10
TEXTS = preset_names() + ["writes"]


def config_text(name):
    return WRITES_TEXT if name == "writes" else preset_text(name)


def csvs(text, scenarios=None):
    """{scenario: CSV text} of a serial run of `text` at ITERATIONS."""
    cfg = load_experiment(text=text, seed=1, iterations=ITERATIONS, scenarios=scenarios)
    results = run_experiment(cfg)
    return {name: render_csv(results[name]) for name in cfg.scenario_names}


@functools.lru_cache(maxsize=None)
def shipped(name):
    """csvs() of config `name` as shipped, run once per test session."""
    return csvs(config_text(name))


def sections(text):
    """`text` cut before every section header: the first piece holds what
    precedes the first header."""
    return re.split(r"(?m)^(?=\[)", text)


def ids_plus_5(text):
    return re.sub(r"(?m)^(vmid|asid) = (\d+)$",
                  lambda m: "%s = %d" % (m[1], int(m[2]) + 5), text)


def swap_role_ids(text):
    """Every measured VM takes the interference VMs' (vmid, asid) and each
    interference VM the measured VMs'; each role has one pair of ids."""
    pieces = sections(text)
    role_ids = {}
    for piece in pieces:
        role = re.search(r"(?m)^role = (\w+)$", piece)
        if role:
            ids = tuple(re.findall(r"(?m)^(?:vmid|asid) = (\d+)$", piece))
            role_ids.setdefault(role[1], set()).add(ids)
    (measured,), (interference,) = role_ids["measured"], role_ids["interference"]
    assert measured != interference
    swapped = {"measured": interference, "interference": measured}
    out = []
    for piece in pieces:
        role = re.search(r"(?m)^role = (\w+)$", piece)
        if role:
            vmid, asid = swapped[role[1]]
            piece = re.sub(r"(?m)^vmid = \d+$", "vmid = " + vmid, piece)
            piece = re.sub(r"(?m)^asid = \d+$", "asid = " + asid, piece)
        out.append(piece)
    return "".join(out)


def swap_mask_halves(text):
    """Bit i of every `mask` and `hyp_mask` swapped with bit i ^ 8."""
    def swap(m):
        value = int(m[2], 16)
        return "%s = 0x%04x" % (m[1], (value & 0xFF) << 8 | value >> 8)
    return re.sub(r"(?m)^(mask|hyp_mask) = (0x[0-9a-fA-F]+)$", swap, text)


def lock_free(text):
    """The names of the scenarios of `text` whose VMs lock no region."""
    cfg = load_experiment(text=text, seed=1, iterations=ITERATIONS)
    return [name for name in cfg.scenario_names
            if not any(region.lock for vm in cfg.scenarios[name].vms for region in vm.regions)]


@pytest.mark.parametrize("name", TEXTS)
@pytest.mark.parametrize("relation", [ids_plus_5, swap_role_ids])
def test_ids_move_no_record(name, relation):
    text = config_text(name)
    changed = relation(text)
    assert changed != text
    assert csvs(changed) == shipped(name)


@pytest.mark.parametrize("name", TEXTS)
def test_a_scenario_run_alone_keeps_its_records(name):
    full = shipped(name)
    names = list(full)
    alone = [names[-1], names[1]]
    assert csvs(config_text(name), alone) == {n: full[n] for n in alone}


@pytest.mark.parametrize("name", TEXTS)
def test_swapped_mask_halves_move_no_lock_free_record(name):
    text = config_text(name)
    changed = swap_mask_halves(text)
    assert changed != text
    defns = load_experiment(text=text).scenarios.values()
    assert {defn.machine.partitions for defn in defns} == {16}  # so i ^ 8 is the other half
    free = lock_free(text)
    assert free
    got = csvs(changed, free)
    assert got == {n: shipped(name)[n] for n in free}


def test_swapped_mask_halves_move_locked_partlock():
    """The swapped synthetic-nospm partlock's locks take TLB leaves 0-7
    from the interference VM and the hypervisor: its records move."""
    text = swap_mask_halves(preset_text("synthetic-nospm"))
    assert "partlock" not in lock_free(text)
    assert csvs(text, ["partlock"])["partlock"] != shipped("synthetic-nospm")["partlock"]

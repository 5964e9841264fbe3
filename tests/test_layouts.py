"""Scenarios of one layout share their address spaces and remembered walks.

Within one harness.run_experiment call, build_plan gives every scenario
whose layout (hypervisor._layout_key) was already built the spaces built
for it, and every machine over a shared space walks each leaf once per
(asid, vmid, D-cache shape), a superpage translation once for all its
pages: the walks are remembered beside the guest space, not on the
machine (memsys module docstring).  These tests hold
the shared plans to plans built alone, the sharing to the key, a reused
layout to no frame taken and no page mapped, the remembered walks to the
tables they were walked from, and both to one experiment: nothing
carries over from one call to the next, or into an unpickled plan.
"""

import math
import pickle
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from pvmsim import harness, hypervisor, memsys
from pvmsim.cache import Memory
from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import _layout_key, build_plan, run_range
from pvmsim.memsys import LatencyConfig, MachineConfig, MemorySystem, write_value
from pvmsim.sv39 import PTE_A, PTE_D, PTE_R, PTE_V, PTE_W, PTE_X, SIZE_2M, SIZE_4K, make_pte
from pvmsim.walker import AddressSpace, walk_single, walk_two_stage
from pvmsim.workload import Workload

from test_golden import WRITES_TEXT
from test_pipeline_oracle import RW, build_vms, make_system

TEXTS = {name: preset_text(name) for name in preset_names()} | {"writes": WRITES_TEXT}
LAYOUTS = {"synthetic-nospm": 2, "powerwindow-like": 3, "synthetic-spm": 3}


def experiment(name, iterations=4, seed=12):
    return load_experiment(text=TEXTS[name], seed=seed, iterations=iterations)


@pytest.fixture
def walks(monkeypatch):
    """A one-item list counting the walker calls memsys makes."""
    count = [0]
    for name in ("walk_single", "walk_two_stage"):
        real = getattr(memsys, name)

        def counted(*args, real=real):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(memsys, name, counted)
    return count


@pytest.fixture
def placed(monkeypatch):
    """A Counter of the _Allocator.take and AddressSpace.map_page calls
    made, by method name."""
    calls = Counter()
    for cls, name in ((hypervisor._Allocator, "take"), (AddressSpace, "map_page")):
        real = getattr(cls, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def contexts(plan):
    return (plan.measured, *plan.interference, plan.hyp_context)


def spaces(plan):
    return {id(space) for ctx in contexts(plan) for space in (ctx.guest_space, ctx.host_space)
            if space is not None}


def space_view(space):
    if space is None:
        return None
    return space.root_ppn, space.gpa_space, space.version, space.tables


def plan_view(plan):
    """Everything build_plan decides: each context's identity, workload and
    tables (so its frames), the lock chunks, and the random-order flags."""
    return (
        [
            (ctx.name, ctx.vmid, ctx.asid, ctx.partition_mask, id(ctx.workload),
             space_view(ctx.guest_space), space_view(ctx.host_space))
            for ctx in contexts(plan)
        ],
        {side: [(ctx.name, chunk) for ctx, chunk in chunks]
         for side, chunks in plan.lock_chunks.items()},
        plan.random_prime,
        plan.random_order,
    )


def build_shared(defns):
    layouts = {}
    return {name: build_plan(defn, layouts) for name, defn in defns.items()}


# -- the layout ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_shared_plans_equal_plans_built_alone(name):
    cfg = experiment(name)
    shared = build_shared(cfg.scenarios)
    for scenario, plan in shared.items():
        alone = build_plan(cfg.scenarios[scenario])
        assert plan_view(plan) == plan_view(alone), scenario
        own = [ctx for chunks in plan.lock_chunks.values() for ctx, _ in chunks]
        assert all(any(ctx is mine for mine in contexts(plan)) for ctx in own)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_a_built_layout_is_planned_on_without_placing_or_mapping(name, placed):
    """Within one layouts dict, only the first plan of a layout takes a
    frame or maps a page; every later one plans on what it built and
    still equals a plan built alone."""
    cfg = experiment(name)
    layouts = {}
    reused = 0
    for scenario, defn in cfg.scenarios.items():
        known = _layout_key(defn) in layouts
        placed.clear()
        plan = build_plan(defn, layouts)
        if known:
            reused += 1
            assert not placed, scenario
        else:
            assert placed["take"] and placed["map_page"], scenario
        assert plan_view(plan) == plan_view(build_plan(defn)), scenario
    assert reused == len(cfg.scenarios) - len(layouts)
    if name in LAYOUTS:
        assert reused > 0


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_plans_share_spaces_exactly_when_their_keys_match(name):
    cfg = experiment(name)
    shared = build_shared(cfg.scenarios)
    keys = {scenario: _layout_key(cfg.scenarios[scenario]) for scenario in shared}
    for a, plan_a in shared.items():
        for b, plan_b in shared.items():
            if keys[a] == keys[b]:
                assert spaces(plan_a) == spaces(plan_b), (a, b)
            else:
                assert not spaces(plan_a) & spaces(plan_b), (a, b)
    if name in LAYOUTS:
        assert (len(set(keys.values())), len(keys)) == (LAYOUTS[name], len(cfg.scenario_names))


def with_measured(defn, change):
    return replace(defn, vms=tuple(
        change(vm) if isinstance(vm.workload, Workload) else vm for vm in defn.vms
    ))


def with_region(defn, test, change):
    """defn with the first region of its measured VM that passes `test`
    replaced by change(region)."""
    def edit(vm):
        index = next(i for i, r in enumerate(vm.regions) if test(r))
        regions = list(vm.regions)
        regions[index] = change(regions[index])
        return replace(vm, regions=tuple(regions))
    return with_measured(defn, edit)


def every(region):
    return True


NEW_LAYOUTS = {
    "flags": ("synthetic-spm", "unmitigated",
              lambda d: with_region(d, every, lambda r: replace(r, flags=r.flags & ~PTE_W))),
    "backing": ("synthetic-spm", "spm",
                lambda d: with_region(d, every, lambda r: replace(r, backing="ram"))),
    "page size": ("powerwindow-like", "unmitigated",
                  lambda d: with_region(d, lambda r: r.page_size == SIZE_2M,
                                        lambda r: replace(r, page_size=SIZE_4K))),
    "vm order": ("synthetic-spm", "unmitigated", lambda d: replace(d, vms=d.vms[::-1])),
    "spm_ways": ("synthetic-spm", "unmitigated", lambda d: replace(d, spm_ways=4)),
}

SAME_LAYOUT = {
    "lock": lambda d: with_region(d, every, lambda r: replace(r, lock=not r.lock)),
    "names, ids and masks": lambda d: replace(d, name="other", vms=tuple(
        replace(vm, name=vm.name + "2", vmid=vm.vmid + 5, asid=vm.asid + 7, partition_mask=1)
        for vm in d.vms
    )),
    "workload": lambda d: with_measured(d, lambda vm: replace(
        vm, workload=replace(vm.workload, prime=vm.workload.measure)
    )),
}


@pytest.mark.parametrize("what", sorted(NEW_LAYOUTS))
def test_a_change_to_the_layout_gets_spaces_of_its_own(what):
    name, scenario, change = NEW_LAYOUTS[what]
    base = experiment(name).scenarios[scenario]
    changed = change(base)
    assert _layout_key(changed) != _layout_key(base)
    layouts = {}
    first = build_plan(base, layouts)
    second = build_plan(changed, layouts)
    assert not spaces(first) & spaces(second)
    assert len(layouts) == 2
    assert plan_view(second) == plan_view(build_plan(changed))


@pytest.mark.parametrize("what", sorted(SAME_LAYOUT))
def test_locks_ids_masks_and_workloads_keep_the_layout(what):
    base = experiment("synthetic-spm").scenarios["spm"]
    changed = SAME_LAYOUT[what](base)
    assert _layout_key(changed) == _layout_key(base)
    layouts = {}
    first = build_plan(base, layouts)
    second = build_plan(changed, layouts)
    assert spaces(first) == spaces(second)
    assert len(layouts) == 1
    assert plan_view(second) == plan_view(build_plan(changed))


# -- one experiment's scope ---------------------------------------------------------


def test_back_to_back_experiments_build_their_own_spaces_and_walk_alike(walks, monkeypatch):
    """Each run_experiment call walks at most once per (layout, ids, page),
    which a walk per plan would exceed, and as often as the call before it,
    whose plans are kept alive meanwhile."""
    cfg = experiment("synthetic-nospm", iterations=20)
    calls = []  # per call: (its plans, {(layout, asid, vmid, page)}, {(plan, asid, vmid, page)})
    build, refill = hypervisor.build_plan, memsys.MemorySystem._refill

    def building(defn, *layouts):
        plan = build(defn, *layouts)
        calls[-1][0].append(plan)
        return plan

    def refilling(self, tlb, vm, vaddr, pages):
        plans, touched, per_plan = calls[-1]
        plan = next(p for p in plans if any(vm is ctx for ctx in contexts(p)))
        touched.add((_layout_key(plan.defn), vm.asid, vm.vmid, vaddr >> 12))
        per_plan.add((id(plan), vm.asid, vm.vmid, vaddr >> 12))
        return refill(self, tlb, vm, vaddr, pages)

    monkeypatch.setattr(hypervisor, "build_plan", building)
    monkeypatch.setattr(memsys.MemorySystem, "_refill", refilling)
    counts = []
    for _ in range(2):
        calls.append(([], set(), set()))
        walks[0] = 0
        harness.run_experiment(cfg, workers=1)
        plans, touched, per_plan = calls[-1]
        assert len(plans) == len(cfg.scenario_names)
        assert 0 < walks[0] <= len(touched) < len(per_plan)
        counts.append(walks[0])
    assert counts[0] == counts[1]
    first, second = (set().union(*map(spaces, plans)) for plans, _, _ in calls)
    assert first and second and not first & second


# -- remembered walks over one space -----------------------------------------------------

TABLE_BASE = 0x0100_0000
DATA_BASE = 0x8000_0000
VBASE = 0x40_0000
SUPER = 0x4000_0000  # a 2 MiB leaf of build_vms' VMs a and c
RWX = PTE_R | PTE_W | PTE_X | PTE_A | PTE_D


def machine(**shape):
    return MemorySystem(
        MachineConfig(**shape),
        Memory([(TABLE_BASE, 1 << 20), (DATA_BASE, 1 << 20)]),
        LatencyConfig(),
        ispm_base=0x2000_0000,
        dspm_base=0x1000_0000,
    )


def vm_over(space, asid=1, vmid=1):
    return SimpleNamespace(asid=asid, vmid=vmid, guest_space=space, host_space=None)


def single_stage_space():
    space = AddressSpace(root_ppn=TABLE_BASE >> 12)
    for k in range(4):
        space.map_page(VBASE + k * SIZE_4K, DATA_BASE + k * SIZE_4K, SIZE_4K, RWX)
    return space


def leaf(space, vaddr):
    """(table page, index) of vaddr's 4 KiB leaf PTE."""
    table = space.root_ppn
    for shift in (30, 21):
        table = space.tables[table][vaddr >> shift & 0x1FF] >> 10
    return table, vaddr >> 12 & 0x1FF


def test_two_machines_over_one_space_walk_a_page_once(walks):
    vm = vm_over(single_stage_space())
    a, b = machine(), machine()
    first = a.virtual_access(VBASE, "read", vm)
    second = b.virtual_access(VBASE + 8, "read", vm)
    assert walks[0] == 1
    assert (first.walk_fetches, second.walk_fetches) == (3, 3)
    assert second.walk_cycles == first.walk_cycles  # priced by b's own cold D-cache
    assert b.run_loop(vm, "read", (VBASE + SIZE_4K,), 0, float("inf")) > 0
    assert a.virtual_access(VBASE + SIZE_4K, "read", vm).walk_fetches == 3
    assert walks[0] == 2


def remap(space):
    """Point VBASE's leaf at a new frame; returns the new page's base."""
    table, index = leaf(space, VBASE)
    space.set_pte(table, index, make_pte((DATA_BASE >> 12) + 9, RWX | PTE_V))
    return DATA_BASE + 9 * SIZE_4K


def map_another(space):
    """Map one more page; VBASE's translation stays."""
    space.map_page(VBASE + 8 * SIZE_4K, DATA_BASE + 8 * SIZE_4K, SIZE_4K, RWX)
    return DATA_BASE


@pytest.mark.parametrize("change", (remap, map_another))
def test_a_table_change_makes_both_machines_walk_again(walks, change):
    space = single_stage_space()
    vm = vm_over(space)
    a, b = machine(), machine()
    blank_a = a.snapshot()
    assert a.virtual_access(VBASE, "read", vm).paddr == DATA_BASE
    assert b.virtual_access(VBASE, "read", vm).walk_fetches == 3
    assert walks[0] == 1
    frame = change(space)
    assert b.virtual_access(VBASE + SIZE_4K, "read", vm).walk_fetches == 3  # a miss after the change
    assert walks[0] == 2
    c = machine()
    assert c.virtual_access(VBASE, "read", vm).paddr == frame
    assert walks[0] == 3  # the remembered walk was forgotten for every machine
    a.restore(blank_a, None)
    assert a.virtual_access(VBASE, "read", vm).paddr == frame
    assert walks[0] == 3  # and the new one is shared again


def spaces_of(vm):
    return (vm.guest_space,) if vm.host_space is None else (vm.guest_space, vm.host_space)


@pytest.mark.parametrize("vm_index", (0, 2), ids=("single-stage", "two-stage"))
def test_a_superpage_leaf_is_walked_once_for_all_its_pages(walks, vm_index):
    """VM a maps 0x4000_0000 with a 2 MiB leaf, VM c with 2 MiB at both
    stages: after one page of the span is walked, another page refills on
    a fresh machine with no walker call, its address taken from the
    remembered entry, through virtual_access and through run_loop."""
    vm = build_vms()[0][vm_index]
    walk = walk_two_stage if vm.host_space else walk_single
    first = make_system(7, 0).virtual_access(SUPER, "read", vm)
    assert walks[0] == 1 and first.walk_fetches > 0
    for page in (1, 5):
        vaddr = SUPER + page * SIZE_4K + 24
        other = make_system(7, 0)
        out = other.virtual_access(vaddr, "read", vm)
        assert not out.tlb_hit and out.walk_fetches == first.walk_fetches
        assert out.paddr == walk(*spaces_of(vm), vaddr).paddr
        looped = make_system(7, 0)
        looped.run_loop(vm, "write", (vaddr,), 0, math.inf)
        assert looped.memory._words[out.paddr & -8] == write_value(vaddr)
        assert looped.dtlb.misses == 1
    assert walks[0] == 1


def test_a_superpage_guest_leaf_over_base_host_pages_is_walked_per_page(walks):
    """A 2 MiB guest leaf whose guest-physical span the host maps with 4 KiB
    pages merges to 4 KiB entries, so each of its pages is walked once."""
    vm = build_vms()[0][2]
    vm.guest_space.map_page(0xC0_0000, 0x60_0000, SIZE_2M, RW)  # host: 4 KiB pages
    for page in (0, 1, 0, 1):
        vaddr = 0xC0_0000 + page * SIZE_4K
        out = make_system(7, 0).virtual_access(vaddr, "read", vm)
        assert out.paddr == walk_two_stage(vm.guest_space, vm.host_space, vaddr).paddr
    assert walks[0] == 2


@pytest.mark.parametrize("other", (
    {"shape": {"dcache_sets": 128}},
    {"shape": {"line_bytes": 32}},
    {"ids": {"asid": 2}},
    {"ids": {"vmid": 2}},
))
def test_another_d_cache_shape_or_id_never_reuses_a_walk(walks, other):
    space = single_stage_space()
    machine().virtual_access(VBASE, "read", vm_over(space))
    machine().virtual_access(VBASE, "read", vm_over(space))
    assert walks[0] == 1
    out = machine(**other.get("shape", {})).virtual_access(
        VBASE, "read", vm_over(space, **other.get("ids", {}))
    )
    assert walks[0] == 2 and out.paddr == DATA_BASE


def test_an_unpickled_plan_remembers_no_walk_and_gives_the_serial_records(walks):
    defns = experiment("synthetic-nospm", iterations=6).scenarios
    layouts = {}
    parent = build_plan(defns["unmitigated"], layouts)
    shipped = build_plan(defns["locking"], layouts)
    assert spaces(parent) == spaces(shipped)
    run_range(parent, 0, 6)
    before = walks[0]
    copy = pickle.loads(pickle.dumps(shipped))
    assert not spaces(copy) & spaces(shipped)
    records = run_range(copy, 0, 6)
    cold = walks[0] - before
    alone = build_plan(defns["locking"])
    before = walks[0]
    assert records == run_range(alone, 0, 6)
    assert cold == walks[0] - before > 0

"""Walker tests: single-stage radix walks, nested two-stage walks, fetch
accounting, fault classification, and the table builder."""

import copy
import random
from types import SimpleNamespace

import pytest

from pvmsim.cache import Memory
from pvmsim.memsys import LatencyConfig, MemorySystem
from pvmsim.sv39 import (
    PTE_A,
    PTE_D,
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
    SIZE_1G,
    SIZE_2M,
    SIZE_4K,
    make_pte,
)
from pvmsim.walker import AddressSpace, walk_single, walk_two_stage

from oracles import (
    analytic_two_stage_count,
    radix_translate_ref,
    two_stage_count_ref,
)

RW = PTE_R | PTE_W | PTE_A | PTE_D
RWX = RW | PTE_X


# -- single stage ----------------------------------------------------------------

def test_4k_walk_costs_three_fetches():
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x8000_0000, 0x4000_0000, SIZE_4K, RW)
    res = walk_single(space, 0x8000_0123)
    assert res.ok
    # Root to leaf: the builder allocated the lower tables right after the root.
    assert [addr >> 12 for addr in res.accesses] == [0x100, 0x101, 0x102]
    assert res.paddr == 0x4000_0123
    assert res.page_size == SIZE_4K


def test_giga_leaf_costs_one_fetch():
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x4000_0000, 0x8000_0000, SIZE_1G, RWX)
    res = walk_single(space, 0x4000_0000 + 12345)
    assert res.ok and len(res.accesses) == 1
    assert res.page_size == SIZE_1G
    assert res.paddr == 0x8000_0000 + 12345


def test_mega_leaf_costs_two_fetches():
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x8020_0000, 0x4020_0000, SIZE_2M, RW)
    res = walk_single(space, 0x8020_0000 + 0x1FFFFF)
    assert res.ok and len(res.accesses) == 2
    assert res.paddr == 0x4020_0000 + 0x1FFFFF


def test_unmapped_walk_faults_with_partial_trace():
    space = AddressSpace(root_ppn=0x100)
    res = walk_single(space, 0x8000_0000)
    assert res.fault == "invalid" and res.fault_stage is None
    assert len(res.accesses) == 1  # root fetch happened before the fault


def test_misaligned_superpage_faults():
    space = AddressSpace(root_ppn=0x100)
    # Hand-build a 2M leaf whose PPN is not 512-page aligned.
    space.add_table(0x101)
    space.set_pte(0x100, 2, make_pte(0x101, PTE_V))
    space.set_pte(0x101, 0, make_pte(0x40001, PTE_V | RW))
    res = walk_single(space, 2 << 30)
    assert res.fault == "misaligned"
    assert len(res.accesses) == 2


def test_every_table_mutation_bumps_the_version():
    space = AddressSpace(root_ppn=0x100)
    versions = [space.version]
    space.map_page(0x40_0000, 0x8000_0000, SIZE_4K, RW)
    versions.append(space.version)
    space.map_page(0x40_1000, 0x8000_1000, SIZE_4K, RW)  # into existing tables
    versions.append(space.version)
    space.add_table(0x200)
    versions.append(space.version)
    space.set_pte(0x200, 0, make_pte(0x201, PTE_V | RW))
    versions.append(space.version)
    walk_single(space, 0x40_0000)  # reads change nothing
    versions.append(space.version)
    assert versions[:5] == sorted(set(versions[:5])) and versions[5] == versions[4]


def test_depth_exhaustion_faults():
    space = AddressSpace(root_ppn=0x100)
    space.add_table(0x101)
    space.add_table(0x102)
    space.add_table(0x103)
    space.set_pte(0x100, 0, make_pte(0x101, PTE_V))
    space.set_pte(0x101, 0, make_pte(0x102, PTE_V))
    space.set_pte(0x102, 0, make_pte(0x103, PTE_V))  # level-0 pointer: invalid
    res = walk_single(space, 0)
    assert res.fault == "no-leaf" and len(res.accesses) == 3


def test_non_canonical_vaddr_is_a_usage_error():
    space = AddressSpace(root_ppn=0x100)
    with pytest.raises(ValueError):
        walk_single(space, 1 << 38)


def test_latency_additivity_with_variable_costs():
    # The memory system prices a walk as the sum of its fetches' D-cache
    # prices, in order: here only the middle-level PTE line is warm.
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x8000_0000, 0x4000_0000, SIZE_4K, RW)
    sys_ = MemorySystem.build(
        memory=Memory([(0x100 << 12, 3 * SIZE_4K), (0x4000_0000, SIZE_4K)]),
        latency=LatencyConfig(cache_hit_cycles=7, memory_cycles=41),
    )
    sys_.dcache.access(walk_single(space, 0x8000_0000).accesses[1], "read")
    vm = SimpleNamespace(asid=1, vmid=0, guest_space=space, host_space=None)
    out = sys_.virtual_access(0x8000_0000, "read", vm)
    assert out.walk_fetches == 3 and out.walk_cycles == 41 + 7 + 41


def test_walks_never_mutate_tables():
    space = AddressSpace(root_ppn=0x100)
    space.map_region(0x8000_0000, 0x4000_0000, 16 * SIZE_4K, RW)
    before = copy.deepcopy(space.tables)
    walk_single(space, 0x8000_2000)
    walk_single(space, 0x9000_0000)  # faulting walk
    assert space.tables == before


def test_random_pages_match_direct_evaluation():
    rng = random.Random(97)
    space = AddressSpace(root_ppn=0x100)
    mapped = []
    for _ in range(1000):
        vpage = rng.randrange(1 << 26) << 12  # keep bit 38 clear: canonical
        ppage = rng.randrange(1 << 20) << 12
        try:
            space.map_page(vpage, ppage, SIZE_4K, RW)
        except ValueError:
            continue  # rare duplicate vpage draw
        mapped.append(vpage)
    assert len(mapped) > 900
    for vpage in mapped:
        addr = vpage + rng.randrange(SIZE_4K)
        res = walk_single(space, addr)
        status, paddr, level, pte = radix_translate_ref(space.tables, space.root_ppn, addr)
        assert status == "ok"
        assert res.ok and res.paddr == paddr and res.pte == pte
        assert len(res.accesses) == 3 - level


# -- builder guards -----------------------------------------------------------------

def test_builder_rejects_misaligned_and_double_maps():
    space = AddressSpace(root_ppn=0x100)
    with pytest.raises(ValueError):
        space.map_page(0x8000_0800, 0x4000_0000, SIZE_4K, RW)
    with pytest.raises(ValueError):
        space.map_page(0x8000_0000, 0x4000_0800, SIZE_4K, RW)
    space.map_page(0x8000_0000, 0x4000_0000, SIZE_4K, RW)
    with pytest.raises(ValueError):
        space.map_page(0x8000_0000, 0x5000_0000, SIZE_4K, RW)
    space.map_page(0x4000_0000, 0x8000_0000, SIZE_1G, RWX)
    with pytest.raises(ValueError):
        space.map_page(0x4000_0000 + SIZE_2M, 0x0, SIZE_4K, RW)  # under a superpage


def test_builder_table_allocation_is_deterministic():
    def build():
        space = AddressSpace(root_ppn=0x100, table_alloc_ppn=0x200)
        space.map_region(0x8000_0000, 0x4000_0000, 4 * SIZE_4K, RW)
        space.map_page(0x1_0000_0000, 0xC000_0000, SIZE_2M, RW)
        return space

    a, b = build(), build()
    assert a.table_ppns() == b.table_ppns()
    assert a.tables == b.tables
    assert a.table_ppns()[0] == 0x100 and all(p >= 0x200 for p in a.table_ppns()[1:])


# -- two-stage -------------------------------------------------------------------------

def nested_setup(guest_size=SIZE_4K, host_size=SIZE_4K):
    """Guest maps one region at `guest_size`; host maps all guest-physical
    space it needs (tables + data) at `host_size` granularity."""
    guest = AddressSpace(root_ppn=0x800, table_alloc_ppn=0x801)
    host = AddressSpace(root_ppn=0x1000, table_alloc_ppn=0x1001, gpa_space=True)
    gva = 0x4000_0000
    gpa = 0x8000_0000
    guest.map_page(gva, gpa, guest_size, RW)
    if host_size == SIZE_1G:
        for n in range(4):  # identity: covers tables below 4 GiB and the data
            host.map_page(n * SIZE_1G, n * SIZE_1G, SIZE_1G, RWX)
    else:
        for table_ppn in guest.table_ppns():
            host.map_page(table_ppn << 12, table_ppn << 12, host_size, RWX)
        host.map_region(gpa, gpa, max(guest_size, host_size), RWX, page_size=host_size)
    return guest, host, gva


def test_two_stage_4k_4k_is_fifteen_fetches():
    guest, host, gva = nested_setup()
    res = walk_two_stage(guest, host, gva + 0x123)
    assert res.ok
    assert len(res.accesses) == 15
    assert res.page_size == SIZE_4K
    assert res.paddr == 0x8000_0123


def test_two_stage_guest_giga_is_seven_fetches():
    guest = AddressSpace(root_ppn=0x800)
    host = AddressSpace(root_ppn=0x1000, gpa_space=True)
    guest.map_page(0x4000_0000, 0x8000_0000, SIZE_1G, RW)
    host.map_page(0x800 << 12, 0x800 << 12, SIZE_4K, RWX)  # guest root table
    host.map_region(0x8000_0000, 0x8000_0000, SIZE_4K, RWX)  # the accessed page
    res = walk_two_stage(guest, host, 0x4000_0000)
    assert res.ok and len(res.accesses) == 7
    assert res.page_size == SIZE_4K  # merged granularity: min(1G, 4K)


def test_two_stage_host_giga_is_seven_fetches():
    guest, host, gva = nested_setup(host_size=SIZE_1G)
    res = walk_two_stage(guest, host, gva)
    assert res.ok and len(res.accesses) == 7
    assert res.page_size == SIZE_4K


def test_two_stage_access_order_interleaves_host_and_guest():
    guest, host, gva = nested_setup(host_size=SIZE_1G)
    res = walk_two_stage(guest, host, gva)
    # Pattern: (host, guest-pte) x 3 levels, then the final host walk.
    guest_pte_fetches = res.accesses[1::2][:3]
    for addr, table_ppn in zip(guest_pte_fetches, guest.table_ppns()):
        assert addr >> 12 == table_ppn  # host is identity-mapped here


def test_merged_page_size_both_superpages():
    guest = AddressSpace(root_ppn=0x800)
    host = AddressSpace(root_ppn=0x1000, gpa_space=True)
    guest.map_page(0x4000_0000, 0x8000_0000, SIZE_2M, RW)
    for table_ppn in guest.table_ppns():
        host.map_page(table_ppn << 12, table_ppn << 12, SIZE_4K, RWX)
    host.map_page(0x8000_0000, 0xC000_0000, SIZE_2M, RWX)
    res = walk_two_stage(guest, host, 0x4000_0000 + 0x12345)
    assert res.ok
    assert res.page_size == SIZE_2M  # min(2M, 2M)
    assert res.paddr == 0xC000_0000 + 0x12345
    assert res.pte >> 10 == 0xC000_0000 >> 12


def test_guest_and_host_faults_are_distinguished():
    guest, host, gva = nested_setup()
    miss_guest = walk_two_stage(guest, host, gva + SIZE_2M)
    assert miss_guest.fault == "invalid" and miss_guest.fault_stage == "guest"
    bare_host = AddressSpace(root_ppn=0x1000, gpa_space=True)
    miss_host = walk_two_stage(guest, bare_host, gva)
    assert miss_host.fault == "invalid" and miss_host.fault_stage == "host"
    assert len(miss_host.accesses) == 1  # died on the first host root fetch


def test_two_stage_counts_match_analytic_table():
    assert analytic_two_stage_count(0, 0) == 15
    assert analytic_two_stage_count(2, 0) == 7
    assert analytic_two_stage_count(0, 2) == 7


def test_random_two_stage_against_instrumented_oracle():
    rng = random.Random(131)
    guest = AddressSpace(root_ppn=0x800, table_alloc_ppn=0x801)
    host = AddressSpace(root_ppn=0x4000, table_alloc_ppn=0x4001, gpa_space=True)
    probes = []
    for _ in range(1000):
        gva = rng.randrange(1 << 26) << 12
        gpa = (0x8_0000 + rng.randrange(1 << 16)) << 12
        try:
            guest.map_page(gva, gpa, SIZE_4K, RW)
        except ValueError:
            continue
        probes.append((gva, gpa))
    # Host: map every guest table page and some of the data pages; unmapped
    # data pages exercise the host-fault path.
    for table_ppn in guest.table_ppns():
        host.map_page(table_ppn << 12, (0x10_0000 + table_ppn) << 12, SIZE_4K, RWX)
    mapped_data = set()
    for gva, gpa in probes:
        if gpa not in mapped_data and rng.random() < 0.8:
            host.map_page(gpa, (0x20_0000 + (gpa >> 12)) << 12, SIZE_4K, RWX)
            mapped_data.add(gpa)
    assert len(probes) > 900
    for gva, gpa in probes:
        addr = gva + rng.randrange(SIZE_4K)
        res = walk_two_stage(guest, host, addr)
        want_count, want_status = two_stage_count_ref(
            guest.tables, guest.root_ppn, host.tables, host.root_ppn, addr
        )
        assert len(res.accesses) == want_count
        if gpa in mapped_data:
            assert want_status[0] == "ok" and res.ok
            assert res.paddr == want_status[1]
            # Composition: host-translate the guest-translated address.
            g_status, g_paddr, _, _ = radix_translate_ref(guest.tables, guest.root_ppn, addr)
            h_status, h_paddr, _, _ = radix_translate_ref(host.tables, host.root_ppn, g_paddr)
            assert (g_status, h_status) == ("ok", "ok") and res.paddr == h_paddr
        else:
            assert res.fault and res.fault_stage == "host"
            assert want_status == ("fault", "host")


def test_fetch_count_bounds():
    rng = random.Random(7)
    guest, host, gva = nested_setup()
    one = walk_single(host, (0x800 << 12) + rng.randrange(SIZE_4K))
    assert 1 <= len(one.accesses) <= 3
    full = walk_two_stage(guest, host, gva)
    assert 2 <= len(full.accesses) <= 15

"""Walker tests: single-stage radix walks, nested two-stage walks, fetch
accounting, fault classification, and the table builder."""

import copy
import random
from types import SimpleNamespace

import pytest

from pvmsim.cache import Memory
from pvmsim.memsys import LatencyConfig, MachineConfig, MemorySystem
from pvmsim.sv39 import (
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_U,
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
    PageTablesRef,
    analytic_two_stage_count,
    nested_walk_ref,
    radix_fetches_ref,
    radix_translate_ref,
    two_stage_count_ref,
)

RW = PTE_R | PTE_W | PTE_A | PTE_D
RWX = RW | PTE_X


def map_region(space, vaddr, paddr, size, flags, page_size=SIZE_4K):
    """Map `size` bytes at `vaddr` to `paddr`, one map_page per page."""
    for off in range(0, size, page_size):
        space.map_page(vaddr + off, paddr + off, page_size, flags)


# -- single stage ----------------------------------------------------------------

def test_4k_walk_costs_three_fetches():
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x8000_0000, 0x4000_0000, SIZE_4K, RW)
    res = walk_single(space, 0x8000_0123)
    assert res.fault is None
    # Root to leaf: the builder allocated the lower tables right after the root.
    assert [addr >> 12 for addr in res.accesses] == [0x100, 0x101, 0x102]
    assert res.paddr == 0x4000_0123
    assert res.page_size == SIZE_4K


def test_giga_leaf_costs_one_fetch():
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x4000_0000, 0x8000_0000, SIZE_1G, RWX)
    res = walk_single(space, 0x4000_0000 + 12345)
    assert res.fault is None and len(res.accesses) == 1
    assert res.page_size == SIZE_1G
    assert res.paddr == 0x8000_0000 + 12345


def test_mega_leaf_costs_two_fetches():
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x8020_0000, 0x4020_0000, SIZE_2M, RW)
    res = walk_single(space, 0x8020_0000 + 0x1FFFFF)
    assert res.fault is None and len(res.accesses) == 2
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


def test_pointer_to_an_absent_table_reads_as_invalid():
    space = AddressSpace(root_ppn=0x100)
    space.set_pte(0x100, 1, make_pte(0x555, PTE_V))  # no table 0x555 was added
    res = walk_single(space, (1 << 30) + (3 << 21))
    assert res.fault == "invalid"
    assert res.accesses == [(0x100 << 12) + 8, (0x555 << 12) + 3 * 8]


def test_non_canonical_vaddr_is_a_usage_error():
    space = AddressSpace(root_ppn=0x100)
    with pytest.raises(ValueError):
        walk_single(space, 1 << 38)


def test_latency_additivity_with_variable_costs():
    # The memory system prices a walk as the sum of its fetches' D-cache
    # prices, in order: here only the middle-level PTE line is warm.
    space = AddressSpace(root_ppn=0x100)
    space.map_page(0x8000_0000, 0x4000_0000, SIZE_4K, RW)
    sys_ = MemorySystem(
        MachineConfig(),
        Memory([(0x100 << 12, 3 * SIZE_4K), (0x4000_0000, SIZE_4K)]),
        LatencyConfig(cache_hit_cycles=7, memory_cycles=41),
        ispm_base=0x2000_0000,
        dspm_base=0x1000_0000,
    )
    sys_.dcache.access(walk_single(space, 0x8000_0000).accesses[1], "read")
    vm = SimpleNamespace(asid=1, vmid=0, guest_space=space, host_space=None)
    out = sys_.virtual_access(0x8000_0000, "read", vm)
    assert out.walk_fetches == 3 and out.walk_cycles == 41 + 7 + 41


def test_walks_never_mutate_tables():
    space = AddressSpace(root_ppn=0x100)
    map_region(space, 0x8000_0000, 0x4000_0000, 16 * SIZE_4K, RW)
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
        assert res.fault is None and res.paddr == paddr and res.pte == pte
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
        map_region(space, 0x8000_0000, 0x4000_0000, 4 * SIZE_4K, RW)
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
        map_region(host, gpa, gpa, max(guest_size, host_size), RWX, page_size=host_size)
    return guest, host, gva


def test_two_stage_4k_4k_is_fifteen_fetches():
    guest, host, gva = nested_setup()
    res = walk_two_stage(guest, host, gva + 0x123)
    assert res.fault is None
    assert len(res.accesses) == 15
    assert res.page_size == SIZE_4K
    assert res.paddr == 0x8000_0123


def test_two_stage_guest_giga_is_seven_fetches():
    guest = AddressSpace(root_ppn=0x800)
    host = AddressSpace(root_ppn=0x1000, gpa_space=True)
    guest.map_page(0x4000_0000, 0x8000_0000, SIZE_1G, RW)
    host.map_page(0x800 << 12, 0x800 << 12, SIZE_4K, RWX)  # guest root table
    map_region(host, 0x8000_0000, 0x8000_0000, SIZE_4K, RWX)  # the accessed page
    res = walk_two_stage(guest, host, 0x4000_0000)
    assert res.fault is None and len(res.accesses) == 7
    assert res.page_size == SIZE_4K  # merged granularity: min(1G, 4K)


def test_two_stage_host_giga_is_seven_fetches():
    guest, host, gva = nested_setup(host_size=SIZE_1G)
    res = walk_two_stage(guest, host, gva)
    assert res.fault is None and len(res.accesses) == 7
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
    assert res.fault is None
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
            assert want_status[0] == "ok" and res.fault is None
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


# -- differential: both walkers against the reference walks ---------------------------

FLAG_CHOICES = (RW, RWX, PTE_R | PTE_A, PTE_R | PTE_X | PTE_A | PTE_U, RW | PTE_U | PTE_G)
SIZES = (SIZE_4K, SIZE_4K, SIZE_2M, SIZE_1G)


def break_leaf(space, addr):
    """Rewrite the leaf that translates `addr`: a superpage leaf gets a
    misaligned frame, a 4 KiB leaf loses R/W/X and so becomes a pointer at
    level 0, leaving its tree with no leaf."""
    fetches, status = radix_fetches_ref(space.tables, space.root_ppn, addr)
    if status[0] == "ok":
        table, index = fetches[-1] >> 12, (fetches[-1] & 0xFFF) // 8
        pte = space.tables[table][index]
        space.set_pte(table, index, pte | 1 << 10 if status[2] else pte & ~(PTE_R | PTE_W | PTE_X))


def random_guest(rng):
    """A guest with 4 KiB, 2 MiB and 1 GiB pages clustered so that tables
    are shared, and the probe addresses: one per mapping plus a few
    unmapped ones."""
    guest = AddressSpace(root_ppn=0x800, table_alloc_ppn=0x801)
    probes = []
    for _ in range(40):
        size = rng.choice(SIZES)
        gva = (rng.randrange(4) << 30 | rng.randrange(8) << 21 | rng.randrange(512) << 12) & ~(size - 1)
        gpa = rng.randrange(1, 1 << 41 - 30) << 30 | rng.randrange(1 << 18) << 12
        try:
            guest.map_page(gva, gpa & ~(size - 1), size, rng.choice(FLAG_CHOICES))
        except ValueError:
            continue  # overlaps an earlier draw
        probes.append(gva + rng.randrange(size))
    probes += [rng.randrange(1 << 38) for _ in range(4)]
    for addr in rng.sample(probes, 4):
        break_leaf(guest, addr)
    return guest, probes


def random_host(rng, guest, probes, round_index):
    """Host tables for `guest`: its table pages at 4 KiB (some left out,
    the root in every fifth round) or under one superpage, the probes'
    final guest-physical pages at random sizes (some left out), and a few
    broken host leaves."""
    host = AddressSpace(root_ppn=0x4000, table_alloc_ppn=0x4001, gpa_space=True)
    tables = guest.table_ppns()
    if rng.random() < 0.3:
        size = rng.choice((SIZE_2M, SIZE_1G))
        base = (tables[0] << 12) & ~(size - 1)
        host.map_page(base, rng.randrange(1, 64) * SIZE_1G, size, RWX)
    else:
        for ppn in tables:
            dropped = round_index % 5 == 0 if ppn == guest.root_ppn else rng.random() < 0.15
            if not dropped:
                host.map_page(ppn << 12, (0x10_0000 + ppn) << 12, SIZE_4K, RWX)
    for addr in probes:
        status = radix_translate_ref(guest.tables, guest.root_ppn, addr)
        if status[0] != "ok" or rng.random() < 0.15:
            continue
        size = rng.choice(SIZES)
        try:
            host.map_page(status[1] & ~(size - 1), rng.randrange(64, 1 << 10) * SIZE_1G, size,
                          rng.choice(FLAG_CHOICES))
        except ValueError:
            continue  # already covered
    for addr in rng.sample(probes, 3):
        status = radix_translate_ref(guest.tables, guest.root_ppn, addr)
        if status[0] == "ok":
            break_leaf(host, status[1])
    return host


def check_single(space, addr):
    res = walk_single(space, addr)
    fetches, status = radix_fetches_ref(space.tables, space.root_ppn, addr)
    assert res.accesses == fetches, hex(addr)
    if status[0] == "ok":
        size = 1 << 12 + 9 * status[2]
        assert (res.fault, res.paddr, res.page_size, res.pte) == (None, status[1], size, status[3])
        assert res.vpn == (addr >> 12) % (1 << 27) & ~((size >> 12) - 1)
    else:
        assert (res.fault, res.fault_stage) == (status[1], None)
    return status


def host_fault_step(guest, host, gva):
    """Which host walk of a two-stage walk faults: the index of the guest
    level whose PTE it translates (0 for the root), or 'final'."""
    gpas, status = radix_fetches_ref(guest.tables, guest.root_ppn, gva)
    for step, gpa in enumerate(gpas):
        if radix_translate_ref(host.tables, host.root_ppn, gpa)[0] != "ok":
            return step
    assert status[0] == "ok"
    return "final"


def test_walkers_match_reference_walks_fetch_by_fetch():
    rng = random.Random(2504)
    seen = set()
    for round_index in range(30):
        guest, probes = random_guest(rng)
        host = random_host(rng, guest, probes, round_index)
        for gva in probes:
            guest_status = check_single(guest, gva)
            for gpa in radix_fetches_ref(guest.tables, guest.root_ppn, gva)[0]:
                check_single(host, gpa)
            res = walk_two_stage(guest, host, gva)
            fetches, outcome = nested_walk_ref(
                guest.tables, guest.root_ppn, host.tables, host.root_ppn, gva
            )
            assert res.accesses == fetches, hex(gva)
            if outcome[0] == "ok":
                _, paddr, size, pte = outcome
                assert (res.fault, res.fault_stage) == (None, None)
                assert (res.paddr, res.page_size, res.pte) == (paddr, size, pte)
                assert res.vpn == (gva >> 12) % (1 << 27) & ~((size >> 12) - 1)
                host_status = check_single(host, guest_status[1])
                seen.add(("ok", guest_status[2] > 0, host_status[2] > 0))
            else:
                assert (res.fault, res.fault_stage) == outcome[1:], hex(gva)
                seen.add(outcome[1:])
                if outcome[2] == "host":
                    seen.add(("host at", host_fault_step(guest, host, gva)))
    # Every kind of outcome the walkers distinguish was reached.
    for want in (
        ("ok", False, False), ("ok", True, False), ("ok", False, True), ("ok", True, True),
        ("invalid", "guest"), ("misaligned", "guest"), ("no-leaf", "guest"),
        ("invalid", "host"), ("misaligned", "host"), ("no-leaf", "host"),
        ("host at", 0), ("host at", 1), ("host at", 2), ("host at", "final"),
    ):
        assert want in seen, want


# -- differential: the table builder against the reference builder ------------------


def builder_call(rng, gpa_space):
    """One map_page argument tuple, clustered so that pages share tables
    and land on each other, with some misaligned, unsupported-size and
    out-of-space inputs mixed in."""
    size = rng.choice(SIZES + (SIZE_2M, SIZE_1G))
    draw = rng.random()
    if draw < 0.05:
        size = rng.choice((0, 8192, 1 << 20, 3 * SIZE_4K, 1 << 39, -SIZE_4K))
    # A few root slots, a few 2 MiB slots under each, a few 4 KiB pages under those.
    vaddr = rng.randrange(3) << 30 | rng.randrange(4) << 21 | rng.randrange(16) << 12
    if gpa_space and rng.random() < 0.1:
        vaddr |= rng.randrange(1, 4) << 39  # the bits a 9-bit host root drops
    elif not gpa_space and rng.random() < 0.1:
        vaddr |= (1 << 64) - (1 << 38)  # the upper canonical half
    if size > 0:
        vaddr &= ~(size - 1)
    paddr = rng.randrange(1 << 16) << 30
    if 0.05 <= draw < 0.1:
        vaddr += rng.choice((8, SIZE_4K, SIZE_2M))  # misaligned unless size is 4 KiB
    elif 0.1 <= draw < 0.15:
        paddr += rng.choice((8, SIZE_4K, SIZE_2M))
    elif 0.15 <= draw < 0.2:
        vaddr = rng.choice((1 << 41, 1 << 38, -SIZE_4K, 1 << 40 if not gpa_space else 1 << 42))
    return vaddr, paddr, size, rng.choice(FLAG_CHOICES)


BUILDER_OUTCOMES = ("unsupported page size", "not aligned", "outside this space",
                    "superpage leaf", "mapped twice")


def test_builder_matches_reference_builder_call_by_call():
    rng = random.Random(2207)
    seen = set()
    for round_index in range(40):
        gpa_space = round_index % 2 == 1
        root = 0x800 + round_index
        # Every fourth space allocates from just below its root, so the
        # allocator has to step over it.
        alloc = root - 2 if round_index % 4 == 0 else root + 1
        space = AddressSpace(root_ppn=root, table_alloc_ppn=alloc, gpa_space=gpa_space)
        ref = PageTablesRef(root, alloc, gpa_space)
        for _ in range(80):
            args = builder_call(rng, gpa_space)
            version, ref_version = space.version, ref.version
            try:
                space.map_page(*args)
                error = None
            except ValueError as exc:
                error = str(exc)
            assert error == ref.map_page(*args), [hex(a) for a in args]
            assert space.tables == ref.tables
            assert space._next_table_ppn == ref.next_ppn
            assert space.version - version == ref.version - ref_version, [hex(a) for a in args]
            seen.add(next(kind for kind in BUILDER_OUTCOMES if kind in error) if error else "ok")
    assert seen == {"ok", *BUILDER_OUTCOMES}


def test_guest_physical_address_beyond_41_bits_is_a_usage_error():
    guest, host, gva = nested_setup()
    leaf = radix_fetches_ref(guest.tables, guest.root_ppn, gva)[0][-1]
    guest.set_pte(leaf >> 12, (leaf & 0xFFF) // 8, make_pte(1 << 29, PTE_V | RW))  # GPA 2^41
    with pytest.raises(ValueError, match="^address 0x20000000000 violates"):
        walk_two_stage(guest, host, gva)
    guest.set_pte(guest.root_ppn, gva >> 30 & 0x1FF, make_pte(1 << 29, PTE_V))  # a table there
    with pytest.raises(ValueError, match="^address 0x20000000000 violates"):
        walk_two_stage(guest, host, gva)


def test_a_table_page_is_added_once():
    space = AddressSpace(root_ppn=0x100)
    for ppn in (0x100, 0x101):
        if ppn != space.root_ppn:
            space.add_table(ppn)
        version = space.version
        with pytest.raises(ValueError, match="^table page 0x%x already exists$" % ppn):
            space.add_table(ppn)
        assert space.version == version


def test_two_stage_walk_of_a_non_canonical_address_is_a_usage_error():
    guest, host, gva = nested_setup()
    with pytest.raises(ValueError, match="^address 0x%x violates the guest space's" % (gva | 1 << 39)):
        walk_two_stage(guest, host, gva | 1 << 39)

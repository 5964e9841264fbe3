"""TLB tests: tagged lookup, partition-steered fills, the CSR protocol,
lock slots, flush filters, and the state dump."""

import copy
import random

import pytest

from pvmsim.sv39 import (
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
    SIZE_1G,
    SIZE_2M,
    SIZE_4K,
    make_pte,
)
from pvmsim.tlb import LockSlot, PartitionCsrFile, Tlb, TlbEntry

from oracles import CsrPairRef

FULL = PTE_V | PTE_R | PTE_W | PTE_X | PTE_A | PTE_D


def make_tlb(entries=16, partitions=16, slots=8):
    csr = PartitionCsrFile(partitions)
    return Tlb(csr, entries=entries, partition_count=partitions, lock_slots=slots)


def entry(vpn, asid=1, vmid=0, size=SIZE_4K, ppn=None, flags=FULL, global_flag=False):
    if ppn is None:
        ppn = 0x40000 + vpn  # arbitrary distinct frame
    return TlbEntry(vpn=vpn, page_size=size, asid=asid, vmid=vmid,
                    pte=make_pte(ppn, flags), global_flag=global_flag)


# -- lookup basics -------------------------------------------------------------

def test_empty_lookup_misses():
    tlb = make_tlb()
    assert tlb.lookup(0x8000_0000, asid=1, vmid=0).status == "miss"


def test_fill_then_lookup_round_trip():
    tlb = make_tlb()
    tlb.fill(entry(vpn=0x80000, asid=1, vmid=2))
    res = tlb.lookup(0x80000 << 12, asid=1, vmid=2)
    assert res.hit
    assert res.paddr == (0x40000 + 0x80000) << 12


def test_tags_separate_asids_and_vmids():
    tlb = make_tlb()
    tlb.fill(entry(vpn=0x100, asid=1, vmid=1))
    assert tlb.lookup(0x100 << 12, asid=2, vmid=1).status == "miss"
    assert tlb.lookup(0x100 << 12, asid=1, vmid=2).status == "miss"
    assert tlb.lookup(0x100 << 12, asid=1, vmid=1).hit


def test_global_entries_match_any_asid_same_vmid():
    tlb = make_tlb()
    tlb.fill(entry(vpn=0x100, asid=1, vmid=1, global_flag=True))
    assert tlb.lookup(0x100 << 12, asid=7, vmid=1).hit
    assert tlb.lookup(0x100 << 12, asid=7, vmid=2).status == "miss"


def test_non_canonical_address_faults():
    tlb = make_tlb()
    assert tlb.lookup(1 << 38, asid=1, vmid=0).status == "fault"
    # A properly sign-extended high address is fine.
    tlb.fill(entry(vpn=(1 << 27) - 1, asid=1, vmid=0))
    high = 0xFFFF_FFFF_FFFF_F000
    assert tlb.lookup(high, asid=1, vmid=0).hit


def test_gigapage_entry_covers_its_range():
    tlb = make_tlb()
    giga_vpn = 0x40000  # 1 GiB-aligned (low 18 VPN bits zero)
    tlb.fill(entry(vpn=giga_vpn, size=SIZE_1G, ppn=0x80000))
    rng = random.Random(3)
    base = giga_vpn << 12
    for _ in range(3):
        off = rng.randrange(SIZE_1G)
        res = tlb.lookup(base + off, asid=1, vmid=0)
        assert res.hit
        # Independent arithmetic: frame base plus offset within the page.
        assert res.paddr == (0x80000 << 12) + off
    assert tlb.lookup(base + SIZE_1G, asid=1, vmid=0).status == "miss"


def test_lookup_determinism():
    tlb = make_tlb()
    for i in range(10):
        tlb.fill(entry(vpn=0x200 + i))
    probe = 0x205 << 12
    a = copy.deepcopy(tlb).lookup(probe, asid=1, vmid=0)
    b = copy.deepcopy(tlb).lookup(probe, asid=1, vmid=0)
    assert a == b


# -- fills under partitions -----------------------------------------------------

def test_fills_respect_cur_part():
    tlb = make_tlb()
    tlb.csr.write_cur_part(0x00FF)  # partitions 0..7 of 16
    used = set()
    for i in range(100):
        leaf = tlb.fill(entry(vpn=0x1000 + i))
        used.add(leaf)
    assert used <= set(range(8))


def test_fill_dropped_on_empty_mask():
    tlb = make_tlb()
    for i in range(4):
        tlb.fill(entry(vpn=0x2000 + i))
    before = copy.deepcopy(tlb.entries)
    tlb.csr.write_cur_part(0)
    assert tlb.fill(entry(vpn=0x3000)) is None
    assert tlb.entries == before
    assert tlb.dropped_fills == 1


def test_disabled_partition_entries_stay_hittable():
    tlb = make_tlb()
    leaf = tlb.fill(entry(vpn=0x500))
    # Disable the partition holding that entry; lookups must still hit it.
    tlb.csr.write_cur_part(0xFFFF & ~(1 << leaf))
    assert tlb.lookup(0x500 << 12, asid=1, vmid=0).hit


def test_interleaved_disjoint_streams_write_disjoint_leaves():
    rng = random.Random(17)
    for _ in range(100):
        tlb = make_tlb()
        mask_a = rng.randrange(1, 1 << 16)
        mask_b = (~mask_a) & 0xFFFF or 0x8000
        mask_a &= ~mask_b
        if not mask_a:
            continue
        wrote = {1: set(), 2: set()}
        for i in range(64):
            asid = rng.choice((1, 2))
            tlb.csr.write_cur_part(mask_a if asid == 1 else mask_b)
            leaf = tlb.fill(entry(vpn=0x4000 + i, asid=asid))
            if leaf is not None:
                wrote[asid].add(leaf)
        assert not wrote[1] & wrote[2]


# -- partition CSR protocol -------------------------------------------------------

def test_write_cur_part_rotates_last():
    csr = PartitionCsrFile(2)
    csr.write_cur_part(0b11)
    csr.write_cur_part(0b01)
    assert (csr.cur_part, csr.last_part) == (0b01, 0b11)
    # Writing the current value again still rotates state.
    csr.write_cur_part(0b01)
    assert (csr.cur_part, csr.last_part) == (0b01, 0b01)


def test_restore_copies_without_touching_last():
    csr = PartitionCsrFile(2)
    csr.write_cur_part(0b11)
    csr.write_cur_part(0b01)
    csr.write_restore_last_part(1)
    assert (csr.cur_part, csr.last_part) == (0b11, 0b11)
    csr.write_cur_part(0b10)
    csr.write_restore_last_part(0)  # LSB clear: no-op
    assert (csr.cur_part, csr.last_part) == (0b10, 0b11)


def test_restore_after_two_writes_returns_previous():
    csr = PartitionCsrFile(4)
    csr.write_cur_part(0b0101)  # A
    csr.write_cur_part(0b0011)  # B
    csr.write_restore_last_part(1)
    assert csr.cur_part == 0b0101


def test_direct_last_write_feeds_restore():
    csr = PartitionCsrFile(4)
    csr.write_last_part(0b1010)
    assert csr.cur_part == 0b1111  # untouched
    csr.write_restore_last_part(1)
    assert csr.cur_part == 0b1010


def test_width_mismatch_rejected():
    csr = PartitionCsrFile(4)
    with pytest.raises(ValueError):
        csr.write_cur_part(1 << 4)
    with pytest.raises(ValueError):
        csr.write_last_part(-1)
    with pytest.raises(ValueError):
        Tlb(PartitionCsrFile(8), partition_count=16)


def test_csr_protocol_matches_reference_machine():
    rng = random.Random(41)
    csr = PartitionCsrFile(16)
    ref = CsrPairRef(csr.cur_part, csr.last_part)
    for _ in range(10_000):
        op = rng.randrange(3)
        if op == 0:
            v = rng.getrandbits(16)
            csr.write_cur_part(v)
            ref.write_cur(v)
        elif op == 1:
            v = rng.getrandbits(16)
            csr.write_last_part(v)
            ref.write_last(v)
        else:
            w = rng.getrandbits(2)
            csr.write_restore_last_part(w)
            ref.write_restore(w)
        assert (csr.cur_part, csr.last_part) == (ref.cur, ref.last)


def test_csr_round_trip_property():
    # After any write_cur_part, restore brings back the pre-write value.
    rng = random.Random(43)
    csr = PartitionCsrFile(16)
    for _ in range(1000):
        before = csr.cur_part
        csr.write_cur_part(rng.getrandbits(16))
        csr.write_restore_last_part(1)
        assert csr.cur_part == before


# -- lock slots -----------------------------------------------------------------

def program_full_slot(tlb, index, vpn, *, size=SIZE_4K, ppn=0x99000, asid=1, vmid=0,
                      flags=FULL):
    tlb.program_lock_slot(index, "vpn", vpn=vpn, page_size=size, flags=flags)
    tlb.program_lock_slot(index, "pte", pte=make_pte(ppn, flags))
    tlb.program_lock_slot(index, "id", asid=asid, vmid=vmid)


def test_partial_programming_stays_inactive():
    tlb = make_tlb()
    tlb.program_lock_slot(0, "vpn", vpn=0x700)
    tlb.program_lock_slot(0, "pte", pte=make_pte(0x99000, FULL))
    assert not tlb.slots[0].active
    assert not tlb.tree.locked >> 0 & 1
    assert tlb.lookup(0x700 << 12, asid=1, vmid=0).status == "miss"


def test_activation_locks_leaf_and_serves_lookups():
    tlb = make_tlb()
    program_full_slot(tlb, 3, 0x700)
    assert tlb.slots[3].active
    assert tlb.tree.locked >> 3 & 1
    res = tlb.lookup(0x700 << 12, asid=1, vmid=0)
    assert res.hit and res.lock_hit
    assert res.paddr == 0x99000 << 12
    # Deactivate by clearing one valid bit: leaf replaceable again.
    tlb.program_lock_slot(3, "id", asid=1, vmid=0, valid=False)
    assert not tlb.slots[3].active
    assert not tlb.tree.locked >> 3 & 1
    assert tlb.lookup(0x700 << 12, asid=1, vmid=0).status == "miss"


@pytest.mark.parametrize("active_in_snapshot", (False, True))
def test_restore_brings_back_which_slots_serve_lookups(active_in_snapshot):
    """Which slots are active is derived from their registers: restore must
    recompute it, so a slot activated after the snapshot stops lock-hitting
    and one deactivated after it lock-hits again."""
    tlb = make_tlb()
    program_full_slot(tlb, 2, 0x700)
    tlb.program_lock_slot(2, "id", asid=1, vmid=0, valid=active_in_snapshot)
    state = tlb.snapshot()
    tlb.program_lock_slot(2, "id", asid=1, vmid=0, valid=not active_in_snapshot)
    assert tlb.lookup(0x700 << 12, asid=1, vmid=0).lock_hit is not active_in_snapshot
    tlb.restore(state)
    assert tlb.slots[2].active is active_in_snapshot
    res = tlb.lookup(0x700 << 12, asid=1, vmid=0)
    assert (res.hit, res.lock_hit) == (active_in_snapshot, active_in_snapshot)


def test_lock_slot_survives_flush_all():
    tlb = make_tlb()
    program_full_slot(tlb, 0, 0x400, size=SIZE_2M, ppn=0x80000 & ~0x1FF)
    tlb.fill(entry(vpn=0x900))
    tlb.flush("all")
    assert tlb.lookup(0x900 << 12, asid=1, vmid=0).status == "miss"
    res = tlb.lookup((0x400 << 12) + 0x12345, asid=1, vmid=0)
    assert res.hit and res.lock_hit


def test_lock_slot_precedence_over_aliased_entry():
    tlb = make_tlb()
    tlb.fill(entry(vpn=0x700, ppn=0x11111))
    program_full_slot(tlb, 0, 0x700, ppn=0x22222)
    res = tlb.lookup(0x700 << 12, asid=1, vmid=0)
    assert res.lock_hit and res.paddr == 0x22222 << 12


def test_lock_hits_leave_replacement_state_alone():
    tlb = make_tlb()
    program_full_slot(tlb, 0, 0x700)
    bits = tlb.tree.snapshot_bits()
    for _ in range(5):
        assert tlb.lookup(0x700 << 12, asid=1, vmid=0).lock_hit
    assert tlb.tree.snapshot_bits() == bits


def test_misaligned_lock_vpn_rejected():
    tlb = make_tlb()
    with pytest.raises(ValueError):
        tlb.program_lock_slot(0, "vpn", vpn=0x401, page_size=SIZE_2M)
    with pytest.raises(ValueError):
        tlb.program_lock_slot(0, "vpn", vpn=0x601, page_size=SIZE_1G)
    # The same values are fine while the valid bit is clear.
    tlb.program_lock_slot(0, "vpn", vpn=0x401, page_size=SIZE_2M, valid=False)


def test_superpage_slot_matches_whole_region():
    tlb = make_tlb()
    program_full_slot(tlb, 0, 0x600, size=SIZE_2M, ppn=0x80000 & ~0x1FF)
    base = 0x600 << 12
    assert tlb.lookup(base, asid=1, vmid=0).lock_hit
    assert tlb.lookup(base + SIZE_2M - 1, asid=1, vmid=0).lock_hit
    assert tlb.lookup(base + SIZE_2M, asid=1, vmid=0).status == "miss"


def test_fills_avoid_active_lock_leaves():
    rng = random.Random(53)
    for _ in range(200):
        tlb = make_tlb()
        locked_leaves = set()
        for index in rng.sample(range(8), rng.randrange(1, 5)):
            tlb.set_lock_target(index, index)  # explicit, though it's the default
            program_full_slot(tlb, index, 0x7000 + index * 8)
            locked_leaves.add(index)
        for i in range(64):
            leaf = tlb.fill(entry(vpn=0x100 + i))
            assert leaf not in locked_leaves


def test_retarget_only_while_inactive():
    tlb = make_tlb()
    tlb.set_lock_target(0, 9)
    program_full_slot(tlb, 0, 0x700)
    assert tlb.tree.locked >> 9 & 1
    with pytest.raises(ValueError):
        tlb.set_lock_target(0, 5)


def test_shared_target_leaf_rejected():
    tlb = make_tlb()
    program_full_slot(tlb, 0, 0x700)
    tlb.set_lock_target(1, 0)
    tlb.program_lock_slot(1, "vpn", vpn=0x800)
    tlb.program_lock_slot(1, "pte", pte=make_pte(0x1, FULL))
    with pytest.raises(ValueError):
        tlb.program_lock_slot(1, "id", asid=1, vmid=0)


# -- flush filters -----------------------------------------------------------------

def test_flush_by_asid_spares_globals_and_other_asids():
    tlb = make_tlb()
    tlb.fill(entry(vpn=0x100, asid=1))
    tlb.fill(entry(vpn=0x200, asid=2))
    tlb.fill(entry(vpn=0x300, asid=1, global_flag=True))
    tlb.flush("by-asid", asid=1)
    assert tlb.lookup(0x100 << 12, asid=1, vmid=0).status == "miss"
    assert tlb.lookup(0x200 << 12, asid=2, vmid=0).hit
    assert tlb.lookup(0x300 << 12, asid=1, vmid=0).hit


def test_flush_by_vmid_and_by_vaddr():
    tlb = make_tlb()
    tlb.fill(entry(vpn=0x100, vmid=1))
    tlb.fill(entry(vpn=0x200, vmid=2))
    tlb.flush("by-vmid", vmid=1)
    assert tlb.lookup(0x100 << 12, asid=1, vmid=1).status == "miss"
    assert tlb.lookup(0x200 << 12, asid=1, vmid=2).hit
    tlb.flush("by-vaddr", vaddr=0x200 << 12)
    assert tlb.lookup(0x200 << 12, asid=1, vmid=2).status == "miss"


def test_flush_empty_is_noop():
    tlb = make_tlb()
    before = copy.deepcopy(tlb.entries)
    tlb.flush("all")
    assert tlb.entries == before


# -- misc ---------------------------------------------------------------------------

def test_entry_alignment_enforced():
    with pytest.raises(ValueError):
        TlbEntry(vpn=0x201, page_size=SIZE_2M, asid=0, vmid=0, pte=make_pte(1, FULL))

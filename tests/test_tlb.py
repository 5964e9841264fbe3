"""TLB tests: tagged lookup, partition-steered fills, the CSR protocol,
lock slots, snapshot/restore, and the state dump."""

import copy
import random

import pytest

from pvmsim.plru import PlruTree
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
from pvmsim.tlb import LockSlot, LookupResult, PartitionCsrFile, Tlb, TlbEntry

from oracles import CsrPairRef, RefFault, TlbRef

FULL = PTE_V | PTE_R | PTE_W | PTE_X | PTE_A | PTE_D


def make_tlb(entries=16, partitions=16, slots=8):
    csr = PartitionCsrFile(partitions)
    return Tlb(csr, entries=entries, lock_slots=slots)


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
    for look in (tlb.lookup, tlb.translate):
        with pytest.raises(ValueError, match=r"^address 0x4000000000 is not canonical$"):
            look(1 << 38, asid=1, vmid=0)
    assert (tlb.hits, tlb.misses, tlb.lock_hits) == (0, 0, 0)
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
    """Which slots are active is derived from their registers, and a
    snapshot carries it: restore must bring it back, so a slot activated
    after the snapshot stops lock-hitting and one deactivated after it
    lock-hits again."""
    tlb = make_tlb()
    program_full_slot(tlb, 2, 0x700)
    tlb.program_lock_slot(2, "id", asid=1, vmid=0, valid=active_in_snapshot)
    state = tlb.snapshot()
    tlb.program_lock_slot(2, "id", asid=1, vmid=0, valid=not active_in_snapshot)
    assert tlb.lookup(0x700 << 12, asid=1, vmid=0).lock_hit is not active_in_snapshot
    tlb.restore(state)
    # The snapshot shares the immutable slot records with the live TLB.
    assert all(tlb.snapshot()[2][i] is tlb.slots[i] for i in range(len(tlb.slots)))
    assert tlb.slots[2].active is active_in_snapshot
    assert tlb.tree.locked == (1 << 2 if active_in_snapshot else 0)
    res = tlb.lookup(0x700 << 12, asid=1, vmid=0)
    assert (res.hit, res.lock_hit) == (active_in_snapshot, active_in_snapshot)


# Register writes that program slot 0 (4 KiB), slot 3 (a global 2 MiB
# page), slot 5 (two of its three registers) and then clear slot 0's id.
LOCK_WRITES = (
    (0, "vpn", dict(vpn=0x700, page_size=SIZE_4K, flags=FULL)),
    (0, "pte", dict(pte=make_pte(0x99000, FULL))),
    (3, "vpn", dict(vpn=0x4000_0000 >> 12, page_size=SIZE_2M, flags=FULL | PTE_G)),
    (0, "id", dict(asid=1, vmid=0)),
    (3, "pte", dict(pte=make_pte(0x9A000, FULL | PTE_G))),
    (5, "vpn", dict(vpn=0x710, page_size=SIZE_4K, flags=FULL)),
    (3, "id", dict(asid=2, vmid=0)),
    (5, "pte", dict(pte=make_pte(0x9B000, FULL))),
    (0, "id", dict(asid=1, vmid=0, valid=False)),
)
# Pages served by those slots once active, by a filled entry, or by nothing.
LOCK_PROBES = tuple(
    (vaddr, asid)
    for vaddr in (0x700 << 12, 0x4000_0000, 0x4000_0000 + 0x1F_F008, 0x710 << 12, 0x720 << 12)
    for asid in (1, 2)
)


def lock_writes(tlb, count):
    for index, which, fields in LOCK_WRITES[:count]:
        tlb.program_lock_slot(index, which, **fields)
    return tlb


def probe_locks(tlb):
    """Every probe's lookup result, then the counters, of a TLB holding an
    entry for page 0x720."""
    results = [tlb.lookup(vaddr, asid, 0) for vaddr, asid in LOCK_PROBES]
    return results, counters(tlb)


@pytest.mark.parametrize("written", (0, 1, 2, 4, 6, 7, 8, 9))
def test_restored_lock_state_equals_the_rederived_one(written):
    """A snapshot taken before, while and after lock slots are programmed
    (with one or two of a slot's three registers valid, or all three)
    restores into a TLB in another lock state the active slots and locked
    leaves a twin derives by programming the same registers."""
    source = lock_writes(make_tlb(), written)
    source.fill(entry(vpn=0x720))
    state = source.snapshot()
    # The target's own lock state differs from every snapshot's.
    target = make_tlb()
    program_full_slot(target, 1, 0x710, asid=1)
    program_full_slot(target, 7, 0x700, asid=2)
    target.fill(entry(vpn=0x700, asid=1))
    assert target.lookup(0x710 << 12, 1, 0).lock_hit
    target.restore(state)
    twin = lock_writes(make_tlb(), written)
    twin.fill(entry(vpn=0x720))
    assert target._active == twin._active
    assert target.tree.locked == twin.tree.locked
    assert target.tree.bits == twin.tree.bits
    assert probe_locks(target) == probe_locks(twin)
    # A register write after the restore derives from the restored slots.
    for tlb in (target, twin):
        tlb.program_lock_slot(5, "id", asid=1, vmid=0)
    assert target.tree.locked == twin.tree.locked
    assert probe_locks(target) == probe_locks(twin)


def test_lock_writes_cover_every_stage():
    """LOCK_WRITES passes through no slot, partly written slots, two active
    slots and one of them cleared again."""
    active = [lock_writes(make_tlb(), n).tree.locked for n in range(len(LOCK_WRITES) + 1)]
    assert active == [0, 0, 0, 0, 1, 1, 1, 1 | 1 << 3, 1 | 1 << 3, 1 << 3]


def test_a_fresh_tlb_shares_one_blank_entry_and_blank_slots():
    tlb, other = make_tlb(), make_tlb()
    blank = tlb.entries[0]
    assert not blank.valid
    assert all(e is blank for e in tlb.entries + other.entries)
    assert all(a is b for a, b in zip(tlb.slots, other.slots))
    assert tlb.slots == [LockSlot(target_leaf=j) for j in range(8)]
    assert make_tlb(slots=4).slots == [LockSlot(target_leaf=j) for j in range(4)]


def test_fills_and_lock_writes_replace_shared_blanks():
    tlb = make_tlb()
    blank, blank_slots = tlb.entries[0], list(tlb.slots)
    before = (repr(blank), [repr(slot) for slot in blank_slots])
    leaf = tlb.fill(entry(vpn=0x100))
    program_full_slot(tlb, 2, 0x700)
    assert tlb.entries[leaf] is not blank and tlb.entries[leaf].valid
    assert sum(e is blank for e in tlb.entries) == len(tlb.entries) - 1
    assert tlb.slots[2] is not blank_slots[2] and tlb.slots[2].active
    assert (repr(blank), [repr(slot) for slot in blank_slots]) == before
    fresh = make_tlb()
    assert fresh.entries == [blank] * 16 and fresh.slots == blank_slots
    assert fresh.tree.locked == 0 and fresh.lookup(0x100 << 12, 1, 0).status == "miss"


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


def test_only_scan_hits_on_entries_touch_the_tree(monkeypatch):
    """A scan hit on a regular entry touches its leaf once, through
    PlruTree.touch; a memo hit and a lock-slot hit touch nothing."""
    touched = []
    real_touch = PlruTree.touch

    def spy(tree, leaf):
        touched.append(leaf)
        real_touch(tree, leaf)

    tlb = make_tlb()
    program_full_slot(tlb, 0, 0x700)
    leaf = tlb.fill(entry(vpn=0x100))
    monkeypatch.setattr(PlruTree, "touch", spy)
    assert not tlb.lookup(0x100 << 12, asid=1, vmid=0).lock_hit  # scan hit
    assert touched == [leaf]
    assert tlb.lookup((0x100 << 12) + 8, asid=1, vmid=0).hit  # memo hit
    for _ in range(3):  # one scan, then memo hits
        assert tlb.lookup(0x700 << 12, asid=1, vmid=0).lock_hit
    assert touched == [leaf]
    assert tlb.lookup(0x100 << 12, asid=1, vmid=0).hit  # a scan again
    assert touched == [leaf, leaf]


def counters(tlb):
    return tlb.hits, tlb.misses, tlb.lock_hits, tlb.fills, tlb.dropped_fills


def fill_inner_page(tlb):
    tlb.fill(entry(vpn=0x601))  # the first fill of an empty tree takes leaf 0


# name -> (set-up, missed address, filled entry, next lookup's address, the
# memo's cover); every lookup is by asid 1, vmid 0.
FILL_MEMO_CASES = {
    "4k": (None, (0x100 << 12) + 0x18, entry(vpn=0x100), (0x100 << 12) + 8, SIZE_4K),
    "global-entry-of-another-asid": (
        None, 0x100 << 12, entry(vpn=0x100, asid=2, global_flag=True), (0x100 << 12) + 8,
        SIZE_4K,
    ),
    "2m-alone": (
        None, (0x603 << 12) + 8, entry(vpn=0x600, size=SIZE_2M), 0x7FF << 12, SIZE_2M,
    ),
    "2m-above-an-inner-entry": (
        fill_inner_page, 0x603 << 12, entry(vpn=0x600, size=SIZE_2M), (0x603 << 12) + 8,
        SIZE_4K,
    ),
    "2m-beside-a-lock-slot": (
        lambda tlb: program_full_slot(tlb, 0, 0x605), 0x603 << 12,
        entry(vpn=0x600, size=SIZE_2M), (0x603 << 12) + 8, SIZE_4K,
    ),
}


@pytest.mark.parametrize("case", sorted(FILL_MEMO_CASES))
def test_fill_of_the_missed_page_serves_the_next_lookup(case, monkeypatch):
    """A fill that serves the last miss sets the memo the next scan would
    set: the next lookup runs no scan, and its result, the counters, the
    tree bits and the memo equal those of a twin whose memo was cleared,
    which scans.  A superpage covers its whole span only when it serves it
    alone."""
    setup, missed, filled, probe, cover = FILL_MEMO_CASES[case]
    tlbs = []
    for _ in range(2):
        tlb = make_tlb()
        if setup is not None:
            setup(tlb)
        assert tlb.translate(missed, 1, 0) is None
        assert tlb.fill(filled) is not None
        tlbs.append(tlb)
    tlb, twin = tlbs
    twin._memo = None
    scans = []
    real_scan = Tlb._scan

    def spy(self, vaddr, asid, vmid):
        scans.append(self)
        return real_scan(self, vaddr, asid, vmid)

    monkeypatch.setattr(Tlb, "_scan", spy)
    got = tlb.lookup(probe, 1, 0)
    assert not scans
    want = twin.lookup(probe, 1, 0)
    assert scans == [twin]
    assert got == want and got.hit and not got.lock_hit
    assert counters(tlb) == counters(twin)
    assert tlb.tree.bits == twin.tree.bits
    assert tlb._memo == twin._memo
    assert tlb._memo[0] == -cover


def test_no_memo_unless_the_fill_serves_the_last_miss():
    """The memo stays clear after a fill of another page or other ids, a
    fill after a lock-slot write or a restore, a dropped fill, and a second
    fill after the miss."""
    missed = 0x100 << 12

    def miss_then(*steps):
        tlb = make_tlb()
        state = tlb.snapshot()
        assert tlb.translate(missed, 1, 0) is None
        for step in steps:
            step(tlb, state)
        return tlb

    def fill(**fields):
        return lambda tlb, state: tlb.fill(entry(**fields))

    cases = {
        "another-page": miss_then(fill(vpn=0x101)),
        "another-asid": miss_then(fill(vpn=0x100, asid=2)),
        "another-vmid": miss_then(fill(vpn=0x100, vmid=1)),
        "lock-slot-write": miss_then(
            lambda tlb, state: tlb.program_lock_slot(0, "vpn", vpn=0x700), fill(vpn=0x100)
        ),
        "restore": miss_then(lambda tlb, state: tlb.restore(state), fill(vpn=0x100)),
        "dropped": miss_then(lambda tlb, state: tlb.csr.write_cur_part(0), fill(vpn=0x100)),
        "second-fill": miss_then(fill(vpn=0x101), fill(vpn=0x100)),
    }
    assert cases["dropped"].dropped_fills == 1
    assert {name: tlb._memo for name, tlb in cases.items()} == dict.fromkeys(cases)


def test_misaligned_lock_vpn_rejected():
    tlb = make_tlb()
    slot = tlb.slots[0]
    with pytest.raises(ValueError):
        tlb.program_lock_slot(0, "vpn", vpn=0x401, page_size=SIZE_2M)
    with pytest.raises(ValueError):
        tlb.program_lock_slot(0, "vpn", vpn=0x601, page_size=SIZE_1G)
    assert tlb.slots[0] is slot  # a rejected write stores nothing
    # The same values are fine while the valid bit is clear.
    tlb.program_lock_slot(0, "vpn", vpn=0x401, page_size=SIZE_2M, valid=False)


def test_lock_vpn_wider_than_27_bits_rejected():
    """A lookup compares the 27-bit page number, so a slot holding a
    sign-extended upper-half one could never match."""
    tlb = make_tlb()
    slot = tlb.slots[0]
    for valid in (True, False):
        with pytest.raises(ValueError, match="^lock vpn 0xffffffc000100 is wider than 27 bits$"):
            tlb.program_lock_slot(0, "vpn", vpn=0xFFFF_FFC0_0010_0000 >> 12, valid=valid)
    assert tlb.slots[0] is slot
    tlb.program_lock_slot(0, "vpn", vpn=0xFFFF_FFC0_0010_0000 >> 12 & (1 << 27) - 1)


def test_unsupported_page_size_and_register_rejected():
    with pytest.raises(ValueError, match="^unsupported page size 8192$"):
        TlbEntry(vpn=0x100, page_size=8192, asid=1, vmid=0, pte=0)
    tlb = make_tlb()
    slot = tlb.slots[0]
    with pytest.raises(ValueError, match="^unsupported page size 8192$"):
        tlb.program_lock_slot(0, "vpn", vpn=0x100, page_size=8192)
    with pytest.raises(ValueError, match="^unknown lock-slot register 'ppn'$"):
        tlb.program_lock_slot(0, "ppn", ppn=0x100)
    assert tlb.slots[0] is slot


def test_fill_of_an_invalid_entry_rejected():
    tlb = make_tlb()
    before = tlb.snapshot()
    with pytest.raises(ValueError, match="^refusing to fill an invalid entry$"):
        tlb.fill(TlbEntry(vpn=0x100, page_size=SIZE_4K, asid=1, vmid=0, pte=0, valid=False))
    assert tlb.snapshot() == before


def test_superpage_slot_matches_whole_region():
    tlb = make_tlb()
    program_full_slot(tlb, 0, 0x600, size=SIZE_2M, ppn=0x80000 & ~0x1FF)
    base = 0x600 << 12
    assert tlb.lookup(base, asid=1, vmid=0).lock_hit
    assert tlb.lookup(base + SIZE_2M - 1, asid=1, vmid=0).lock_hit
    assert tlb.lookup(base + SIZE_2M, asid=1, vmid=0).status == "miss"


def test_fills_avoid_active_lock_leaves():
    """Slot j pins leaf j: while it is active, tree.locked holds bit j and
    no fill picks leaf j; once it is idle again, a round of fills reaches
    leaf j."""
    rng = random.Random(53)
    for _ in range(200):
        tlb = make_tlb()
        active = rng.sample(range(8), rng.randrange(1, 5))
        for index in active:
            program_full_slot(tlb, index, 0x7000 + index * 8)
        assert tlb.tree.locked == sum(1 << index for index in active)
        for i in range(64):
            assert tlb.fill(entry(vpn=0x100 + i)) not in active
        for index in active:
            tlb.program_lock_slot(index, "id", asid=1, vmid=0, valid=False)
        assert tlb.tree.locked == 0
        leaves = {tlb.fill(entry(vpn=0x200 + i)) for i in range(len(tlb.entries))}
        assert leaves == set(range(len(tlb.entries)))


# -- misc ---------------------------------------------------------------------------

def test_entry_alignment_enforced():
    with pytest.raises(ValueError):
        TlbEntry(vpn=0x201, page_size=SIZE_2M, asid=0, vmid=0, pte=make_pte(1, FULL))


# -- differential test against the naive reference ---------------------------------

# (entries, partitions, lock slots)
REF_GEOMETRIES = ((16, 16, 8), (16, 4, 8), (8, 2, 4), (4, 4, 2))
REF_IDS = ((1, 0), (2, 0), (1, 1))  # (asid, vmid)
# (vpn, page_size): 4 KiB pages, two 2 MiB pages, a 1 GiB page and the top
# page of the canonical upper half; then pages inside those superpages'
# spans: 4 KiB pages in each 2 MiB span, a 4 KiB and a 2 MiB page in the
# 1 GiB span, and a 4 KiB page inside that 2 MiB page.  An entry or lock
# slot for an inner page competes with the superpage for its page.
REF_PAGES = tuple((0x100 + i, SIZE_4K) for i in range(6)) + (
    (0x600, SIZE_2M),
    (0xA00, SIZE_2M),
    (1 << 18, SIZE_1G),
    ((1 << 27) - 1, SIZE_4K),
    (0x603, SIZE_4K),
    (0xBFF, SIZE_4K),
    ((1 << 18) + 0x205, SIZE_4K),
    ((1 << 18) + 0x400, SIZE_2M),
    ((1 << 18) + 0x407, SIZE_4K),
)
SUPERPAGES = tuple((vpn, size) for vpn, size in REF_PAGES if size > SIZE_4K)


def page_vaddr(vpn):
    """The canonical virtual address of a page number's first byte."""
    vaddr = vpn << 12
    if vpn >> 26:
        vaddr |= ((1 << 64) - 1) ^ ((1 << 39) - 1)
    return vaddr


def span_neighbour(rng, vaddr):
    """A page in the span of a superpage of REF_PAGES that holds vaddr's
    page, often a page of REF_PAGES inside that span; vaddr's own page when
    no superpage holds it."""
    vpn = vaddr >> 12 & ((1 << 27) - 1)
    holders = [(base, size >> 12) for base, size in SUPERPAGES if base <= vpn < base + (size >> 12)]
    if not holders:
        return vaddr & ~(SIZE_4K - 1)
    base, span = rng.choice(holders)
    inner = [(v, size >> 12) for v, size in REF_PAGES if base <= v < base + span]
    v, pages = rng.choice(inner)
    return page_vaddr(v + rng.randrange(pages))


def tlb_state(tlb):
    """The TLB seen the way TlbRef.state() shows its own."""
    entries = [
        {
            "vpn": e.vpn, "page_size": e.page_size, "asid": e.asid, "vmid": e.vmid,
            "pte": e.pte, "global": e.global_flag,
        }
        if e.valid
        else None
        for e in tlb.entries
    ]
    locked = [leaf for leaf in range(len(tlb.entries)) if tlb.tree.locked >> leaf & 1]
    counters = (tlb.hits, tlb.misses, tlb.lock_hits, tlb.fills, tlb.dropped_fills)
    return list(tlb.tree.snapshot_bits()), locked, entries, counters


@pytest.mark.parametrize("seed", range(8))
def test_tlb_matches_naive_reference(seed):
    """Runs of lookups in one page, often with the same page number and
    ids as the lookup before, or moving to another page of a superpage's
    span, interleaved with fills under random CUR_PART masks, lock-slot
    programming and snapshot/restore: every lookup result, every fill's leaf, the counters,
    the entries and the PLRU node bits must match TlbRef.  A seeded share
    of the lookups goes through Tlb.translate instead of Tlb.lookup, from a
    generator of its own so that the operations stay the same: its
    address or None must match TlbRef's hit or miss, and the five counters
    must match right after it.  A non-canonical address must raise
    ValueError on both routes where TlbRef raises RefFault, counting
    nothing.

    Inside a span, a 4 KiB entry at a lower or a higher leaf than the
    superpage's, an active lock slot or another asid's global entry may
    serve a page before the superpage does.  `shadowed` counts lookups that
    followed a superpage hit into its span and were served by something
    else; `under` counts fills of an inner page below a superpage entry
    that serves the same ids.

    Coverage holds by construction rather than by the draw: every 20th
    operation fills a superpage and then its inner page until a copy lands
    below it, and looks both up.  So `shadowed` and `under` read at least
    22 and 27 on these 8 seeds (at least 18 and 15 on seeds 0-63)."""
    rng = random.Random(seed)
    route = random.Random(-1 - seed)  # picks translate or lookup
    n_entries, partitions, n_slots = REF_GEOMETRIES[seed % len(REF_GEOMETRIES)]
    tlb = make_tlb(n_entries, partitions, n_slots)
    ref = TlbRef(n_entries, partitions, n_slots)
    saved = []
    seen = dict.fromkeys(
        ("repeat", "lock_hit", "drop", "restore", "fault", "shadowed", "under", "translate"),
        0,
    )
    last = None  # (vaddr, asid, vmid) of the previous lookup
    superhit = None  # (first vpn, pages, asid, vmid) of the previous lookup's superpage hit

    def frame():
        return rng.randrange(1, 64) << 18  # a page number aligned for every page size

    def supers():
        """The valid superpage entries."""
        return [e for e in tlb.entries if e.valid and e.page_size > SIZE_4K]

    def program(index, which, value, valid=True):
        """Write one slot register, its fields given as TlbRef.program takes them."""
        if which == "vpn":
            vpn, size, flags = value
            tlb.program_lock_slot(index, "vpn", vpn=vpn, page_size=size, flags=flags, valid=valid)
        elif which == "pte":
            tlb.program_lock_slot(index, "pte", pte=value, valid=valid)
        else:
            tlb.program_lock_slot(index, "id", asid=value[0], vmid=value[1], valid=valid)

    def look(vaddr, asid, vmid):
        """Look vaddr up in both TLBs, through translate or lookup, and
        compare; count lock hits and shadowed pages."""
        nonlocal last, superhit
        routed = tlb.translate if route.random() < 0.5 else tlb.lookup
        try:
            want = ref.lookup(vaddr, asid, vmid)
        except RefFault:
            with pytest.raises(ValueError, match=r"^address 0x%x is not canonical$" % vaddr):
                routed(vaddr, asid, vmid)
            assert tlb_state(tlb)[3] == tuple(ref.counters)
            seen["fault"] += 1
            superhit, last = None, (vaddr & ~(SIZE_4K - 1), asid, vmid)
            return
        if routed == tlb.translate:
            got = LookupResult(*want)
            assert tlb.translate(vaddr, asid, vmid) == (got.paddr if got.hit else None)
            assert tlb_state(tlb)[3] == tuple(ref.counters)
            seen["translate"] += 1
        else:
            got = tlb.lookup(vaddr, asid, vmid)
            assert got == want
        seen["lock_hit"] += got.lock_hit
        vpn = vaddr >> 12 & ((1 << 27) - 1)
        if superhit is not None and superhit[2:] == (asid, vmid):
            base, pages = superhit[:2]
            inside = base <= vpn < base + pages
            seen["shadowed"] += inside and got.hit and got.page_size < pages << 12
        superhit = None
        if got.hit and got.page_size > SIZE_4K:
            pages = got.page_size >> 12
            superhit = (vpn & -pages, pages, asid, vmid)
        last = (vaddr & ~(SIZE_4K - 1), asid, vmid)

    def fill(vpn, size, asid, vmid, global_flag=False):
        """Fill both TLBs under the current CUR_PART and compare the leaf."""
        pte = make_pte(frame(), FULL)
        leaf = tlb.fill(TlbEntry(vpn=vpn, page_size=size, asid=asid, vmid=vmid, pte=pte,
                                 global_flag=global_flag))
        assert leaf == ref.fill(tlb.csr.cur_part, vpn, size, asid, vmid, pte, global_flag)
        seen["drop"] += leaf is None
        seen["under"] += leaf is not None and any(
            e.valid and e.page_size > size and e.vpn <= vpn < e.vpn + (e.page_size >> 12)
            and e.vmid == vmid and (e.asid == asid or e.global_flag)
            for e in tlb.entries[leaf + 1:]
        )
        return leaf

    for step in range(600):
        op = rng.random()
        if step % 20 == 5:
            # A superpage under the full mask, then its inner page for the
            # same ids until a copy lands below it (tree-PLRU reaches every
            # free leaf before it evicts the superpage), then a lookup of the
            # superpage's first page and of the inner page: the superpage
            # hit is followed into its span, where the lower leaf serves.
            vpn, size = rng.choice(SUPERPAGES)
            asid, vmid = rng.choice(REF_IDS)
            inner = rng.choice([
                (v, sz) for v, sz in REF_PAGES if sz < size and vpn <= v < vpn + (size >> 12)
            ])
            tlb.csr.write_cur_part((1 << partitions) - 1)
            top = fill(vpn, size, asid, vmid)
            big = tlb.entries[top]
            for _ in range(n_entries):
                if fill(*inner, asid, vmid) < top or tlb.entries[top] is not big:
                    break
            look(page_vaddr(vpn) + rng.randrange(SIZE_4K), asid, vmid)
            look(page_vaddr(inner[0]) + rng.randrange(SIZE_4K), asid, vmid)
        elif op < 0.45:
            active = [slot for slot in tlb.slots if slot.active]
            if last is not None and rng.random() < 0.5:
                page, asid, vmid = last
            elif active and rng.random() < 0.3:
                slot = rng.choice(active)
                asid, vmid = slot.asid, slot.vmid
                page = page_vaddr(slot.vpn) + rng.randrange(0, slot.page_size, SIZE_4K)
            elif supers() and rng.random() < 0.5:
                e = rng.choice(supers())
                asid, vmid = e.asid, e.vmid
                page = page_vaddr(e.vpn) + rng.randrange(0, e.page_size, SIZE_4K)
            else:
                vpn, size = rng.choice(REF_PAGES)
                asid, vmid = rng.choice(REF_IDS)
                page = page_vaddr(vpn) + rng.randrange(0, size, SIZE_4K)
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.1:
                    asid, vmid = rng.choice(REF_IDS)
                if rng.random() < (0.6 if superhit else 0.2):
                    page = span_neighbour(rng, page)
                vaddr = page + rng.randrange(SIZE_4K)
                if rng.random() < 0.05:
                    vaddr ^= 1 << 40  # same page number bits, not canonical
                elif last == (vaddr & ~(SIZE_4K - 1), asid, vmid):
                    seen["repeat"] += 1
                look(vaddr, asid, vmid)
        elif op < 0.71:
            if rng.random() < 0.5:
                tlb.csr.write_cur_part(0 if rng.random() < 0.1 else rng.randrange(1 << partitions))
            vpn, size = rng.choice(REF_PAGES)
            asid, vmid = rng.choice(REF_IDS)
            global_flag = rng.random() < 0.15
            if supers() and rng.random() < 0.4:
                # An inner page of a cached superpage, for its ids or as
                # another asid's global entry.
                e = rng.choice(supers())
                vpn, size = rng.choice([
                    (v, sz) for v, sz in REF_PAGES
                    if sz < e.page_size and e.vpn <= v < e.vpn + (e.page_size >> 12)
                ])
                asid, vmid = e.asid, e.vmid
                if global_flag:
                    asid = rng.choice([a for a, v in REF_IDS if v == vmid and a != asid] or [asid])
            fill(vpn, size, asid, vmid, global_flag)
        elif op < 0.85:
            # Mostly the first two slots, so that some become active; often
            # the previous lookup's page and ids, so that a lookup repeating
            # it sees the slot change.
            index = rng.randrange(n_slots if rng.random() < 0.3 else 2)
            follow = last is not None and rng.random() < 0.5
            if rng.random() < 0.5:
                writes = (("vpn", True), ("pte", True), ("id", True))  # the whole slot
            else:
                writes = ((rng.choice(("vpn", "pte", "id")), rng.random() < 0.7),)
            for which, valid in writes:
                if which == "vpn":
                    vpn, size = rng.choice(REF_PAGES)
                    if follow:
                        vpn, size = (last[0] >> 12) & ((1 << 27) - 1), SIZE_4K
                    value = (vpn, size, FULL | (PTE_G if rng.random() < 0.2 else 0))
                elif which == "pte":
                    value = make_pte(frame(), FULL)
                else:
                    value = last[1:] if follow else rng.choice(REF_IDS)
                program(index, which, value, valid)
                ref.program(index, which, value if valid else None)
                assert tlb_state(tlb) == ref.state()
        elif op < 0.95 or not saved:
            saved.append((tlb.snapshot(), copy.deepcopy(ref)))
        else:
            state, ref_state = rng.choice(saved)
            tlb.restore(state)
            ref = copy.deepcopy(ref_state)
            seen["restore"] += 1
        assert tlb_state(tlb) == ref.state()
    assert all(seen.values()), seen

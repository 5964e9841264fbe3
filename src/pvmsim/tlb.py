"""Fully associative, partitionable, lockable TLB.

Layout per structure (one instance each for instruction and data sides):

* a bank of tagged entries holding fully merged translations
  (guest-virtual page -> host-physical frame), tagged with asid + vmid;
* a PLRU tree over the entries (see plru.py) consulted on refills;
* a bank of lock slots.  Each slot is three software-visible registers
  (mapping, leaf PTE, address-space ids) and becomes ACTIVE once all
  three carry a set valid bit.  An active slot pins one tree leaf --
  that leaf can never be chosen as a victim -- and serves lookups
  straight from the registers, taking precedence over the entry bank.

Replacement is steered by a pair of partition CSRs shared by both TLBs
of a hart:

    write CUR_PART v      ->  LAST_PART <- old CUR_PART; CUR_PART <- v
    write LAST_PART v     ->  LAST_PART <- v
    write RESTORE (lsb=1) ->  CUR_PART <- LAST_PART

Fills pick their victim under the CUR_PART mask; if the mask enables no
replaceable leaf the fill is dropped (the translation is still handed
to the consumer, just not cached).  Partitioning constrains replacement
only -- lookups hit entries of disabled partitions just fine.

A lookup reports what it found, not what it cost: memsys.MemorySystem
prices every lookup at LatencyConfig.tlb_hit_cycles.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

from .plru import PlruTree, check_tree
from .sv39 import (
    PAGE_SHIFT,
    PAGE_SIZES,
    PTE_G,
    VPN_MASK,
    is_canonical,
    pte_ppn,
)

_SIZE_NAMES = {PAGE_SIZES[0]: "4K", PAGE_SIZES[1]: "2M", PAGE_SIZES[2]: "1G"}


@dataclass(frozen=True)
class TlbEntry:
    """One cached translation; vpn is the full 27-bit virtual page number
    with the components below the page size forced to zero.  Immutable, so
    a TLB snapshot can share its entries with the live TLB."""

    vpn: int
    page_size: int
    asid: int
    vmid: int
    pte: int
    valid: bool = True
    global_flag: bool = False

    def __post_init__(self):
        if self.page_size not in PAGE_SIZES:
            raise ValueError("unsupported page size %r" % (self.page_size,))
        if self.vpn & (self.page_size // (1 << PAGE_SHIFT) - 1):
            raise ValueError("vpn 0x%x not aligned to its page size" % self.vpn)

    def paddr_for(self, vaddr):
        return (pte_ppn(self.pte) << PAGE_SHIFT) | (vaddr & (self.page_size - 1))


class LookupResult(NamedTuple):
    """Immutable, so every miss and every fault can share one result."""

    status: str  # "hit" | "miss" | "fault"
    paddr: int = 0
    page_size: int = 0
    pte: int = 0
    lock_hit: bool = False

    @property
    def hit(self):
        return self.status == "hit"


_MISS = LookupResult("miss")
_FAULT = LookupResult("fault")


class LockSlot:
    """Three CSR-backed registers pinning one translation.

    Register kinds and their fields:
      "vpn" -- vpn, page_size, flags, valid
      "pte" -- pte, valid
      "id"  -- asid, vmid, valid
    """

    def __init__(self, target_leaf):
        self.target_leaf = target_leaf
        self.vpn = 0
        self.page_size = PAGE_SIZES[0]
        self.flags = 0
        self.vpn_valid = False
        self.pte = 0
        self.pte_valid = False
        self.asid = 0
        self.vmid = 0
        self.id_valid = False

    @property
    def active(self):
        return self.vpn_valid and self.pte_valid and self.id_valid

    def paddr_for(self, vaddr):
        return (pte_ppn(self.pte) << PAGE_SHIFT) | (vaddr & (self.page_size - 1))


def check_geometry(entries, partition_count, lock_slots):
    """Raise ValueError unless a Tlb of this shape can be built."""
    check_tree(entries, partition_count, "entries", "partitions")
    if not 0 <= lock_slots <= entries:
        raise ValueError("lock_slots must lie in [0, entries], got %r" % (lock_slots,))


def check_mask(value, width, what="mask"):
    """Raise ValueError unless `value` fits a partition mask of `width` bits."""
    if not 0 <= value < (1 << width):
        raise ValueError("%s 0x%x wider than %d partitions" % (what, value, width))


class PartitionCsrFile:
    """The CUR_PART / LAST_PART pair; width equals the partition count."""

    def __init__(self, width):
        self.width = width
        full = (1 << width) - 1
        self.cur_part = full  # boot default: everything replaceable
        self.last_part = full

    def write_cur_part(self, value):
        check_mask(value, self.width)
        self.last_part = self.cur_part
        self.cur_part = value

    def write_last_part(self, value):
        check_mask(value, self.width)
        self.last_part = value

    def write_restore_last_part(self, word):
        if word & 1:
            self.cur_part = self.last_part


class Tlb:
    def __init__(self, csr, entries=16, partition_count=16, lock_slots=8):
        if csr.width != partition_count:
            raise ValueError("partition CSR width %d != partition count %d"
                             % (csr.width, partition_count))
        check_geometry(entries, partition_count, lock_slots)
        self.csr = csr
        self.tree = PlruTree(entries, partition_count)
        self.entries = [
            TlbEntry(vpn=0, page_size=PAGE_SIZES[0], asid=0, vmid=0, pte=0, valid=False)
            for _ in range(entries)
        ]
        # Default placement: slot j shadows leaf j; steerable while inactive.
        self.slots = [LockSlot(target_leaf=j) for j in range(lock_slots)]
        self._active = ()  # the active slots, in slot order; never snapshotted
        self.hits = 0
        self.misses = 0
        self.lock_hits = 0
        self.fills = 0
        self.dropped_fills = 0

    # -- lookup / fill -----------------------------------------------------

    def lookup(self, vaddr, asid, vmid):
        if not is_canonical(vaddr):
            return _FAULT
        # A slot or entry matches on vmid, on asid unless it is global, and
        # on the page number with the bits below its page size cleared
        # (vpn & -span for a page of span base pages).
        vpn = vaddr >> PAGE_SHIFT & VPN_MASK
        for slot in self._active:
            if (
                slot.vmid == vmid
                and (slot.asid == asid or slot.flags & PTE_G)
                and vpn & -(slot.page_size >> PAGE_SHIFT) == slot.vpn
            ):
                # Served from the registers; replacement state untouched.
                self.lock_hits += 1
                self.hits += 1
                return LookupResult("hit", slot.paddr_for(vaddr), slot.page_size, slot.pte, True)
        for leaf, entry in enumerate(self.entries):
            if (
                entry.valid
                and entry.vmid == vmid
                and (entry.asid == asid or entry.global_flag)
                and vpn & -(entry.page_size >> PAGE_SHIFT) == entry.vpn
            ):
                self.tree.touch(leaf)
                self.hits += 1
                return LookupResult("hit", entry.paddr_for(vaddr), entry.page_size, entry.pte)
        self.misses += 1
        return _MISS

    def fill(self, entry):
        """Install a walked translation; returns the leaf used, or None when
        CUR_PART enabled nothing replaceable and the fill was dropped."""
        if not entry.valid:
            raise ValueError("refusing to fill an invalid entry")
        victim = self.tree.insert(self.csr.cur_part)
        if victim is None:
            self.dropped_fills += 1
            return None
        self.entries[victim] = entry
        self.fills += 1
        return victim

    # -- lock slots ----------------------------------------------------------

    def set_lock_target(self, index, leaf):
        slot = self.slots[index]
        if slot.active:
            raise ValueError("cannot retarget an active lock slot")
        self.tree._check_leaf(leaf)
        slot.target_leaf = leaf

    def program_lock_slot(self, index, which, **fields):
        """Write one of a slot's three registers and re-evaluate activation."""
        slot = self.slots[index]
        was_active = slot.active
        if which == "vpn":
            page_size = fields.get("page_size", PAGE_SIZES[0])
            if page_size not in PAGE_SIZES:
                raise ValueError("unsupported page size %r" % (page_size,))
            vpn = fields["vpn"]
            if fields.get("valid", True) and vpn & (page_size // (1 << PAGE_SHIFT) - 1):
                raise ValueError(
                    "lock vpn 0x%x not naturally aligned to %s page"
                    % (vpn, _SIZE_NAMES[page_size])
                )
            slot.vpn = vpn
            slot.page_size = page_size
            slot.flags = fields.get("flags", 0)
            slot.vpn_valid = fields.get("valid", True)
        elif which == "pte":
            slot.pte = fields["pte"]
            slot.pte_valid = fields.get("valid", True)
        elif which == "id":
            slot.asid = fields["asid"]
            slot.vmid = fields["vmid"]
            slot.id_valid = fields.get("valid", True)
        else:
            raise ValueError("unknown lock-slot register %r" % (which,))
        self._refresh_active()
        if slot.active and not was_active:
            for other in self.slots:
                if other is not slot and other.active and other.target_leaf == slot.target_leaf:
                    raise ValueError("two active lock slots share leaf %d" % slot.target_leaf)
            self.tree.set_lock(slot.target_leaf, True)
        elif was_active and not slot.active:
            self.tree.set_lock(slot.target_leaf, False)

    def _refresh_active(self):
        self._active = tuple(slot for slot in self.slots if slot.active)

    # -- maintenance -----------------------------------------------------------

    def flush(self, kind="all", asid=None, vmid=None, vaddr=None):
        """Invalidate matching regular entries; lock slots are never affected."""
        for leaf, entry in enumerate(self.entries):
            if not entry.valid:
                continue
            if kind == "all":
                hit = True
            elif kind == "by-asid":
                hit = entry.asid == asid and not entry.global_flag
            elif kind == "by-vmid":
                hit = entry.vmid == vmid
            elif kind == "by-vaddr":
                span = entry.page_size >> PAGE_SHIFT
                hit = (vaddr >> PAGE_SHIFT) & VPN_MASK & ~(span - 1) == entry.vpn
            else:
                raise ValueError("unknown flush kind %r" % (kind,))
            if hit:
                self.entries[leaf] = replace(entry, valid=False)

    def snapshot(self):
        """Replacement bits, entries, lock-slot registers and counters, as
        copies that restore() only reads.  Entries are shared: they are
        immutable."""
        return (
            tuple(self.tree.node_bits),
            self.tree.locked,
            tuple(self.entries),
            tuple(dict(vars(slot)) for slot in self.slots),
            (self.hits, self.misses, self.lock_hits, self.fills, self.dropped_fills),
        )

    def restore(self, state):
        """Return to a snapshot() of this TLB, copying it in place."""
        bits, locked, entries, slots, counters = state
        self.tree.node_bits[:] = bits
        self.tree.locked = locked
        self.entries[:] = entries
        for slot, fields in zip(self.slots, slots):
            slot.__dict__.update(fields)
        self._refresh_active()
        self.hits, self.misses, self.lock_hits, self.fills, self.dropped_fills = counters

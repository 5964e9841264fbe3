"""Fully associative, partitionable, lockable TLB.

Layout per structure (one instance each for instruction and data sides):

* a bank of tagged entries holding fully merged translations
  (guest-virtual page -> host-physical frame), tagged with asid + vmid;
* a PLRU tree over the entries (see plru.py) consulted on refills;
* a bank of lock slots.  Each slot is three software-visible registers
  (mapping, leaf PTE, address-space ids) and becomes ACTIVE once all
  three carry a set valid bit.  An active slot j pins tree leaf j --
  that leaf can never be chosen as a victim -- and serves lookups
  straight from the registers, taking precedence over the entry bank.

The slot registers are the only record of lock state: the active slots
and the tree's locked leaves are derived from them after every register
write and restore.  Slots are immutable records, like entries, so
snapshots share them; a register write builds the slot's next record,
checks it and only then stores it, so a rejected write changes nothing.

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
prices every lookup at LatencyConfig.tlb_hit_cycles.  Tlb.translate is
the one lookup path: it serves the memo, scans on a memo miss, keeps the
hit, miss and lock-hit counts, and returns the physical address, or None
on a miss.  A non-canonical address is no lookup: translate raises
ValueError naming it.  Tlb.lookup is translate plus a LookupResult read
from the memo translate just served.

A hit on a regular entry touches its leaf through PlruTree.touch; a
lock-slot hit touches nothing.  The TLB remembers its last hit: a lookup
with the same asid and vmid whose page lies in the memo's span is served
from the memo without a scan or a touch.  The span is the hit's page, or
the whole span of a superpage entry when nothing else could serve a page
of it first: no active lock slot and no valid entry at a lower leaf
overlaps the span for these ids (or globally).  That is checked once,
when the memo is set; slots win over entries and lower leaves over
higher ones, so the scan of any page in the span would then find the
same leaf.  Between the hit and the lookup nothing has changed -- every
fill, restore and lock-slot write clears the memo -- and touching
the leaf last touched again would change no bit.  The memo holds the
address bits above the span, sign extension included, so a memo hit is
canonical.  It is derived state and never goes into a snapshot.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

from .plru import PlruTree, check_tree
from .sv39 import PAGE_SHIFT, PAGE_SIZE, PAGE_SIZES, PPN_SHIFT, PTE_G, VPN_MASK, is_canonical

MAX_ENTRIES = 4096  # presets use 16; a far larger bank takes minutes or all memory to build
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


class LookupResult(NamedTuple):
    """Immutable, so every miss can share one result."""

    status: str  # "hit" | "miss"
    paddr: int = 0
    page_size: int = 0
    pte: int = 0
    lock_hit: bool = False

    @property
    def hit(self):
        return self.status == "hit"


_MISS = LookupResult("miss")
# tuple.__new__ builds a hit without the named tuple's Python-level __new__
# (what LookupResult._make does inside).
_new_result = tuple.__new__


@dataclass(frozen=True)
class LockSlot:
    """Three CSR-backed registers pinning one translation.

    Register kinds and their fields:
      "vpn" -- vpn, page_size, flags, valid
      "pte" -- pte, valid
      "id"  -- asid, vmid, valid
    """

    target_leaf: int
    vpn: int = 0
    page_size: int = PAGE_SIZES[0]
    flags: int = 0
    vpn_valid: bool = False
    pte: int = 0
    pte_valid: bool = False
    asid: int = 0
    vmid: int = 0
    id_valid: bool = False

    @property
    def active(self):
        return self.vpn_valid and self.pte_valid and self.id_valid


def check_geometry(entries, partition_count, lock_slots):
    """Raise ValueError unless a Tlb of this shape can be built."""
    check_tree(entries, partition_count, "entries", "partitions")
    if entries > MAX_ENTRIES:
        raise ValueError("entries must be at most %d, got %d" % (MAX_ENTRIES, entries))
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
    """`entries` entries and `lock_slots` lock slots, replaced under the
    masks of `csr`, whose width is the partition count."""

    def __init__(self, csr, entries, lock_slots):
        check_geometry(entries, csr.width, lock_slots)
        self.csr = csr
        self.tree = PlruTree(entries, csr.width)
        self.entries = [
            TlbEntry(vpn=0, page_size=PAGE_SIZES[0], asid=0, vmid=0, pte=0, valid=False)
            for _ in range(entries)
        ]
        # Slot j pins leaf j while it is active.
        self.slots = [LockSlot(target_leaf=j) for j in range(lock_slots)]
        self._active = ()  # derived by _refresh_active; never snapshotted
        # (cover mask, vaddr & cover mask, asid, vmid, frame address, offset
        # mask, page size, pte, lock hit) of the last hit, or None; the
        # cover is the page or the whole superpage the memo serves.  Read
        # by translate, and by lookup after translate has served it.
        self._memo = None
        self.hits = 0
        self.misses = 0
        self.lock_hits = 0
        self.fills = 0
        self.dropped_fills = 0

    # -- lookup / fill -----------------------------------------------------

    def translate(self, vaddr, asid, vmid):
        """The physical address vaddr maps to for these ids on a hit, None
        on a miss; ValueError, counted as neither, on a non-canonical one."""
        memo = self._memo
        if memo is None or vaddr & memo[0] != memo[1] or memo[2] != asid or memo[3] != vmid:
            if not is_canonical(vaddr):
                raise ValueError("address 0x%x is not canonical" % vaddr)
            memo = self._scan(vaddr, asid, vmid)
            if memo is None:
                self.misses += 1
                return None
        self.hits += 1
        if memo[8]:
            self.lock_hits += 1
        return memo[4] | vaddr & memo[5]

    def lookup(self, vaddr, asid, vmid):
        """translate's answer as a LookupResult; a hit's page size, PTE and
        lock bit come from the memo that served it."""
        paddr = self.translate(vaddr, asid, vmid)
        if paddr is None:
            return _MISS
        memo = self._memo
        return _new_result(LookupResult, ("hit", paddr, memo[6], memo[7], memo[8]))

    def _scan(self, vaddr, asid, vmid):
        """Find the slot or entry serving a canonical address's page, touch
        an entry's leaf, and return the new memo; None on a miss."""
        vpn = vaddr >> PAGE_SHIFT & VPN_MASK
        # A slot or entry matches on vmid, on asid unless it is global, and
        # on the page number with the bits below its page size cleared
        # (vpn & -span for a page of span base pages).
        for slot in self._active:
            if (
                slot.vmid == vmid
                and (slot.asid == asid or slot.flags & PTE_G)
                and vpn & -(slot.page_size >> PAGE_SHIFT) == slot.vpn
            ):
                # Served from the registers; replacement state untouched.
                size, pte, lock_hit = slot.page_size, slot.pte, True
                break
        else:
            for leaf, entry in enumerate(self.entries):
                if (
                    entry.valid
                    and entry.vmid == vmid
                    and (entry.asid == asid or entry.global_flag)
                    and vpn & -(entry.page_size >> PAGE_SHIFT) == entry.vpn
                ):
                    self.tree.touch(leaf)
                    size, pte, lock_hit = entry.page_size, entry.pte, False
                    break
            else:
                return None
        cover = PAGE_SIZE
        if size > PAGE_SIZE and not lock_hit and self._serves_alone(leaf, entry, asid, vmid):
            cover = size
        memo = self._memo = (
            -cover, vaddr & -cover, asid, vmid, pte >> PPN_SHIFT << PAGE_SHIFT, size - 1, size,
            pte, lock_hit,
        )
        return memo

    def _serves_alone(self, leaf, entry, asid, vmid):
        """Whether `entry`, at `leaf`, serves every page of its span for these
        ids: no active slot and no valid entry at a lower leaf overlaps it."""
        lo, hi = entry.vpn, entry.vpn + (entry.page_size >> PAGE_SHIFT)
        return not any(
            slot.vmid == vmid
            and (slot.asid == asid or slot.flags & PTE_G)
            and slot.vpn < hi and lo < slot.vpn + (slot.page_size >> PAGE_SHIFT)
            for slot in self._active
        ) and not any(
            other.valid
            and other.vmid == vmid
            and (other.asid == asid or other.global_flag)
            and other.vpn < hi and lo < other.vpn + (other.page_size >> PAGE_SHIFT)
            for other in self.entries[:leaf]
        )

    def fill(self, entry):
        """Install a walked translation; returns the leaf used, or None when
        CUR_PART enabled nothing replaceable and the fill was dropped."""
        if not entry.valid:
            raise ValueError("refusing to fill an invalid entry")
        self._memo = None
        victim = self.tree.insert(self.csr.cur_part)
        if victim is None:
            self.dropped_fills += 1
            return None
        self.entries[victim] = entry
        self.fills += 1
        return victim

    # -- lock slots ----------------------------------------------------------

    def program_lock_slot(self, index, which, **fields):
        """Write one of a slot's three registers; a rejected write changes nothing."""
        slot = self.slots[index]
        valid = fields.get("valid", True)
        if which == "vpn":
            page_size = fields.get("page_size", PAGE_SIZES[0])
            if page_size not in PAGE_SIZES:
                raise ValueError("unsupported page size %r" % (page_size,))
            vpn = fields["vpn"]
            if vpn & ~VPN_MASK:
                raise ValueError("lock vpn 0x%x is wider than 27 bits" % vpn)
            if valid and vpn & (page_size // (1 << PAGE_SHIFT) - 1):
                raise ValueError(
                    "lock vpn 0x%x not naturally aligned to %s page"
                    % (vpn, _SIZE_NAMES[page_size])
                )
            flags = fields.get("flags", 0)
            new = replace(slot, vpn=vpn, page_size=page_size, flags=flags, vpn_valid=valid)
        elif which == "pte":
            new = replace(slot, pte=fields["pte"], pte_valid=valid)
        elif which == "id":
            new = replace(slot, asid=fields["asid"], vmid=fields["vmid"], id_valid=valid)
        else:
            raise ValueError("unknown lock-slot register %r" % (which,))
        self.slots[index] = new
        self._refresh_active()

    def _refresh_active(self):
        """Derive the active slots, in slot order, and the leaves they pin."""
        active = self._active = tuple(slot for slot in self.slots if slot.active)
        self.tree.locked = sum(1 << slot.target_leaf for slot in active)
        self._memo = None

    # -- snapshot / restore ----------------------------------------------------

    def snapshot(self):
        """Replacement bits, entries, lock slots and counters, as copies
        that restore() only reads.  Entries and slots are shared: they are
        immutable.  restore() derives the locked leaves from the slots."""
        return (
            self.tree.bits,
            tuple(self.entries),
            tuple(self.slots),
            (self.hits, self.misses, self.lock_hits, self.fills, self.dropped_fills),
        )

    def restore(self, state):
        """Return to a snapshot() of this TLB, copying it in place."""
        bits, entries, slots, counters = state
        self.tree.bits = bits
        self.entries[:] = entries
        self.slots[:] = slots
        self._refresh_active()
        self.hits, self.misses, self.lock_hits, self.fills, self.dropped_fills = counters

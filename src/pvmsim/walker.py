"""SV39 single-stage and SV39x4 two-stage page-table walking.

The walker is pure: it reads the page tables and returns the decoded
translation together with the host-physical address of every PTE fetch,
in order.  Pricing those fetches (through the data cache) is the memory
system's job.

Two-stage walks translate EVERY guest-physical access through a full
host walk -- each guest PTE address and the final guest-physical
address -- with no intermediate caching, so a 4 KiB guest page under
4 KiB host pages costs 3 x (3 + 1) + 3 = 15 fetches.

Page tables live in an AddressSpace: a sparse map from physical page
number to a 512-entry table.  The builder methods construct minimal
radix trees for {vaddr, paddr, size, flags} regions; intermediate
tables come from a bump allocator so table placement is deterministic.
"""

from dataclasses import dataclass, field

from .sv39 import (
    INDEX_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_U,
    PTE_V,
    PTE_W,
    PTE_X,
    VPN_MASK,
    is_canonical,
    level_size,
    make_pte,
    pte_is_leaf,
    pte_ppn,
    vpn_index,
)

# Guest-physical addresses get two extra bits over the 39 virtual ones.
GPA_BITS = 41

_ENTRIES_PER_TABLE = 1 << INDEX_BITS


@dataclass
class WalkResult:
    """Outcome of one walk; valid for faults too (fetch trace included)."""

    fault: str = None  # None | "invalid" | "misaligned" | "no-leaf"
    fault_stage: str = None  # None (single-stage) | "guest" | "host"
    vpn: int = 0  # virtual page of the translated region base
    page_size: int = 0
    pte: int = 0  # leaf PTE carrying the final frame + merged flags
    paddr: int = 0  # host-physical address of the walked vaddr
    accesses: list = field(default_factory=list)  # PTE fetch addresses, in order

    @property
    def ok(self):
        return self.fault is None


class AddressSpace:
    """Sparse radix page tables plus builder helpers.

    `gpa_space=True` marks a table set indexed by guest-physical
    addresses (the hypervisor stage): inputs are zero-extended 41-bit
    addresses rather than sign-extended 39-bit virtual ones.

    `version` counts the mutations made through map_page, set_pte and
    add_table, so a cache of walk results can tell when it went stale;
    change tables only through those methods.
    """

    def __init__(self, root_ppn, table_alloc_ppn=None, gpa_space=False):
        self.root_ppn = root_ppn
        self.gpa_space = gpa_space
        self.tables = {root_ppn: [0] * _ENTRIES_PER_TABLE}
        self.version = 0
        self._next_table_ppn = table_alloc_ppn if table_alloc_ppn is not None else root_ppn + 1

    # -- raw table access ---------------------------------------------------

    def pte_at(self, table_ppn, index):
        """Value a hardware fetch of (table, index) would see; absent tables
        read as zero (an invalid PTE) rather than failing."""
        table = self.tables.get(table_ppn)
        return 0 if table is None else table[index]

    def set_pte(self, table_ppn, index, value):
        self.tables[table_ppn][index] = value
        self.version += 1

    def add_table(self, ppn):
        if ppn in self.tables:
            raise ValueError("table page 0x%x already exists" % ppn)
        self.tables[ppn] = [0] * _ENTRIES_PER_TABLE
        self.version += 1
        return ppn

    def table_ppns(self):
        return sorted(self.tables)

    def check_addr(self, addr):
        if self.gpa_space:
            return 0 <= addr < (1 << GPA_BITS)
        return is_canonical(addr)

    # -- construction ----------------------------------------------------------

    def _alloc_table(self):
        ppn = self._next_table_ppn
        while ppn in self.tables:
            ppn += 1
        self._next_table_ppn = ppn + 1
        return self.add_table(ppn)

    def map_page(self, vaddr, paddr, page_size, flags):
        """Install one leaf mapping, creating intermediate tables as needed."""
        target_level = {level_size(l): l for l in range(3)}.get(page_size)
        if target_level is None:
            raise ValueError("unsupported page size %r" % (page_size,))
        if vaddr & (page_size - 1) or paddr & (page_size - 1):
            raise ValueError(
                "mapping 0x%x -> 0x%x not aligned to page size 0x%x" % (vaddr, paddr, page_size)
            )
        if not self.check_addr(vaddr):
            raise ValueError("address 0x%x outside this space" % vaddr)
        self.version += 1
        table_ppn = self.root_ppn
        for level in range(2, target_level, -1):
            idx = vpn_index(vaddr, level)
            pte = self.tables[table_ppn][idx]
            if not pte & PTE_V:
                child = self._alloc_table()
                self.tables[table_ppn][idx] = make_pte(child, PTE_V)  # pointer PTE
                table_ppn = child
            elif pte_is_leaf(pte):
                raise ValueError("0x%x already covered by a superpage leaf" % vaddr)
            else:
                table_ppn = pte_ppn(pte)
        idx = vpn_index(vaddr, target_level)
        if self.tables[table_ppn][idx] & PTE_V:
            raise ValueError("0x%x mapped twice" % vaddr)
        self.tables[table_ppn][idx] = make_pte(paddr >> PAGE_SHIFT, flags | PTE_V)

    def map_region(self, vaddr, paddr, size, flags, page_size=PAGE_SIZE):
        """Map a linear region at a fixed granularity."""
        if size % page_size:
            raise ValueError("region size 0x%x not a multiple of page size" % size)
        for off in range(0, size, page_size):
            self.map_page(vaddr + off, paddr + off, page_size, flags)


def _check_leaf(pte, level, vaddr):
    """Common leaf decode: returns (fault-or-None, region fields)."""
    span_pages = 1 << (INDEX_BITS * level)
    ppn = pte_ppn(pte)
    if ppn & (span_pages - 1):
        return "misaligned", None
    page_size = level_size(level)
    vpn = (vaddr >> PAGE_SHIFT) & VPN_MASK & ~(span_pages - 1)
    paddr = (ppn << PAGE_SHIFT) | (vaddr & (page_size - 1))
    return None, (vpn, page_size, paddr)


def walk_single(space, vaddr):
    """Standard three-level radix walk; the PTE fetches are recorded in
    root-to-leaf order."""
    if not space.check_addr(vaddr):
        raise ValueError("address 0x%x violates the space's addressing rules" % vaddr)
    result = WalkResult()
    table_ppn = space.root_ppn
    for level in (2, 1, 0):
        idx = vpn_index(vaddr, level)
        result.accesses.append((table_ppn << PAGE_SHIFT) + idx * 8)
        pte = space.pte_at(table_ppn, idx)
        if not pte & PTE_V:
            result.fault = "invalid"
            return result
        if pte_is_leaf(pte):
            fault, decoded = _check_leaf(pte, level, vaddr)
            if fault:
                result.fault = fault
                return result
            result.vpn, result.page_size, result.paddr = decoded
            result.pte = pte
            return result
        table_ppn = pte_ppn(pte)
    result.fault = "no-leaf"  # level 0 still pointed onward
    return result


def _merge_flags(guest_flags, host_flags):
    # Permissions and accessed/dirty combine restrictively; U and G are
    # properties of the guest mapping alone.
    both = guest_flags & host_flags & (PTE_R | PTE_W | PTE_X | PTE_A | PTE_D)
    return PTE_V | both | (guest_flags & (PTE_U | PTE_G))


def walk_two_stage(guest, host, gvaddr):
    """SV39x4-style nested walk: the guest walk where every guest-physical
    access (guest PTE addresses and the final translated address) is first
    translated by a full host walk.  The access list interleaves host-walk
    fetches with the guest PTE fetches in true order."""
    if not guest.check_addr(gvaddr):
        raise ValueError("address 0x%x violates the guest space's addressing rules" % gvaddr)
    result = WalkResult()

    def nested(gpa):
        sub = walk_single(host, gpa)
        result.accesses.extend(sub.accesses)
        if sub.fault:
            result.fault = sub.fault
            result.fault_stage = "host"
            return None
        return sub

    table_gppn = guest.root_ppn
    for level in (2, 1, 0):
        idx = vpn_index(gvaddr, level)
        gpa_of_pte = (table_gppn << PAGE_SHIFT) + idx * 8
        sub = nested(gpa_of_pte)
        if sub is None:
            return result
        result.accesses.append(sub.paddr)  # the guest PTE fetch itself
        pte = guest.pte_at(table_gppn, idx)
        if not pte & PTE_V:
            result.fault, result.fault_stage = "invalid", "guest"
            return result
        if pte_is_leaf(pte):
            fault, decoded = _check_leaf(pte, level, gvaddr)
            if fault:
                result.fault, result.fault_stage = fault, "guest"
                return result
            gvpn, guest_size, gpa = decoded
            final = nested(gpa)
            if final is None:
                return result
            merged_size = min(guest_size, final.page_size)
            result.vpn = (gvaddr >> PAGE_SHIFT) & VPN_MASK & ~((merged_size >> PAGE_SHIFT) - 1)
            result.page_size = merged_size
            result.paddr = final.paddr
            base_ppn = (final.paddr & ~(merged_size - 1)) >> PAGE_SHIFT
            result.pte = make_pte(base_ppn, _merge_flags(pte & 0xFF, final.pte & 0xFF))
            return result
        table_gppn = pte_ppn(pte)
    result.fault, result.fault_stage = "no-leaf", "guest"
    return result

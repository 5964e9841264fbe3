"""SV39 single-stage and SV39x4 two-stage page-table walking.

The walker is pure: it reads the page tables and returns the decoded
translation together with the host-physical address of every PTE fetch,
in order.  Pricing those fetches (through the data cache) is the memory
system's job.

Both stages are walked by one radix descent, a loop over the levels'
index shifts that reads the tables directly.  A two-stage walk runs it
over the guest tables and again over the host tables for EVERY
guest-physical access -- each guest PTE address and the final
guest-physical address -- with no intermediate caching, so a 4 KiB guest
page under 4 KiB host pages costs 3 x (3 + 1) + 3 = 15 fetches, all in
one list.  A two-stage fault names the stage, guest or host, whose walk
stopped.

Page tables live in an AddressSpace: a sparse map from physical page
number to a 512-entry table.  Its builder, on the same level loop,
constructs minimal radix trees for {vaddr, paddr, size, flags} regions;
intermediate tables come from a bump allocator so table placement is
deterministic.
"""

from dataclasses import dataclass, field

from .sv39 import (
    INDEX_BITS,
    PAGE_SHIFT,
    PPN_SHIFT,
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_LEAF_MASK,
    PTE_R,
    PTE_U,
    PTE_V,
    PTE_W,
    PTE_X,
    VPN_MASK,
    is_canonical,
    make_pte,
)

# Guest-physical addresses get two extra bits over the 39 virtual ones.
GPA_BITS = 41

_ENTRIES_PER_TABLE = 1 << INDEX_BITS
_INDEX_MASK = _ENTRIES_PER_TABLE - 1
_EMPTY_TABLE = (0,) * _ENTRIES_PER_TABLE  # what a fetch from an absent table reads
_SHIFTS = (30, 21, 12)  # where each level's index sits, root level first
_LEAF_SHIFT = {1 << shift: shift for shift in _SHIFTS}  # page size -> its leaf's shift
_OUTSIDE = "address 0x%x violates the space's addressing rules"


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
        leaf_shift = _LEAF_SHIFT.get(page_size)
        if leaf_shift is None:
            raise ValueError("unsupported page size %r" % (page_size,))
        if vaddr & (page_size - 1) or paddr & (page_size - 1):
            raise ValueError(
                "mapping 0x%x -> 0x%x not aligned to page size 0x%x" % (vaddr, paddr, page_size)
            )
        if not self.check_addr(vaddr):
            raise ValueError("address 0x%x outside this space" % vaddr)
        self.version += 1
        table = self.tables[self.root_ppn]
        for shift in _SHIFTS:
            index = vaddr >> shift & _INDEX_MASK
            if shift == leaf_shift:
                break
            pte = table[index]
            if not pte & PTE_V:
                child = self._alloc_table()
                table[index] = child << PPN_SHIFT | PTE_V  # pointer PTE
                table = self.tables[child]
            elif pte & PTE_LEAF_MASK:
                raise ValueError("0x%x already covered by a superpage leaf" % vaddr)
            else:
                table = self.tables[pte >> PPN_SHIFT]
        if table[index] & PTE_V:
            raise ValueError("0x%x mapped twice" % vaddr)
        table[index] = make_pte(paddr >> PAGE_SHIFT, flags | PTE_V)


def _descend(space, vaddr, result, host=None):
    """The radix walk of both stages: one PTE fetch per level, root first,
    appended to result.accesses.  Given `host`, each PTE's guest-physical
    address is first walked through the host tables by this function, into
    the same list, and the host leaf gives the address fetched.  Returns the
    leaf's (pte, page size, translated address), or None with result.fault
    set (and fault_stage "host" if a host walk stopped short)."""
    tables = space.tables
    table_ppn = space.root_ppn
    for shift in _SHIFTS:
        index = vaddr >> shift & _INDEX_MASK
        addr = (table_ppn << PAGE_SHIFT) + index * 8
        if host is not None:
            if addr >> GPA_BITS:
                raise ValueError(_OUTSIDE % addr)
            host_leaf = _descend(host, addr, result)
            if host_leaf is None:
                result.fault_stage = "host"
                return None
            addr = host_leaf[2]
        result.accesses.append(addr)
        pte = tables.get(table_ppn, _EMPTY_TABLE)[index]
        if not pte & PTE_V:
            result.fault = "invalid"
            return None
        if pte & PTE_LEAF_MASK:
            size = 1 << shift
            ppn = pte >> PPN_SHIFT
            if ppn & ((size >> PAGE_SHIFT) - 1):
                result.fault = "misaligned"
                return None
            return pte, size, (ppn << PAGE_SHIFT) | (vaddr & (size - 1))
        table_ppn = pte >> PPN_SHIFT
    result.fault = "no-leaf"  # level 0 still pointed onward
    return None


def _page_vpn(vaddr, page_size):
    """Virtual page number of the base of vaddr's `page_size` page."""
    return (vaddr >> PAGE_SHIFT) & VPN_MASK & ~((page_size >> PAGE_SHIFT) - 1)


def walk_single(space, vaddr):
    """Standard three-level radix walk; the PTE fetches are recorded in
    root-to-leaf order."""
    if not space.check_addr(vaddr):
        raise ValueError(_OUTSIDE % vaddr)
    result = WalkResult()
    leaf = _descend(space, vaddr, result)
    if leaf is not None:
        result.pte, result.page_size, result.paddr = leaf
        result.vpn = _page_vpn(vaddr, result.page_size)
    return result


def _merge_flags(guest_flags, host_flags):
    # Permissions and accessed/dirty combine restrictively; U and G are
    # properties of the guest mapping alone.
    both = guest_flags & host_flags & (PTE_R | PTE_W | PTE_X | PTE_A | PTE_D)
    return PTE_V | both | (guest_flags & (PTE_U | PTE_G))


def walk_two_stage(guest, host, gvaddr):
    """SV39x4-style nested walk: the guest walk where every guest-physical
    access (guest PTE addresses and the final translated address) is first
    translated by a full walk of the guest-physical space `host`.  The
    access list interleaves host and guest PTE fetches in true order."""
    if not guest.check_addr(gvaddr):
        raise ValueError("address 0x%x violates the guest space's addressing rules" % gvaddr)
    result = WalkResult()
    leaf = _descend(guest, gvaddr, result, host)
    if leaf is None:
        result.fault_stage = result.fault_stage or "guest"
        return result
    pte, guest_size, gpa = leaf
    if gpa >> GPA_BITS:
        raise ValueError(_OUTSIDE % gpa)
    final = _descend(host, gpa, result)
    if final is None:
        result.fault_stage = "host"
        return result
    host_pte, host_size, result.paddr = final
    merged_size = min(guest_size, host_size)
    result.vpn = _page_vpn(gvaddr, merged_size)
    result.page_size = merged_size
    base_ppn = (result.paddr & ~(merged_size - 1)) >> PAGE_SHIFT
    result.pte = make_pte(base_ppn, _merge_flags(pte & 0xFF, host_pte & 0xFF))
    return result

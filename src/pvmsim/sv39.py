"""SV39 address arithmetic and page-table-entry encoding shared by the TLB
and the walker.

Virtual addresses are 39 bits, translated by a three-level radix tree
with 9 index bits per level:

    38        30 29        21 20        12 11          0
   [  VPN[2]   |   VPN[1]   |   VPN[0]   | page offset ]

Leaves may sit at any level, giving 4 KiB, 2 MiB ("mega") and 1 GiB
("giga") pages.  A PTE packs the physical page number above ten flag /
reserved bits:

    pte = ppn << 10 | flags      flags: D A G U X W R V (bit 7 .. bit 0)
"""

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
LEVELS = 3
INDEX_BITS = 9
VA_BITS = PAGE_SHIFT + LEVELS * INDEX_BITS  # 39

# Leaf page sizes when the walk stops at level 0, 1 or 2 (the root).
SIZE_4K = 1 << PAGE_SHIFT
SIZE_2M = SIZE_4K << INDEX_BITS
SIZE_1G = SIZE_2M << INDEX_BITS
PAGE_SIZES = (SIZE_4K, SIZE_2M, SIZE_1G)

PTE_V = 1 << 0
PTE_R = 1 << 1
PTE_W = 1 << 2
PTE_X = 1 << 3
PTE_U = 1 << 4
PTE_G = 1 << 5
PTE_A = 1 << 6
PTE_D = 1 << 7

PTE_LEAF_MASK = PTE_R | PTE_W | PTE_X
PPN_SHIFT = 10  # the physical page number sits above the ten flag bits

# Virtual page numbers are 27 bits; the bits above them only carry the
# sign extension checked by is_canonical().
VPN_MASK = (1 << (LEVELS * INDEX_BITS)) - 1


def is_canonical(vaddr):
    """Bits 63:39 must replicate bit 38 (the sign-extension rule)."""
    upper = vaddr >> (VA_BITS - 1)
    return upper == 0 or upper == (1 << (64 - VA_BITS + 1)) - 1


def make_pte(ppn, flags):
    return (ppn << PPN_SHIFT) | flags

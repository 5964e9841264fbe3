"""Tree-PLRU replacement state with partition and lock constraints.

One bit per internal node of a complete binary tree over the slots
("leaves"), packed into one int: bit n is node n, numbered in level order:

                [0]
              /     \\
           [1]       [2]
          /   \\     /   \\
        [3]   [4]  [5]   [6]
        / \\   / \\  / \\   / \\
       0   1 2   3 4  5 6   7      <- leaf indices (8-slot tree)

Bit value 0 means the node currently points at its left child, 1 at its
right child.  Touching a slot flips every bit on its root path so the
path points away from that slot; selecting a victim walks down from the
root following the bits.

Two mechanisms constrain which leaves a victim walk may reach:

* partitions -- the leaves split into ``partition_count`` contiguous,
  subtree-aligned groups; a selection mask enables groups for
  replacement.  With partition_count == leaf_count every leaf has its
  own mask bit.
* locks -- individual leaves can be locked, making them permanently
  ineligible as victims (their content can still be hit).

A leaf is *reachable* when its partition bit is enabled and it is not
locked.  The victim walk takes the pointed-to branch at every node
unless that branch's subtree holds no reachable leaf at all, in which
case it falls back to the sibling branch.  The walk additionally looks
one step ahead: before descending into a pointed-to internal child, it
checks where that child in turn points; if that next hop is an
unreachable leaf while the sibling subtree still has reachable leaves,
the walk diverts to the sibling early instead of burrowing toward the
dead end.  With everything reachable neither constraint ever fires and
the walk degenerates to the textbook tree-PLRU victim choice.

Selection never modifies the tree; pairing a selection with a touch of
the chosen leaf is what ``insert`` does.

The bits take that one format in a ``PlruTree`` (a TLB's replacement
state) and in the packed int a cache keeps per set, and there is one
definition of each operation on them.  ``touch_masks`` gives, per leaf,
the AND/OR pair that points the leaf's root path away from it;
``PlruTree.touch`` applies it and so do the caches.  ``victim_table``
holds the victim walk: under one reachable-leaf mask it maps each packed
state to its victim, walked the first time that state is looked up.
``PlruTree.select_victim`` indexes the table for its partition mask and
locks with its bits, and a cache indexes the table for its unlocked ways
with a set's int.
"""

import functools


def is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def check_tree(leaf_count, partition_count, leaves="leaf_count", parts="partition_count"):
    """Raise ValueError unless a tree of this shape can be built; `leaves`
    and `parts` name the two numbers in the message."""
    if leaf_count < 2 or not is_pow2(leaf_count):
        raise ValueError("%s must be a power of two >= 2, got %r" % (leaves, leaf_count))
    if not is_pow2(partition_count) or partition_count > leaf_count:
        raise ValueError(
            "%s must be a power of two <= %s, got %r" % (parts, leaves, partition_count)
        )


@functools.cache
def _leaf_mask(leaf_count, partition_count, enabled):
    """Bitmap of the leaves partition mask `enabled` enables; partition p
    holds the p-th run of leaf_count // partition_count leaves.  Raises
    ValueError on a mask wider than the partitions."""
    if not 0 <= enabled < 1 << partition_count:
        raise ValueError(
            "partition mask 0x%x does not fit %d partitions" % (enabled, partition_count)
        )
    per = leaf_count // partition_count
    return sum(((1 << per) - 1) << p * per for p in range(partition_count) if enabled >> p & 1)


class PlruTree:
    """Replacement state for one fully associative structure, such as a
    TLB; a cache keeps each set's bits as a bare int instead."""

    __slots__ = ("leaf_count", "partition_count", "bits", "locked", "_touch")

    def __init__(self, leaf_count, partition_count=1):
        check_tree(leaf_count, partition_count)
        self.leaf_count = leaf_count
        self.partition_count = partition_count
        self.bits = 0  # packed node bits, bit n = node n
        self.locked = 0  # bitmap over leaves
        self._touch = touch_masks(leaf_count)

    # -- constraint bookkeeping ------------------------------------------

    def set_lock(self, leaf, locked=True):
        """Mark `leaf` (un)available for victim selection, independent of partitions."""
        self.check_leaf(leaf)
        if locked:
            self.locked |= 1 << leaf
        else:
            self.locked &= ~(1 << leaf)

    def enabled_leaves(self, enabled):
        """Expand a partition mask into the bitmap of leaves it enables."""
        return _leaf_mask(self.leaf_count, self.partition_count, enabled)

    # -- the three core operations ---------------------------------------

    def touch(self, leaf):
        """Point every node on the root path away from `leaf` (access/refill update).

        Bits are updated unconditionally, including on paths shared with
        disabled partitions; isolation is enforced purely by reachability
        at selection time.
        """
        self.check_leaf(leaf)
        ands, ors = self._touch
        self.bits = self.bits & ands[leaf] | ors[leaf]

    def select_victim(self, enabled):
        """The victim under `enabled`: a leaf index, or None if no leaf is
        reachable.  Does not modify any state."""
        reach = self.enabled_leaves(enabled) & ~self.locked
        return victim_table(self.leaf_count, reach)[self.bits]

    def insert(self, enabled):
        """Pick a victim under `enabled` and touch it; None means the fill
        has nowhere to go and must be dropped by the caller.  This is
        select_victim then touch, on the tables both use."""
        n, bits = self.leaf_count, self.bits
        victim = victim_table(n, _leaf_mask(n, self.partition_count, enabled) & ~self.locked)[bits]
        if victim is not None:
            ands, ors = self._touch
            self.bits = bits & ands[victim] | ors[victim]
        return victim

    # -- helpers -----------------------------------------------------------

    def check_leaf(self, leaf):
        """Raise ValueError unless `leaf` indexes one of this tree's leaves."""
        if not 0 <= leaf < self.leaf_count:
            raise ValueError("leaf index %r out of range [0, %d)" % (leaf, self.leaf_count))

    def snapshot_bits(self):
        """The node bits as a level-order tuple of 0/1."""
        return tuple(unpack_bits(self.bits, self.leaf_count))

    def load_bits(self, bits):
        """Set the node bits from a level-order sequence of 0/1."""
        bits = list(bits)
        if len(bits) != self.leaf_count - 1 or any(b not in (0, 1) for b in bits):
            raise ValueError("need %d node bits of 0/1" % (self.leaf_count - 1))
        self.bits = sum(b << n for n, b in enumerate(bits))


# -- packed-state tables ---------------------------------------------------------


def unpack_bits(packed, leaf_count):
    return [packed >> n & 1 for n in range(leaf_count - 1)]


@functools.cache
def touch_masks(leaf_count):
    """(AND, OR) tuples indexed by leaf: touching leaf l maps packed bits b
    to ``b & AND[l] | OR[l]``.  AND clears the nodes on the leaf's root
    path; OR points each of them at the other side."""
    ands, ors = [], []
    for leaf in range(leaf_count):
        path = away = 0
        node = leaf_count - 1 + leaf  # heap index of the leaf
        while node:
            parent = (node - 1) >> 1
            path |= 1 << parent
            # Left children have odd heap indices; point right (1) from them.
            away |= (node & 1) << parent
            node = parent
        ands.append((1 << (leaf_count - 1)) - 1 & ~path)
        ors.append(away)
    return tuple(ands), tuple(ors)


class _VictimTable(dict):
    """Packed bits -> victim leaf (None when nothing is reachable) under
    one fixed reachable-leaf mask, each state filled on first use by the
    victim walk of the module docstring."""

    def __init__(self, leaf_count, reach):
        super().__init__()
        self._reach = reach
        # Heap layout: internal nodes occupy [0, leaf_count-1), leaf i sits
        # at heap index leaf_count-1+i.  _subtree maps heap node -> bitmap
        # of the leaves underneath it.
        self._base = base = leaf_count - 1
        self._subtree = sub = [0] * base + [1 << i for i in range(leaf_count)]
        for n in range(base - 1, -1, -1):
            sub[n] = sub[2 * n + 1] | sub[2 * n + 2]

    def __missing__(self, bits):
        reach, sub, base = self._reach, self._subtree, self._base
        node = 0
        while reach and node < base:
            bit = bits >> node & 1
            chosen = 2 * node + 1 + bit
            other = 2 * node + 2 - bit
            if not sub[chosen] & reach:
                node = other  # pointed-to side is completely dead
                continue
            if sub[other] & reach and chosen < base:
                hop = 2 * chosen + 1 + (bits >> chosen & 1)
                if hop >= base and not sub[hop] & reach:
                    node = other  # next hop is a dead leaf: divert early
                    continue
            node = chosen
        victim = self[bits] = node - base if reach else None
        return victim


@functools.cache
def victim_table(leaf_count, reach):
    """The victim of every packed state of a tree with one partition per
    leaf, where `reach` is the bitmap of leaves that may be chosen.  Index
    it with the packed node bits; ``PlruTree.select_victim`` and every
    cache set do."""
    return _VictimTable(leaf_count, reach)

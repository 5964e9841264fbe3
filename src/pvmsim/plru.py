"""Tree-PLRU replacement state with partition and lock constraints.

One bit per internal node of a complete binary tree over the slots
("leaves").  Bits are stored in level order:

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

Structures with many small trees (one per cache set) keep each set's
node bits packed into one int (bit n = node n) and drive it through
tables derived here from ``PlruTree`` itself, so the policy is still
defined only once: ``touch_masks`` gives the per-leaf AND/OR pair of a
touch, ``victim_table`` the victim for every packed state under one
reachable-leaf mask.
"""

import functools


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def check_tree(leaf_count, partition_count, leaves="leaf_count", parts="partition_count"):
    """Raise ValueError unless a tree of this shape can be built; `leaves`
    and `parts` name the two numbers in the message."""
    if leaf_count < 2 or not _is_pow2(leaf_count):
        raise ValueError("%s must be a power of two >= 2, got %r" % (leaves, leaf_count))
    if not _is_pow2(partition_count) or partition_count > leaf_count:
        raise ValueError(
            "%s must be a power of two <= %s, got %r" % (parts, leaves, partition_count)
        )


# Geometry tables depend only on (leaf_count, partition_count); they are
# shared across instances so that building many small trees (one per cache
# set) stays cheap.  The expansion cache memoizes a pure function.
_GEOMETRY = {}


def _geometry(leaf_count, partition_count):
    key = (leaf_count, partition_count)
    geom = _GEOMETRY.get(key)
    if geom is None:
        heap_base = leaf_count - 1
        subtree = [0] * (2 * leaf_count - 1)
        for i in range(leaf_count):
            subtree[heap_base + i] = 1 << i
        for n in range(heap_base - 1, -1, -1):
            subtree[n] = subtree[2 * n + 1] | subtree[2 * n + 2]
        per = leaf_count // partition_count
        part_masks = tuple(((1 << per) - 1) << (p * per) for p in range(partition_count))
        geom = _GEOMETRY[key] = (tuple(subtree), part_masks, {})
    return geom


class PlruTree:
    """Replacement state for one fully associative structure or one cache set."""

    __slots__ = (
        "leaf_count",
        "partition_count",
        "node_bits",
        "locked",
        "_heap_base",
        "_subtree",
        "_part_masks",
        "_expand_cache",
        "full_mask",
    )

    def __init__(self, leaf_count, partition_count=1):
        check_tree(leaf_count, partition_count)
        self.leaf_count = leaf_count
        self.partition_count = partition_count
        self.node_bits = [0] * (leaf_count - 1)
        self.locked = 0  # bitmap over leaves
        # Heap layout: internal nodes occupy [0, leaf_count-1), leaf i sits
        # at heap index leaf_count-1+i.  _subtree maps heap node -> bitmap
        # of the leaves underneath it.
        self._heap_base = leaf_count - 1
        self._subtree, self._part_masks, self._expand_cache = _geometry(
            leaf_count, partition_count
        )
        self.full_mask = (1 << partition_count) - 1

    # -- constraint bookkeeping ------------------------------------------

    def set_lock(self, leaf, locked=True):
        """Mark `leaf` (un)available for victim selection, independent of partitions."""
        self._check_leaf(leaf)
        if locked:
            self.locked |= 1 << leaf
        else:
            self.locked &= ~(1 << leaf)

    def enabled_leaves(self, enabled):
        """Expand a partition mask into the bitmap of leaves it enables."""
        if not 0 <= enabled <= self.full_mask:
            raise ValueError(
                "partition mask 0x%x does not fit %d partitions" % (enabled, self.partition_count)
            )
        leafmask = self._expand_cache.get(enabled)
        if leafmask is None:
            leafmask = 0
            for p, pm in enumerate(self._part_masks):
                if enabled >> p & 1:
                    leafmask |= pm
            self._expand_cache[enabled] = leafmask
        return leafmask

    # -- the three core operations ---------------------------------------

    def touch(self, leaf):
        """Point every node on the root path away from `leaf` (access/refill update).

        Bits are updated unconditionally, including on paths shared with
        disabled partitions; isolation is enforced purely by reachability
        at selection time.
        """
        self._check_leaf(leaf)
        bits = self.node_bits
        node = self._heap_base + leaf
        while node:
            parent = (node - 1) >> 1
            # Left children have odd heap indices; point at the other side.
            bits[parent] = node & 1
            node = parent

    def select_victim(self, enabled):
        """Walk the tree under `enabled`; return a leaf index, or None if
        no leaf is reachable.  Does not modify any state."""
        reach = self.enabled_leaves(enabled) & ~self.locked
        if not reach:
            return None
        bits = self.node_bits
        sub = self._subtree
        base = self._heap_base
        node = 0
        while node < base:
            bit = bits[node]
            chosen = 2 * node + 1 + bit
            other = 2 * node + 2 - bit
            if not sub[chosen] & reach:
                node = other  # pointed-to side is completely dead
                continue
            if sub[other] & reach and chosen < base:
                hop = 2 * chosen + 1 + bits[chosen]
                if hop >= base and not sub[hop] & reach:
                    node = other  # next hop is a dead leaf: divert early
                    continue
            node = chosen
        return node - base

    def insert(self, enabled):
        """Pick a victim under `enabled` and touch it; None means the fill
        has nowhere to go and must be dropped by the caller."""
        victim = self.select_victim(enabled)
        if victim is not None:
            self.touch(victim)
        return victim

    # -- helpers -----------------------------------------------------------

    def _check_leaf(self, leaf):
        if not 0 <= leaf < self.leaf_count:
            raise ValueError("leaf index %r out of range [0, %d)" % (leaf, self.leaf_count))

    def snapshot_bits(self):
        return tuple(self.node_bits)

    def load_bits(self, bits):
        bits = list(bits)
        if len(bits) != self.leaf_count - 1 or any(b not in (0, 1) for b in bits):
            raise ValueError("need %d node bits of 0/1" % (self.leaf_count - 1))
        self.node_bits[:] = bits


# -- packed-state tables ---------------------------------------------------------


def pack_bits(bits):
    """Node bits (level order) as one int, bit n = node n."""
    return sum(b << n for n, b in enumerate(bits))


def unpack_bits(packed, leaf_count):
    return [packed >> n & 1 for n in range(leaf_count - 1)]


@functools.cache
def touch_masks(leaf_count):
    """(AND, OR) tuples indexed by leaf: touching leaf l maps packed bits b
    to ``b & AND[l] | OR[l]``.  Derived by touching a tree of all-zero and
    of all-one bits: nodes that keep their value are off the root path."""
    tree = PlruTree(leaf_count)
    nodes = leaf_count - 1
    ands, ors = [], []
    for leaf in range(leaf_count):
        tree.load_bits([0] * nodes)
        tree.touch(leaf)
        from_zero = pack_bits(tree.node_bits)
        tree.load_bits([1] * nodes)
        tree.touch(leaf)
        from_one = pack_bits(tree.node_bits)
        ands.append(from_one & ~from_zero)
        ors.append(from_zero)
    return tuple(ands), tuple(ors)


class _VictimTable(dict):
    """Packed bits -> victim leaf (None when nothing is reachable) under
    one fixed reachable-leaf mask, filled on first use of each state."""

    def __init__(self, leaf_count, reach):
        super().__init__()
        self._tree = PlruTree(leaf_count, leaf_count)
        self._reach = reach

    def __missing__(self, packed):
        tree = self._tree
        tree.load_bits(unpack_bits(packed, tree.leaf_count))
        victim = self[packed] = tree.select_victim(self._reach)
        return victim


@functools.cache
def victim_table(leaf_count, reach):
    """The victim of ``PlruTree.select_victim`` for every packed state of a
    tree with one partition per leaf, where `reach` is the bitmap of
    leaves that may be chosen.  Index it with the packed node bits."""
    return _VictimTable(leaf_count, reach)

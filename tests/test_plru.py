"""Replacement-tree tests: golden vectors, exhaustive small-instance sweeps
against the brute-force oracle, and randomized property checks."""

import itertools
import random

import pytest

from pvmsim.plru import PlruTree, unpack_bits, victim_table
from pvmsim.vectors import (
    BITS_AFTER_INSERT5,
    BITS_AFTER_TOUCH1,
    START_BITS,
    run_reference_vectors,
)

from oracles import (
    partition_leaves_ref,
    plru_constrained_victim_ref,
    plru_touch_ref,
    plru_victim_ref,
)


def all_states(leaf_count):
    return itertools.product((0, 1), repeat=leaf_count - 1)


def sample_16(rng):
    """256 random packed states of a 16-leaf tree, plus all-zero and all-one."""
    return [rng.getrandbits(15) for _ in range(256)] + [0, (1 << 15) - 1]


def make_tree(leaf_count, bits, partition_count=1, locked=0):
    tree = PlruTree(leaf_count, partition_count)
    tree.load_bits(bits)
    tree.locked = locked
    return tree


# -- construction guards ----------------------------------------------------

def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        PlruTree(6)
    with pytest.raises(ValueError):
        PlruTree(1)
    with pytest.raises(ValueError):
        PlruTree(8, partition_count=3)
    with pytest.raises(ValueError):
        PlruTree(8, partition_count=16)


def test_rejects_out_of_range_indices():
    tree = PlruTree(8)
    with pytest.raises(ValueError):
        tree.touch(8)
    with pytest.raises(ValueError):
        tree.touch(-1)
    with pytest.raises(ValueError):
        tree.set_lock(9)
    with pytest.raises(ValueError):
        tree.select_victim(0b10)  # mask wider than one partition


# -- touch -------------------------------------------------------------------

def test_touch_leftmost_from_zero():
    # Touching slot 0 of an all-zero tree must point root/node1/node3 right.
    tree = PlruTree(8)
    tree.touch(0)
    assert tree.snapshot_bits() == (1, 1, 0, 1, 0, 0, 0)


def check_touch(leaf_count, states):
    for bits in states:
        for leaf in range(leaf_count):
            tree = make_tree(leaf_count, bits)
            tree.touch(leaf)
            assert list(tree.snapshot_bits()) == plru_touch_ref(bits, leaf_count, leaf)


@pytest.mark.parametrize("leaf_count", [2, 4, 8])
def test_touch_matches_reference_everywhere(leaf_count):
    check_touch(leaf_count, all_states(leaf_count))


def test_touch_matches_reference_16_leaves():
    # Every leaf on the sample of states the packed-table test uses.
    check_touch(16, [unpack_bits(packed, 16) for packed in sample_16(random.Random(16))])


@pytest.mark.parametrize("leaf_count", [2, 4, 8])
def test_touch_soundness(leaf_count):
    # Immediately after touch(L) the unconstrained victim is never L.
    for bits in all_states(leaf_count):
        for leaf in range(leaf_count):
            tree = make_tree(leaf_count, bits)
            tree.touch(leaf)
            assert tree.select_victim(0b1) != leaf


# -- golden vectors ----------------------------------------------------------

def test_reference_vectors_pass():
    for name, passed, failures in run_reference_vectors():
        assert passed, "%s: %s" % (name, failures)


def test_baseline_vector_states_match_reference_update():
    # The frozen bit tuples in the vectors module must agree with the
    # independently formulated access update.
    assert tuple(plru_touch_ref(START_BITS, 8, 1)) == BITS_AFTER_TOUCH1
    assert tuple(plru_touch_ref(BITS_AFTER_TOUCH1, 8, 5)) == BITS_AFTER_INSERT5


def test_locked_walk_falls_back_within_pair_when_sibling_is_last_resort():
    # Lock slot 5 but enable only the {4,5} pair: slot 4 is the one
    # reachable leaf, so the walk must still descend to it rather than
    # divert away.
    tree = make_tree(8, BITS_AFTER_TOUCH1, partition_count=8, locked=1 << 5)
    assert tree.select_victim(0b0011_0000) == 4


def test_insert_sequence_from_cold_tree():
    tree = PlruTree(8)
    assert tree.insert(0b1) == 0
    assert tree.insert(0b1) == 4  # root flipped away from slot 0's half


# -- select_victim basics ----------------------------------------------------

def test_empty_mask_returns_none():
    tree = make_tree(8, BITS_AFTER_TOUCH1, partition_count=8)
    assert tree.select_victim(0) is None
    assert tree.insert(0) is None
    assert tree.snapshot_bits() == BITS_AFTER_TOUCH1  # dropped insert mutates nothing


def test_full_lockdown_returns_none():
    tree = PlruTree(4)
    for leaf in range(4):
        tree.set_lock(leaf)
    assert tree.select_victim(0b1) is None


def test_partition_subset_4leaf_exhaustive():
    # With only the {2,3} pair enabled, every state selects from that pair.
    for bits in all_states(4):
        tree = make_tree(4, bits, partition_count=4)
        assert tree.select_victim(0b1100) in (2, 3)


def test_lock_immortality_8leaf_all_states():
    for bits in all_states(8):
        tree = make_tree(8, bits, locked=1 << 5)
        assert tree.select_victim(0b1) != 5


def test_unlock_restores_baseline_sequence():
    rng = random.Random(7)
    trace = [rng.randrange(8) for _ in range(200)]
    plain = PlruTree(8)
    toggled = PlruTree(8)
    toggled.set_lock(3)
    toggled.set_lock(3, False)
    for leaf in trace:
        plain.touch(leaf)
        toggled.touch(leaf)
        assert plain.select_victim(0b1) == toggled.select_victim(0b1)


# -- exhaustive equivalence with the brute-force oracle -----------------------

def exhaustive_reach_product(leaf_count):
    """Walk equivalence for every (state, reachable-set) pair, plus the
    mask/lock expansion for every (partition_count, mask, lock-set) triple.
    select_victim factors exactly through these two maps, so together the
    sweeps cover the full state x mask x lock product."""
    # (a) expansion: every partition width, every mask, every lock set.
    for pc in [1 << i for i in range(leaf_count.bit_length())]:
        tree = PlruTree(leaf_count, pc)
        for mask in range(1 << pc):
            want_enabled = partition_leaves_ref(leaf_count, pc, mask)
            got = tree.enabled_leaves(mask)
            assert {l for l in range(leaf_count) if got >> l & 1} == want_enabled
    # (b) the walk itself: every state x every reachable set.
    mismatches = 0
    for bits in all_states(leaf_count):
        for reach_bits in range(1 << leaf_count):
            reachable = {l for l in range(leaf_count) if reach_bits >> l & 1}
            tree = make_tree(leaf_count, bits, partition_count=leaf_count,
                             locked=((1 << leaf_count) - 1) ^ reach_bits)
            got = tree.select_victim((1 << leaf_count) - 1)
            want = plru_constrained_victim_ref(list(bits), leaf_count, reachable)
            if got != want:
                mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("leaf_count", [4, 8])
def test_exhaustive_against_oracle(leaf_count):
    exhaustive_reach_product(leaf_count)


def test_full_product_literal_4leaf():
    # Small enough to sweep end to end without factoring.
    for bits in all_states(4):
        for pc in (1, 2, 4):
            for mask in range(1 << pc):
                for locked in range(1 << 4):
                    tree = make_tree(4, bits, partition_count=pc, locked=locked)
                    reachable = partition_leaves_ref(4, pc, mask) - {
                        l for l in range(4) if locked >> l & 1
                    }
                    want = plru_constrained_victim_ref(list(bits), 4, reachable)
                    assert tree.select_victim(mask) == want


def sampled_product_8leaf(samples, seed):
    rng = random.Random(seed)
    for _ in range(samples):
        bits = tuple(rng.randrange(2) for _ in range(7))
        pc = rng.choice((1, 2, 4, 8))
        mask = rng.randrange(1 << pc)
        locked = rng.randrange(1 << 8)
        tree = make_tree(8, bits, partition_count=pc, locked=locked)
        reachable = partition_leaves_ref(8, pc, mask) - {
            l for l in range(8) if locked >> l & 1
        }
        want = plru_constrained_victim_ref(list(bits), 8, reachable)
        got = tree.select_victim(mask)
        assert got == want, (bits, pc, mask, locked)


def test_sampled_product_8leaf():
    sampled_product_8leaf(20_000, seed=11)


# -- randomized properties -----------------------------------------------------

def test_isolation_random_draws():
    # insert() under mask M only ever returns leaves whose partition is in M.
    rng = random.Random(23)
    for _ in range(10_000):
        pc = rng.choice((2, 4, 8, 16))
        tree = PlruTree(16, pc)
        tree.load_bits([rng.randrange(2) for _ in range(15)])
        tree.locked = rng.getrandbits(16) & rng.getrandbits(16)
        mask = rng.randrange(1, 1 << pc)
        victim = tree.insert(mask)
        if victim is not None:
            assert victim in partition_leaves_ref(16, pc, mask)
            assert not tree.locked >> victim & 1


def test_vanilla_equivalence_random_trace():
    # Unconstrained, the victim stream matches the textbook policy exactly.
    rng = random.Random(31)
    for leaf_count in (4, 8, 16):
        tree = PlruTree(leaf_count)
        bits = [0] * (leaf_count - 1)
        for _ in range(2000):
            if rng.random() < 0.5:
                leaf = rng.randrange(leaf_count)
                tree.touch(leaf)
                bits = plru_touch_ref(bits, leaf_count, leaf)
            else:
                got = tree.insert(0b1)
                want = plru_victim_ref(bits, leaf_count)
                assert got == want
                bits = plru_touch_ref(bits, leaf_count, want)
            assert list(tree.snapshot_bits()) == bits


def test_insert_is_select_victim_then_touch():
    # insert picks and touches through the tables directly; it must agree
    # with the two public steps it stands for, and a mask too wide for the
    # partitions raises before any bit moves.
    rng = random.Random(17)
    for _ in range(3000):
        leaf_count = rng.choice((2, 4, 8, 16))
        pc = rng.choice([p for p in (1, 2, 4, 8, 16) if p <= leaf_count])
        bits = unpack_bits(rng.getrandbits(leaf_count - 1), leaf_count)
        locked = rng.getrandbits(leaf_count) & rng.getrandbits(leaf_count)
        tree, twin = make_tree(leaf_count, bits, pc, locked), make_tree(leaf_count, bits, pc, locked)
        mask = rng.randrange(1 << pc)
        want = twin.select_victim(mask)
        if want is not None:
            twin.touch(want)
        assert tree.insert(mask) == want
        assert tree.bits == twin.bits
        for bad in (1 << pc, -1):
            with pytest.raises(ValueError):
                tree.insert(bad)
            assert tree.bits == twin.bits


def test_selection_is_pure():
    rng = random.Random(5)
    for _ in range(500):
        tree = PlruTree(8, 8)
        tree.load_bits([rng.randrange(2) for _ in range(7)])
        tree.locked = rng.getrandbits(8)
        before = (tree.snapshot_bits(), tree.locked)
        tree.select_victim(rng.getrandbits(8))
        assert (tree.snapshot_bits(), tree.locked) == before


# -- packed-state tables (per-set cache replacement) -----------------------------


def check_packed_victims(leaf_count, reach, states):
    """Checks the tables against the oracle: PlruTree.select_victim reads
    these same tables, so comparing with it would prove nothing."""
    table = victim_table(leaf_count, reach)
    reachable = {leaf for leaf in range(leaf_count) if reach >> leaf & 1}
    for packed in states:
        want = plru_constrained_victim_ref(unpack_bits(packed, leaf_count), leaf_count, reachable)
        assert table[packed] == want, (packed, reach)


@pytest.mark.parametrize("leaf_count", [2, 4, 8])
def test_packed_tables_match_tree_exhaustively(leaf_count):
    states = range(1 << (leaf_count - 1))
    for reach in range(1 << leaf_count):
        check_packed_victims(leaf_count, reach, states)


def test_packed_tables_match_tree_16_ways():
    # 2^15 states x 2^16 reachable sets is out of reach; every state is
    # checked under full reach, and 64 reachable sets on a sample of states.
    rng = random.Random(16)
    states = range(1 << 15)
    sample = sample_16(rng)
    check_packed_victims(16, (1 << 16) - 1, states)
    for reach in [0, 1 << 15] + [rng.getrandbits(16) for _ in range(62)]:
        check_packed_victims(16, reach, sample)


def test_load_bits_takes_one_bit_per_node():
    tree = PlruTree(8, 1)
    for bits in ([0] * 6, [0] * 8, [0] * 6 + [2]):
        with pytest.raises(ValueError, match="^need 7 node bits of 0/1$"):
            tree.load_bits(bits)
    assert tree.bits == 0

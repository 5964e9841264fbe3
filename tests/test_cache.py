"""Cache/scratchpad hybrid: set-associative behavior, way conversion,
window decode, misconfiguration semantics, and the textbook-oracle
equivalence on random traces."""

import copy
import pickle
import random
from collections import Counter

import pytest

from pvmsim.cache import (
    EVENT_HIT,
    EVENT_MISS,
    EVENT_SPM,
    EVENT_SPM_MISCONFIG,
    MAX_ARRAY_BYTES,
    MODE_CACHE,
    MODE_SPM,
    WORD_BYTES,
    Cache,
    Memory,
    UnmappedAddress,
    check_geometry,
    check_spm_window,
)
from pvmsim.hypervisor import DSPM_BASE, ISPM_BASE, MEMORY_REGIONS
from oracles import CacheRef, spm_decode_ref
from state_views import data_words, memory_words, probe, spm_word, tag_state

RAM_BASE = 0x8000_0000
RAM_SIZE = 1 << 20
SPM_BASE = 0x1000_0000  # aligned to any power-of-two array size used here


def make_cache(ways=4, sets=8, line_bytes=16):
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    return Cache(mem, ways=ways, sets=sets, line_bytes=line_bytes, spm_base=SPM_BASE), mem


def same_set_addr(cache, set_idx, k, word=0):
    """k-th distinct line that decodes to `set_idx` (k selects the tag)."""
    return RAM_BASE + k * cache.sets * cache.line_bytes + set_idx * cache.line_bytes + 8 * word


# -- construction and guard rails --------------------------------------------


def test_geometry_must_be_powers_of_two():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    with pytest.raises(ValueError):
        Cache(mem, ways=3, sets=8, line_bytes=16, spm_base=SPM_BASE)
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=10, line_bytes=16, spm_base=SPM_BASE)
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=24, spm_base=SPM_BASE)
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=4, spm_base=SPM_BASE)  # below word size


def test_spm_base_must_be_size_aligned():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    size = 4 * 8 * 16
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE + size // 2)


def test_spm_window_may_not_overlap_memory():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=RAM_BASE)
    # A region strictly inside the window holds neither of its ends.
    with pytest.raises(ValueError, match="overlaps a backing-memory region"):
        check_spm_window(0x1000_0000, 0x1000_0000, Memory([(0x1800_0000, 0x1000)]))


def test_spm_windows_on_one_memory_may_not_overlap():
    """Scratchpad words live in their memory's one word store, so two
    caches on one memory with overlapping windows would share words: the
    later cache is refused, and a refused window is not recorded."""
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE)  # a 512-byte window
    message = "^SPM window overlaps another scratchpad window on its memory$"
    for ways, sets, base in ((2, 8, SPM_BASE + 256), (4, 16, SPM_BASE), (4, 8, SPM_BASE)):
        with pytest.raises(ValueError, match=message):
            Cache(mem, ways=ways, sets=sets, line_bytes=16, spm_base=base)
    Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE + 512)  # the next window
    Cache(Memory([(RAM_BASE, RAM_SIZE)]), ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE)


def test_an_array_above_the_bound_is_refused_at_build():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    with pytest.raises(ValueError, match=r"^ways \* sets \* line_bytes is 0x800000 bytes, "
                                         r"more than 0x400000$"):
        Cache(mem, ways=8, sets=MAX_ARRAY_BYTES // 64, line_bytes=16, spm_base=SPM_BASE)
    assert mem._windows == []


def test_both_windows_fit_every_admitted_array():
    """The array bound is all the window check needs at load: every array
    check_geometry admits is a power of two of 16 bytes (2 ways, 1 set,
    8-byte lines) to MAX_ARRAY_BYTES, and both windows of the modeled
    layout fit each such size on one memory."""
    size = 2 * 1 * WORD_BYTES
    check_geometry(2, 1, WORD_BYTES)
    sizes = []
    while size <= MAX_ARRAY_BYTES:
        mem = Memory(MEMORY_REGIONS)
        check_spm_window(DSPM_BASE, size, mem)
        check_spm_window(ISPM_BASE, size, mem)
        sizes.append(size)
        size *= 2
    assert sizes[-1] == MAX_ARRAY_BYTES and len(sizes) == 19


def test_unmapped_address_is_a_configuration_error():
    cache, _ = make_cache()
    with pytest.raises(UnmappedAddress):
        cache.access(0x4000_0000, "read")


@pytest.mark.parametrize("all_spm", (False, True), ids=("victim", "fill-drop"))
@pytest.mark.parametrize("where", ("unmapped", "cut"))
@pytest.mark.parametrize("kind", ("read", "write"))
def test_miss_outside_memory_changes_nothing(kind, where, all_spm):
    """A miss on an unmapped line, or on a line that a region boundary
    cuts, raises before any tag, dirty bit, PLRU bit, statistic, data word
    or memory word moves: with a dirty victim waiting, and with every way
    SPM, where the miss would go straight to memory."""
    mem = Memory([(RAM_BASE, RAM_SIZE - 8)])  # the last line keeps one word
    cache = Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE)
    paddr = RAM_BASE + RAM_SIZE - 16 if where == "cut" else 0x4000_0000 + 5 * 16
    set_idx = paddr // cache.line_bytes % cache.sets
    for k in range(cache.ways):
        cache.access(same_set_addr(cache, set_idx, k), "write", value=k + 1)
    mem.write_word(RAM_BASE + RAM_SIZE - 16, 3)
    if all_spm:
        for way in range(cache.ways):
            cache.configure_way(way, MODE_SPM)

    def state():
        return tag_state(cache), dict(cache.stats), data_words(cache), memory_words(mem)

    before = state()
    with pytest.raises(UnmappedAddress):
        cache.access(paddr, kind, 9 if kind == "write" else None)
    assert state() == before


def test_memory_region_needs_a_base_and_a_size():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    for base, size in ((RAM_BASE + RAM_SIZE, 0), (RAM_BASE + RAM_SIZE, -16), (-16, 16)):
        with pytest.raises(ValueError, match="^region base/size must be non-negative/positive$"):
            mem.add_region(base, size)
    assert not mem.overlaps(RAM_BASE + RAM_SIZE, 1) and not mem.overlaps(-16, 16)


def test_memory_reads_default_to_zero_inside_regions():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    assert mem.read_word(RAM_BASE + 0x100) == 0
    mem.write_word(RAM_BASE + 0x100, 7)
    assert mem.read_word(RAM_BASE + 0x100) == 7
    with pytest.raises(UnmappedAddress):
        mem.read_word(RAM_BASE - 8)


def test_memory_keeps_one_word_dict_for_life():
    """A cache's step holds its memory's word dict, so restoring a
    snapshot must refill that dict, not replace it: the cache's later fill
    reads the restored word, and its store lands where the memory's
    snapshot sees it."""
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    a = Cache(mem, ways=2, sets=4, line_bytes=16, spm_base=SPM_BASE)
    mem.write_word(RAM_BASE + 0x08, 1)
    state = mem.snapshot()
    mem.write_word(RAM_BASE + 0x08, 2)
    mem.restore(state)
    assert tuple(a.access(RAM_BASE + 0x08, "read")) == (EVENT_MISS, 1)
    a.access(RAM_BASE + 0x08, "write", value=7)
    for k in (1, 2):  # two more lines of set 0 evict the dirty one
        a.access(same_set_addr(a, 0, k), "read")
    assert probe(a, RAM_BASE) is None and a.stats["write_backs"] == 1
    assert memory_words(mem) == ((RAM_BASE + 0x08, 7),)


# -- plain cache behavior ------------------------------------------------------


def test_cold_read_misses_then_hits():
    cache, mem = make_cache()
    mem.write_word(RAM_BASE + 0x40, 0xDEAD)
    first = cache.access(RAM_BASE + 0x40, "read")
    second = cache.access(RAM_BASE + 0x40, "read")
    assert (first.event, first.value) == (EVENT_MISS, 0xDEAD)
    assert (second.event, second.value) == (EVENT_HIT, 0xDEAD)
    assert cache.stats["misses"] == 1 and cache.stats["hits"] == 1


def test_write_allocate_installs_dirty_line():
    cache, mem = make_cache()
    res = cache.access(RAM_BASE + 0x80, "write", value=0x1234)
    assert res.event == EVENT_MISS
    set_idx, way = probe(cache, RAM_BASE + 0x80)
    # Write-back policy: the line is dirty and nothing is written back yet.
    assert tag_state(cache)[1][set_idx] == 1 << way and cache.stats["write_backs"] == 0
    assert cache.access(RAM_BASE + 0x80, "read").value == 0x1234


def test_neighboring_word_arrives_with_the_line():
    cache, mem = make_cache()
    mem.write_word(RAM_BASE + 0x48, 0xBEEF)
    cache.access(RAM_BASE + 0x40, "read")  # same 16-byte line
    res = cache.access(RAM_BASE + 0x48, "read")
    assert (res.event, res.value) == (EVENT_HIT, 0xBEEF)


def test_ifetch_behaves_like_read():
    cache, mem = make_cache()
    mem.write_word(RAM_BASE + 0x200, 0x13)
    assert cache.access(RAM_BASE + 0x200, "ifetch").event == EVENT_MISS
    res = cache.access(RAM_BASE + 0x200, "ifetch")
    assert (res.event, res.value) == (EVENT_HIT, 0x13)


def test_a_store_is_seen_by_the_other_cache_before_any_write_back():
    """Two caches over one memory, as the I- and D-cache are: a D-side
    store, on a hit and on a miss, is read at once by Memory.read_word and
    by an I-side fetch, whether the I-cache already held the line or
    fills it now, while the D-side line stays dirty and unwritten-back."""
    icache, mem = make_cache()
    dcache = Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=2 * SPM_BASE)
    held, cold = RAM_BASE + 0x40, RAM_BASE + 0x88
    mem.write_word(held, 1)
    assert icache.access(held, "ifetch").value == 1
    dcache.access(held, "read")
    assert dcache.access(held, "write", value=2).event == EVENT_HIT
    assert dcache.access(cold, "write", value=3).event == EVENT_MISS
    for paddr, word in ((held, 2), (cold, 3)):
        set_idx, way = probe(dcache, paddr)
        assert tag_state(dcache)[1][set_idx] == 1 << way
        assert mem.read_word(paddr) == word
    assert dcache.stats["write_backs"] == 0
    assert tuple(icache.access(held, "ifetch")) == (EVENT_HIT, 2)
    assert tuple(icache.access(cold, "ifetch")) == (EVENT_MISS, 3)


def test_eviction_writes_back_dirty_line():
    cache, mem = make_cache()  # 4 ways
    victims = [same_set_addr(cache, 3, k) for k in range(5)]
    for i, addr in enumerate(victims):
        cache.access(addr, "write", value=100 + i)
    assert cache.stats["evictions"] >= 1
    assert cache.stats["write_backs"] >= 1
    # Every value survives: either still resident or refetched from memory.
    for i, addr in enumerate(victims):
        assert cache.access(addr, "read").value == 100 + i


def test_values_truncate_to_64_bits():
    cache, _ = make_cache()
    cache.access(RAM_BASE, "write", value=1 << 70 | 0x5A)
    assert cache.access(RAM_BASE, "read").value == 0x5A


def test_write_needs_a_value():
    cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.access(RAM_BASE, "write")


@pytest.mark.parametrize("kind", ("poke", None))
def test_access_kind_is_validated(kind):
    cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.access(RAM_BASE, kind, value=1)


# -- SPM window decode ---------------------------------------------------------


def all_spm(cache):
    for way in range(cache.ways):
        cache.configure_way(way, MODE_SPM)
    return cache


def test_spm_decode_contiguous_way_mapping():
    cache, _ = make_cache()  # way span = 8 sets * 16 B = 128 B
    all_spm(cache)
    for k, (paddr, where) in enumerate((
        (SPM_BASE + 3 * 128 + 64, (3, 4, 0)),
        (SPM_BASE, (0, 0, 0)),
        (SPM_BASE + cache.size - 8, (cache.ways - 1, cache.sets - 1, cache.line_bytes // 8 - 1)),
    )):
        assert cache.access(paddr, "write", value=k + 1).event == EVENT_SPM
        assert spm_word(cache, *where) == k + 1
    # Just outside the window is an ordinary, here unmapped, address.
    for paddr in (SPM_BASE - 8, SPM_BASE + cache.size):
        with pytest.raises(UnmappedAddress):
            cache.access(paddr, "read")


def test_spm_decode_matches_range_scan_reference():
    cache, _ = make_cache(ways=8, sets=16, line_bytes=32)
    all_spm(cache)
    rng = random.Random(1009)
    shadow = {}
    for value in range(1, 10_001):
        paddr = SPM_BASE + rng.randrange(-64, cache.size + 64, 8)
        where = spm_decode_ref(SPM_BASE, cache.ways, cache.sets, cache.line_bytes, paddr)
        if where is None:
            with pytest.raises(UnmappedAddress):
                cache.access(paddr, "write", value=value)
            continue
        assert cache.access(paddr, "write", value=value).event == EVENT_SPM
        shadow[where] = value
    # Every word holds the last value written to its reference address.
    for way in range(cache.ways):
        for s in range(cache.sets):
            for w in range(cache.line_bytes // 8):
                assert spm_word(cache, way, s, w) == shadow.get((way, s, w), 0)


# -- SPM access semantics --------------------------------------------------------


def test_spm_write_read_round_trip():
    cache, _ = make_cache()
    cache.configure_way(1, MODE_SPM)
    addr = SPM_BASE + 1 * cache.way_bytes + 0x28
    res = cache.access(addr, "write", value=0xAB)
    assert (res.event, res.value) == (EVENT_SPM, None)
    res = cache.access(addr, "read")
    assert (res.event, res.value) == (EVENT_SPM, 0xAB)


def test_misconfigured_window_slice_drops_writes_and_reads_dummy():
    cache, mem = make_cache()
    # No way converted: the whole window is misconfigured territory.
    before = tag_state(cache)
    w = cache.access(SPM_BASE + 0x10, "write", value=0xAB)
    r = cache.access(SPM_BASE + 0x10, "read")
    assert (w.event, w.value) == (EVENT_SPM_MISCONFIG, None)
    assert (r.event, r.value) == (EVENT_SPM_MISCONFIG, 0)
    assert tag_state(cache) == before
    assert cache.stats["spm_misconfigs"] == 2
    assert cache.stats["spm_accesses"] == 0


def test_mixed_modes_split_the_window():
    cache, _ = make_cache()
    cache.configure_way(2, MODE_SPM)
    ok = cache.access(SPM_BASE + 2 * cache.way_bytes, "write", value=5)
    bad = cache.access(SPM_BASE + 1 * cache.way_bytes, "write", value=5)
    assert ok.event == EVENT_SPM
    assert bad.event == EVENT_SPM_MISCONFIG


def test_conversion_evicts_resident_line():
    cache, mem = make_cache()
    mem.write_word(RAM_BASE + 0x40, 77)
    cache.access(RAM_BASE + 0x40, "read")
    set_idx, way = probe(cache, RAM_BASE + 0x40)
    cache.configure_way(way, MODE_SPM)
    assert probe(cache, RAM_BASE + 0x40) is None
    res = cache.access(RAM_BASE + 0x40, "read")
    assert (res.event, res.value) == (EVENT_MISS, 77)
    # The refill went to a different way; the converted one stays clean.
    new_set, new_way = probe(cache, RAM_BASE + 0x40)
    assert new_set == set_idx and new_way != way


def test_conversion_writes_back_dirty_lines():
    cache, mem = make_cache()
    cache.access(RAM_BASE + 0x40, "write", value=0xC0FFEE)
    set_idx, way = probe(cache, RAM_BASE + 0x40)
    # Dirty and not yet written back.
    assert tag_state(cache)[1][set_idx] == 1 << way and cache.stats["write_backs"] == 0
    cache.configure_way(way, MODE_SPM)
    assert tag_state(cache)[1][set_idx] == 0 and cache.stats["write_backs"] == 1
    assert mem.read_word(RAM_BASE + 0x40) == 0xC0FFEE


@pytest.mark.parametrize("ways,line_bytes", ((4, 16), (16, 32)))
def test_conversion_touches_only_its_own_way(ways, line_bytes):
    """With every slot holding a dirty line, converting a middle way
    writes back exactly that way's lines (one write-back per set, each
    clearing its line's dirty bit) and empties and zeroes exactly its
    slots; every other way's tags, words and dirty bits, every set's PLRU
    bits and every memory word stay as they were."""
    cache, mem = make_cache(ways=ways, sets=8, line_bytes=line_bytes)
    wpl = cache.line_bytes // 8
    for s in range(cache.sets):
        for k in range(ways):
            for i in range(wpl):
                addr = same_set_addr(cache, s, k, i)
                cache.access(addr, "write", value=addr >> 3)
    assert all(probe(cache, same_set_addr(cache, s, k)) for s in range(cache.sets)
               for k in range(ways))
    way = ways // 2
    tags, dirty, plru, _ = tag_state(cache)
    data = data_words(cache)
    memory = memory_words(mem)
    assert all(d == (1 << ways) - 1 for d in dirty) and cache.stats["write_backs"] == 0

    cache.configure_way(way, MODE_SPM)

    new_tags, new_dirty, new_plru, locked = tag_state(cache)
    new_data = data_words(cache)
    assert locked == 1 << way and new_plru == plru
    assert new_dirty == tuple(d & ~(1 << way) for d in dirty)
    for slot, tag in enumerate(new_tags):
        words = new_data[slot * wpl:(slot + 1) * wpl]
        if slot % ways == way:
            assert tag == -1 and words == (0,) * wpl
        else:
            assert tag == tags[slot] and words == data[slot * wpl:(slot + 1) * wpl]
    assert memory_words(mem) == memory
    assert cache.stats["write_backs"] == cache.sets


def test_conversion_zeroes_spm_storage():
    cache, _ = make_cache()
    cache.configure_way(0, MODE_SPM)
    for off in range(0, cache.way_bytes, 8):
        assert cache.access(SPM_BASE + off, "read").value == 0


def test_spm_cache_spm_round_trip_zeroes_contents():
    """While a way is scratchpad its words are in the memory's word store;
    back in cache mode none of its window words remain, another
    scratchpad way's stay, and once converted again it reads zeros."""
    cache, mem = make_cache()
    cache.configure_way(0, MODE_SPM)
    cache.configure_way(2, MODE_SPM)
    window = [SPM_BASE + off for off in range(0, cache.way_bytes, 8)]
    for addr in window:
        cache.access(addr, "write", value=addr >> 3)
    other = (SPM_BASE + 2 * cache.way_bytes + 0x18, 0xFEED)
    cache.access(other[0], "write", value=other[1])
    assert mem.snapshot() == frozenset([(addr, addr >> 3) for addr in window] + [other])
    cache.configure_way(0, MODE_CACHE)
    assert mem.snapshot() == frozenset([other])
    cache.configure_way(0, MODE_SPM)
    assert [cache.access(addr, "read").value for addr in window] == [0] * len(window)
    assert mem.snapshot() == frozenset([other])


def test_reconfiguring_to_same_mode_is_a_no_op():
    cache, _ = make_cache()
    cache.configure_way(0, MODE_SPM)
    cache.access(SPM_BASE + 0x18, "write", value=0xFEED)
    cache.configure_way(0, MODE_SPM)
    assert cache.access(SPM_BASE + 0x18, "read").value == 0xFEED


def test_all_ways_spm_turns_every_cached_access_into_fill_drop():
    cache, mem = make_cache()
    for w in range(cache.ways):
        cache.configure_way(w, MODE_SPM)
    mem.write_word(RAM_BASE + 0x40, 9)
    first = cache.access(RAM_BASE + 0x40, "read")
    second = cache.access(RAM_BASE + 0x40, "read")
    assert first.event == second.event == EVENT_MISS
    assert first.value == second.value == 9
    assert probe(cache, RAM_BASE + 0x40) is None
    assert cache.stats["fill_drops"] == 2
    # Writes still take effect, straight through to memory.
    cache.access(RAM_BASE + 0x48, "write", value=4)
    assert mem.read_word(RAM_BASE + 0x48) == 4


def test_way_and_mode_arguments_validated():
    cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.configure_way(99, MODE_SPM)
    with pytest.raises(ValueError):
        cache.configure_way(0, "weird")


# -- invariants under random traffic ---------------------------------------------


def spm_snapshot(cache, ways):
    return [
        [spm_word(cache, w, s, i) for s in range(cache.sets) for i in range(cache.line_bytes // 8)]
        for w in ways
    ]


def test_cached_traffic_never_disturbs_spm_data():
    cache, _ = make_cache()
    cache.configure_way(0, MODE_SPM)
    cache.configure_way(3, MODE_SPM)
    rng = random.Random(41)
    for w in (0, 3):
        for off in range(0, cache.way_bytes, 8):
            cache.access(SPM_BASE + w * cache.way_bytes + off, "write", value=rng.getrandbits(32))
    frozen = spm_snapshot(cache, (0, 3))
    for _ in range(3000):
        addr = RAM_BASE + rng.randrange(0, 64 * cache.line_bytes, 8)
        if rng.random() < 0.4:
            cache.access(addr, "write", value=rng.getrandbits(16))
        else:
            cache.access(addr, "read")
    assert spm_snapshot(cache, (0, 3)) == frozen


def test_spm_traffic_never_touches_cache_state_or_memory():
    cache, mem = make_cache()
    cache.configure_way(2, MODE_SPM)
    rng = random.Random(42)
    ram_addrs = [RAM_BASE + rng.randrange(0, 64 * cache.line_bytes, 8) for _ in range(50)]
    for a in ram_addrs:
        mem.write_word(a, rng.getrandbits(32))
        cache.access(a, "read")
    before_cache = tag_state(cache)
    before_mem = [mem.read_word(a) for a in ram_addrs]
    for _ in range(3000):
        addr = SPM_BASE + rng.randrange(0, cache.size, 8)  # both modes hit here
        if rng.random() < 0.5:
            cache.access(addr, "write", value=rng.getrandbits(16))
        else:
            cache.access(addr, "read")
    assert tag_state(cache) == before_cache
    assert [mem.read_word(a) for a in ram_addrs] == before_mem


def test_spm_latency_is_constant_whatever_the_history():
    # The memory system prices an access by its event alone, so a window
    # access must report the event of its way's mode, whatever came before.
    cache, _ = make_cache()
    cache.configure_way(1, MODE_SPM)
    rng = random.Random(43)

    def want(addr):
        return EVENT_SPM if (addr - SPM_BASE) // cache.way_bytes == 1 else EVENT_SPM_MISCONFIG

    for _ in range(2000):
        roll = rng.random()
        if roll < 0.4:
            addr = SPM_BASE + rng.randrange(0, cache.size, 8)
            assert cache.access(addr, "read").event == want(addr)
        elif roll < 0.6:
            addr = SPM_BASE + rng.randrange(0, cache.size, 8)
            assert cache.access(addr, "write", value=rng.getrandbits(8)).event == want(addr)
        elif roll < 0.8:
            cache.access(RAM_BASE + rng.randrange(0, 64 * cache.line_bytes, 8), "read")
        else:
            cache.access(
                RAM_BASE + rng.randrange(0, 64 * cache.line_bytes, 8),
                "write",
                value=rng.getrandbits(8),
            )


def test_conversion_write_back_matches_flush_semantics():
    # A cache and the textbook reference see the same dirty traffic;
    # converting every way of the cache must leave backing memory as the
    # reference's drain (a flush) leaves its word store.
    cache, mem = make_cache()
    ref = CacheRef(cache.ways, cache.sets, cache.line_bytes)
    rng = random.Random(44)
    for _ in range(500):
        addr = RAM_BASE + rng.randrange(0, 32 * cache.line_bytes, 8)
        value = rng.getrandbits(32)
        cache.access(addr, "write", value=value)
        ref.access(addr, "write", value)
    all_spm(cache)
    ref.drain()
    span = 32 * cache.line_bytes
    words = [mem.read_word(RAM_BASE + off) for off in range(0, span, 8)]
    assert words == [ref.mem.get(RAM_BASE + off, 0) for off in range(0, span, 8)]


# -- textbook oracle equivalence ---------------------------------------------------


def assert_directory_matches_tags(cache, step):
    """The line directory in the cache's snapshot is the one its tags
    imply: (tag * sets + set, slot) for every slot that holds a line."""
    tags = tag_state(cache)[0]
    derived = frozenset(
        (tag * cache.sets + slot // cache.ways, slot) for slot, tag in enumerate(tags) if tag != -1
    )
    assert cache.snapshot()[0] == derived, "step %d: line directory diverged from the tags" % step


def run_against_oracle(ways, sets, line_bytes, ops, seed):
    """A random trace against CacheRef.  Every ops // 8 steps each way is
    set to a random mode (every way SPM in the fourth phase, so misses
    drop their fills); now and then the cache, its memory and the
    reference are saved, and later put back.  The line directory is
    checked against the tags after every operation."""
    cache, mem = make_cache(ways=ways, sets=sets, line_bytes=line_bytes)
    ref = CacheRef(ways, sets, line_bytes)
    rng = random.Random(seed)
    # Pool spanning 2x the cache so both conflict and capacity misses occur.
    pool_lines = 2 * ways * sets
    pool = [RAM_BASE + k * line_bytes for k in range(pool_lines)]
    phase, saved, seen = ops // 8, None, Counter()
    for step in range(ops):
        if step % phase == phase - 1:
            spm = (1 << ways) - 1 if step // phase == 3 else rng.getrandbits(ways)
            for way in range(ways):
                to_spm = bool(spm >> way & 1)
                seen["to spm" if to_spm else "to cache"] += to_spm != (way in ref.spm)
                cache.configure_way(way, MODE_SPM if to_spm else MODE_CACHE)
                ref.convert(way, to_spm)
                assert_directory_matches_tags(cache, step)
            continue
        r = rng.random()
        if r < 0.01:
            saved = cache.snapshot(), mem.snapshot(), copy.deepcopy(ref)
            continue
        if r < 0.02 and saved is not None:
            cache.restore(saved[0])
            mem.restore(saved[1])
            ref = copy.deepcopy(saved[2])
            seen["restores"] += 1
            assert_directory_matches_tags(cache, step)
            continue
        before = dict(cache.stats)
        addr = rng.choice(pool) + 8 * rng.randrange(line_bytes // 8)
        if rng.random() < 0.4:
            value = rng.getrandbits(32)
            got = cache.access(addr, "write", value=value)
            want_event, _ = ref.access(addr, "write", value)
            assert got.event == want_event, "step %d: write event diverged" % step
        else:
            got = cache.access(addr, "read")
            want_event, want_value = ref.access(addr, "read")
            assert (got.event, got.value) == (want_event, want_value), (
                "step %d: read diverged" % step
            )
        seen.update({name: n - before[name] for name, n in cache.stats.items()})
        assert_directory_matches_tags(cache, step)
    covered = ("hits", "misses", "evictions", "write_backs", "fill_drops", "to spm", "to cache",
               "restores")
    assert [name for name in covered if not seen[name]] == []
    all_spm(cache)  # writes back every dirty line, as the drain does
    ref.drain()
    assert_directory_matches_tags(cache, ops)
    for line in pool:
        for i in range(line_bytes // 8):
            assert mem.read_word(line + 8 * i) == ref.mem.get(line + 8 * i, 0)


def test_random_trace_matches_textbook_plru_cache_small():
    run_against_oracle(ways=4, sets=8, line_bytes=16, ops=6000, seed=7)


def test_random_trace_matches_textbook_plru_cache_wide():
    run_against_oracle(ways=8, sets=4, line_bytes=32, ops=4000, seed=8)


def test_snapshots_of_the_same_lines_are_equal_whatever_the_fill_order():
    # The line directory and the word store are saved as sets of pairs, so
    # the order two lines of different sets arrived in, or two words were
    # stored in, scratchpad words included, does not show.
    first, first_mem = make_cache()
    second, second_mem = make_cache()
    first.configure_way(3, MODE_SPM)
    second.configure_way(3, MODE_SPM)
    a, b = same_set_addr(first, 1, 0), same_set_addr(first, 6, 3)
    spm = SPM_BASE + 3 * first.way_bytes
    for cache, order in ((first, (a, b, spm)), (second, (spm, b, a))):
        for paddr in order:
            cache.access(paddr, "write", value=paddr >> 3)
    assert first.snapshot() == second.snapshot()
    assert first_mem.snapshot() == second_mem.snapshot()
    second.restore(first.snapshot())
    assert [second.access(p, "read").event for p in (a, b)] == [EVENT_HIT, EVENT_HIT]


def test_stats_add_up_on_random_trace():
    cache, _ = make_cache()
    rng = random.Random(45)
    n = 1500
    for _ in range(n):
        addr = RAM_BASE + rng.randrange(0, 48 * cache.line_bytes, 8)
        if rng.random() < 0.3:
            cache.access(addr, "write", value=1)
        else:
            cache.access(addr, "read")
    assert cache.stats["hits"] + cache.stats["misses"] == n
    assert cache.stats["evictions"] <= cache.stats["misses"]
    assert cache.stats["write_backs"] <= cache.stats["evictions"]


def test_a_cache_cannot_be_copied():
    # Its access step is a closure over its own lists: a copy would keep
    # serving the original's state.
    cache, _ = make_cache()
    with pytest.raises(TypeError):
        copy.deepcopy(cache)
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(cache)


# -- a miss that cannot be filled ---------------------------------------------------


def test_read_fetches_stops_at_an_unmapped_line_without_touching_the_set():
    cache, memory = make_cache()
    unmapped = 0x4000_0000 + 5 * cache.line_bytes  # decodes to set 5
    # Fill set 5 with dirty lines, so any victim choice would write back.
    for k in range(4):
        cache.access(same_set_addr(cache, 5, k), "write", value=k + 1)
    for paddr in (same_set_addr(cache, 5, 0), same_set_addr(cache, 2, 9)):
        cache.access(paddr, "read")
    tags, lines = tag_state(cache), memory.snapshot()
    with pytest.raises(UnmappedAddress):
        cache.access(unmapped, "read")
    assert (tag_state(cache), memory.snapshot()) == (tags, lines)


# -- walk replay ---------------------------------------------------------------------


def test_replay_matches_one_step_per_read():
    """replay(decode(paddrs)) against one step(paddr, None) per address on
    a twin cache: the same non-hit events in order, the same cache and
    memory snapshots.  Way modes are random (every way SPM in some trials,
    so misses drop their fills), the window is read in converted and
    unconverted ways, dirty lines make victims write back, and a read of
    an unmapped line stops both where it stands."""
    rng = random.Random(61)
    unmapped = 0x4000_0000
    seen = Counter()
    for trial in range(300):
        ways, sets = rng.choice(((2, 4), (4, 8), (8, 2)))
        cache, mem = make_cache(ways=ways, sets=sets)
        twin, twin_mem = make_cache(ways=ways, sets=sets)
        pool = [RAM_BASE + k * cache.line_bytes for k in range(3 * ways * sets)]
        spm = (1 << ways) - 1 if trial % 5 == 0 else rng.getrandbits(ways)
        for way in range(ways):
            if spm >> way & 1:
                cache.configure_way(way, MODE_SPM)
        for _ in range(rng.randrange(4 * ways * sets)):
            cache.access(rng.choice(pool) + 8 * rng.randrange(2), "write", value=rng.getrandbits(16))
        twin.restore(cache.snapshot())
        twin_mem.restore(mem.snapshot())
        paddrs = []
        for _ in range(rng.randrange(1, 16)):
            r = rng.random()
            if r < 0.15:
                paddrs.append(SPM_BASE + rng.randrange(0, cache.size, 8))
            elif r < 0.17:
                paddrs.append(unmapped + rng.randrange(0, 1 << 12, 8))
            else:
                paddrs.append(rng.choice(pool) + 8 * rng.randrange(2))
        before = dict(cache.stats)
        try:
            events = cache.replay(cache.decode(paddrs))
        except UnmappedAddress:
            events = None
        want = []
        try:
            for paddr in paddrs:
                event = twin.step(paddr, None)
                if event != EVENT_HIT:
                    want.append(event)
        except UnmappedAddress:
            want = None
            seen["unmapped"] += 1
        assert events == want, "trial %d" % trial
        assert cache.snapshot() == twin.snapshot(), "trial %d" % trial
        assert mem.snapshot() == twin_mem.snapshot(), "trial %d" % trial
        seen.update({name: n - before[name] for name, n in cache.stats.items()})
    covered = ("hits", "misses", "evictions", "write_backs", "fill_drops", "spm_accesses",
               "spm_misconfigs", "unmapped")
    assert [name for name in covered if not seen[name]] == []


# -- sparse state ---------------------------------------------------------------------


def test_no_state_scales_with_the_slots():
    """At the most slots a cache may have (the largest array, the smallest
    line), after fills, a dirty eviction, a conversion and a scratchpad
    store, no snapshot element and no container the cache holds has
    sets * ways entries: the per-set lists have `sets`, and the directory
    and its inverse have one entry per line actually held.  The cache
    holds no word: the scratchpad word is in its memory."""
    ways, line_bytes = 8, WORD_BYTES
    sets = MAX_ARRAY_BYTES // (ways * line_bytes)
    check_geometry(ways, sets, line_bytes)
    cache = Cache(Memory([(RAM_BASE, 16 << 20)]), ways=ways, sets=sets, line_bytes=line_bytes,
                  spm_base=SPM_BASE)
    slots = sets * ways
    for k in range(ways + 1):  # one more line than set 3 has ways
        cache.access(same_set_addr(cache, 3, k), "write", value=k + 1)
    cache.access(same_set_addr(cache, 5, 0), "read")
    cache.configure_way(1, MODE_SPM)
    cache.access(SPM_BASE + cache.way_bytes, "write", value=9)
    assert cache.stats["write_backs"] >= 1 and cache.stats["spm_accesses"] == 1
    held = sum(tag != -1 for tag in tag_state(cache)[0])
    assert 0 < held < ways + 2
    assert len(cache.snapshot()) == 6
    for element in cache.snapshot():
        if isinstance(element, (tuple, frozenset)):
            # A per-set list, or one entry per held line or statistic.
            assert len(element) in (sets, held, len(cache.stats)), len(element)
    assert not {"_spm", "_read"} & set(vars(cache))
    for name, value in vars(cache).items():
        if isinstance(value, (list, tuple, dict)):
            assert len(value) < slots, name
    assert (SPM_BASE + cache.way_bytes, 9) in cache.memory.snapshot()

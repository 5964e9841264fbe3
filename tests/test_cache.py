"""Cache/scratchpad hybrid: set-associative behavior, way conversion,
window decode, misconfiguration semantics, and the textbook-oracle
equivalence on random traces."""

import random

import pytest

from pvmsim.cache import (
    EVENT_HIT,
    EVENT_MISS,
    EVENT_SPM,
    EVENT_SPM_MISCONFIG,
    MODE_CACHE,
    MODE_SPM,
    Cache,
    Memory,
    UnmappedAddress,
)
from oracles import CacheRef, spm_decode_ref

RAM_BASE = 0x8000_0000
RAM_SIZE = 1 << 20
SPM_BASE = 0x1000_0000  # aligned to any power-of-two array size used here


def make_cache(ways=4, sets=8, line_bytes=16, window=True, **kw):
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    cache = Cache(
        mem,
        ways=ways,
        sets=sets,
        line_bytes=line_bytes,
        spm_base=SPM_BASE if window else None,
        **kw,
    )
    return cache, mem


def same_set_addr(cache, set_idx, k, word=0):
    """k-th distinct line that decodes to `set_idx` (k selects the tag)."""
    return RAM_BASE + k * cache.sets * cache.line_bytes + set_idx * cache.line_bytes + 8 * word


# -- construction and guard rails --------------------------------------------


def test_geometry_must_be_powers_of_two():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    with pytest.raises(ValueError):
        Cache(mem, ways=3, sets=8, line_bytes=16)
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=10, line_bytes=16)
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=24)
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=4)  # below word size


def test_spm_base_must_be_size_aligned():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    size = 4 * 8 * 16
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE + size // 2)


def test_spm_window_may_not_overlap_memory():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    with pytest.raises(ValueError):
        Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=RAM_BASE)


def test_unmapped_address_is_a_configuration_error():
    cache, _ = make_cache()
    with pytest.raises(UnmappedAddress):
        cache.access(0x4000_0000, "read")


def test_memory_reads_default_to_zero_inside_regions():
    mem = Memory([(RAM_BASE, RAM_SIZE)])
    assert mem.read_word(RAM_BASE + 0x100) == 0
    mem.write_word(RAM_BASE + 0x100, 7)
    assert mem.read_word(RAM_BASE + 0x100) == 7
    with pytest.raises(UnmappedAddress):
        mem.read_word(RAM_BASE - 8)


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
    assert cache.probe(RAM_BASE + 0x80) is not None
    # Write-back policy: the store is not yet visible in memory.
    assert mem.read_word(RAM_BASE + 0x80) == 0
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


def test_flush_spills_everything_and_invalidates():
    cache, mem = make_cache()
    addrs = [RAM_BASE + 0x10 * k for k in range(6)]
    for i, a in enumerate(addrs):
        cache.access(a, "write", value=i + 1)
    cache.flush()
    for i, a in enumerate(addrs):
        assert mem.read_word(a) == i + 1
        assert cache.probe(a) is None


# -- SPM window decode ---------------------------------------------------------


def test_spm_decode_contiguous_way_mapping():
    cache, _ = make_cache()  # way span = 8 sets * 16 B = 128 B
    assert cache.spm_decode(SPM_BASE + 3 * 128 + 64) == (3, 4, 0)
    assert cache.spm_decode(SPM_BASE) == (0, 0, 0)
    assert cache.spm_decode(SPM_BASE + cache.size - 8) == (
        cache.ways - 1,
        cache.sets - 1,
        cache.words_per_line - 1,
    )
    assert cache.spm_decode(SPM_BASE - 8) is None
    assert cache.spm_decode(SPM_BASE + cache.size) is None


def test_spm_decode_matches_range_scan_reference():
    cache, _ = make_cache(ways=8, sets=16, line_bytes=32)
    rng = random.Random(1009)
    for _ in range(10_000):
        paddr = SPM_BASE + rng.randrange(-64, cache.size + 64, 8)
        assert cache.spm_decode(paddr) == spm_decode_ref(
            SPM_BASE, cache.ways, cache.sets, cache.line_bytes, paddr
        )


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
    before = cache.tag_state()
    w = cache.access(SPM_BASE + 0x10, "write", value=0xAB)
    r = cache.access(SPM_BASE + 0x10, "read")
    assert (w.event, w.value) == (EVENT_SPM_MISCONFIG, None)
    assert (r.event, r.value) == (EVENT_SPM_MISCONFIG, 0)
    assert cache.tag_state() == before
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
    set_idx, way = cache.probe(RAM_BASE + 0x40)
    cache.configure_way(way, MODE_SPM)
    assert cache.probe(RAM_BASE + 0x40) is None
    res = cache.access(RAM_BASE + 0x40, "read")
    assert (res.event, res.value) == (EVENT_MISS, 77)
    # The refill went to a different way; the converted one stays clean.
    new_set, new_way = cache.probe(RAM_BASE + 0x40)
    assert new_set == set_idx and new_way != way


def test_conversion_writes_back_dirty_lines():
    cache, mem = make_cache()
    cache.access(RAM_BASE + 0x40, "write", value=0xC0FFEE)
    _, way = cache.probe(RAM_BASE + 0x40)
    assert mem.read_word(RAM_BASE + 0x40) == 0  # not yet written back
    cache.configure_way(way, MODE_SPM)
    assert mem.read_word(RAM_BASE + 0x40) == 0xC0FFEE
    assert cache.stats["write_backs"] == 1


def test_conversion_zeroes_spm_storage():
    cache, _ = make_cache()
    cache.configure_way(0, MODE_SPM)
    for off in range(0, cache.way_bytes, 8):
        assert cache.access(SPM_BASE + off, "read").value == 0


def test_spm_cache_spm_round_trip_zeroes_contents():
    cache, _ = make_cache()
    cache.configure_way(0, MODE_SPM)
    cache.access(SPM_BASE + 0x18, "write", value=0xFEED)
    cache.configure_way(0, MODE_CACHE)
    cache.configure_way(0, MODE_SPM)
    assert cache.access(SPM_BASE + 0x18, "read").value == 0


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
    assert cache.probe(RAM_BASE + 0x40) is None
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
        [cache.spm_word(w, s, i) for s in range(cache.sets) for i in range(cache.words_per_line)]
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
    before_cache = cache.tag_state()
    before_mem = [mem.read_word(a) for a in ram_addrs]
    for _ in range(3000):
        addr = SPM_BASE + rng.randrange(0, cache.size, 8)  # both modes hit here
        if rng.random() < 0.5:
            cache.access(addr, "write", value=rng.getrandbits(16))
        else:
            cache.access(addr, "read")
    assert cache.tag_state() == before_cache
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
    # Two identical caches see the same dirty traffic; converting every way
    # on one and flushing the other must leave backing memory identical.
    convert, mem_a = make_cache()
    flush, mem_b = make_cache()
    rng = random.Random(44)
    for _ in range(500):
        addr = RAM_BASE + rng.randrange(0, 32 * convert.line_bytes, 8)
        value = rng.getrandbits(32)
        convert.access(addr, "write", value=value)
        flush.access(addr, "write", value=value)
    for w in range(convert.ways):
        convert.configure_way(w, MODE_SPM)
    flush.flush()
    span = 32 * convert.line_bytes
    words_a = [mem_a.read_word(RAM_BASE + off) for off in range(0, span, 8)]
    words_b = [mem_b.read_word(RAM_BASE + off) for off in range(0, span, 8)]
    assert words_a == words_b


# -- textbook oracle equivalence ---------------------------------------------------


def run_against_oracle(ways, sets, line_bytes, ops, seed):
    cache, mem = make_cache(ways=ways, sets=sets, line_bytes=line_bytes, window=False)
    ref = CacheRef(ways, sets, line_bytes)
    rng = random.Random(seed)
    # Pool spanning 2x the cache so both conflict and capacity misses occur.
    pool_lines = 2 * ways * sets
    pool = [RAM_BASE + k * line_bytes for k in range(pool_lines)]
    for step in range(ops):
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
    cache.flush()
    ref.drain()
    for line in pool:
        for i in range(line_bytes // 8):
            assert mem.read_word(line + 8 * i) == ref.mem.get(line + 8 * i, 0)


def test_random_trace_matches_textbook_plru_cache_small():
    run_against_oracle(ways=4, sets=8, line_bytes=16, ops=6000, seed=7)


def test_random_trace_matches_textbook_plru_cache_wide():
    run_against_oracle(ways=8, sets=4, line_bytes=32, ops=4000, seed=8)


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


# -- batched walk fetches ------------------------------------------------------------


def twin_caches(ways, sets, line_bytes, spm_ways):
    """Two identical caches over two identical memories, the first
    `spm_ways` ways of each converted to scratchpad."""
    twins = [make_cache(ways=ways, sets=sets, line_bytes=line_bytes) for _ in range(2)]
    for cache, _ in twins:
        for way in range(spm_ways):
            cache.configure_way(way, MODE_SPM)
    return twins


def assert_twins_equal(a, b):
    (ca, ma), (cb, mb) = a, b
    assert ca.tag_state() == cb.tag_state()
    assert ca.stats == cb.stats
    assert ca.snapshot() == cb.snapshot()
    assert ma.snapshot() == mb.snapshot()


def read_one_by_one(cache, paddrs):
    """(hits, misses, spm) of reading paddrs through access(p, "read")."""
    events = [cache.access(p, "read").event for p in paddrs]
    spm = events.count(EVENT_SPM) + events.count(EVENT_SPM_MISCONFIG)
    return events.count(EVENT_HIT), events.count(EVENT_MISS), spm


# (ways, sets, line_bytes, spm_ways, stats that the trace must move)
FETCH_SHAPES = {
    "cache-only": (4, 8, 16, 0, ("evictions", "write_backs")),
    "spm-and-misconfig": (4, 8, 16, 2, ("write_backs", "spm_accesses", "spm_misconfigs")),
    "wide-lines": (8, 4, 32, 3, ("write_backs", "spm_accesses", "spm_misconfigs")),
    "all-spm": (4, 8, 16, 4, ("fill_drops", "spm_accesses")),
}


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("shape", sorted(FETCH_SHAPES))
def test_read_fetches_matches_one_access_per_address(shape, seed):
    ways, sets, line_bytes, spm_ways, moved = FETCH_SHAPES[shape]
    a, b = twin_caches(ways, sets, line_bytes, spm_ways)
    size = a[0].size
    rng = random.Random(seed)
    # Lines over 3x the array, so fetches hit, miss and evict; writes
    # between walks leave dirty victims behind.
    pool = [RAM_BASE + k * line_bytes for k in range(3 * ways * sets)]

    def address():
        if rng.random() < 0.2:
            return SPM_BASE + rng.randrange(size)
        return rng.choice(pool) + rng.randrange(line_bytes)

    for _ in range(120):
        for _ in range(rng.randrange(3)):
            paddr, value = address(), rng.getrandbits(64)
            assert a[0].access(paddr, "write", value).event == b[0].access(paddr, "write", value).event
        fetches = [address() for _ in range(rng.randrange(16))]
        assert a[0].read_fetches(fetches) == read_one_by_one(b[0], fetches)
        assert_twins_equal(a, b)
    for stat in moved:
        assert a[0].stats[stat] > 0, stat


def test_read_fetches_stops_at_an_unmapped_line_without_touching_the_set():
    a, b = twin_caches(4, 8, 16, 0)
    cache = b[0]
    unmapped = 0x4000_0000 + 5 * cache.line_bytes  # decodes to set 5
    # Fill set 5 with dirty lines, so any victim choice would write back.
    for twin, _ in (a, b):
        for k in range(4):
            twin.access(same_set_addr(twin, 5, k), "write", value=k + 1)
    fetches = [same_set_addr(cache, 5, 0), same_set_addr(cache, 2, 9), unmapped, RAM_BASE]
    read_one_by_one(cache, fetches[:2])
    tags, memory = cache.tag_state(), b[1].snapshot()
    with pytest.raises(UnmappedAddress):
        cache.access(unmapped, "read")
    assert (cache.tag_state(), b[1].snapshot()) == (tags, memory)
    with pytest.raises(UnmappedAddress):
        a[0].read_fetches(fetches)
    assert_twins_equal(a, b)

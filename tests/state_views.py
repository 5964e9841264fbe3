"""A cache's and a memory's state, read through their snapshot() and the
cache's public geometry (ways, sets, line_bytes, way_bytes, size,
spm_base): the same state the simulator saves and restores, seen without
reaching into how it is stored.

A cache snapshot is (where, lines, dirty, plru, locked, stats): ``where``
is the line directory, a frozenset of (line number, slot) pairs, one per
slot ``set * ways + way`` that holds a line, and ``lines`` is its
inverse, the (slot, line number) pairs; each set has a dirty bitmap over
its ways and packed PLRU node bits; ``locked`` has a bit set for each
scratchpad way.  A cache holds no data word: a held line's words and a
scratchpad way's words, the latter at their window addresses, are in
the memory the cache shares, whose snapshot is a frozenset of its (word
address, word) pairs.  The views below rebuild the per-slot form: a tag
per slot (-1 for a slot that holds no line, else line number // sets)
and each slot's line words.

A machine's tallies are read through MemorySystem.counters(), one flat
tuple whose positions memsys.COUNTERS names; counter_sum totals named
positions of it, or of a delta of two (counter_delta).
"""

from pvmsim.cache import MODE_CACHE, MODE_SPM, WORD_BYTES
from pvmsim.memsys import COUNTERS


def tag_state(cache):
    """(tags, dirty bitmaps, PLRU bits, locked-ways mask), for before and
    after comparisons."""
    _, lines, dirty, plru, locked, _ = cache.snapshot()
    tags = [-1] * (cache.sets * cache.ways)
    for slot, line in lines:
        tags[slot] = line // cache.sets
    return tuple(tags), dirty, plru, locked


def data_words(cache):
    """Every slot's line words, slot by slot, scratchpad ways included: a
    held line's words and a scratchpad way's window words as its memory
    holds them, and zeros elsewhere."""
    _, lines, _, _, locked, _ = cache.snapshot()
    wpl = cache.line_bytes // WORD_BYTES
    memory = dict(cache.memory.snapshot())
    data = [0] * (cache.sets * cache.ways * wpl)
    for slot, line in lines:
        base = line * cache.line_bytes
        data[slot * wpl:(slot + 1) * wpl] = [memory.get(base + i * WORD_BYTES, 0)
                                             for i in range(wpl)]
    for addr, word in memory.items():
        offset = addr - cache.spm_base
        if 0 <= offset < cache.size and locked >> offset // cache.way_bytes & 1:
            way, rest = divmod(offset, cache.way_bytes)
            set_idx, byte = divmod(rest, cache.line_bytes)
            data[(set_idx * cache.ways + way) * wpl + byte // WORD_BYTES] = word
    return tuple(data)


def way_modes(cache):
    """Each way's mode, read off the locked-ways mask."""
    locked = cache.snapshot()[4]
    return tuple(MODE_SPM if locked >> way & 1 else MODE_CACHE for way in range(cache.ways))


def probe(cache, paddr):
    """The (set, way) holding paddr's line, else None."""
    slot = dict(cache.snapshot()[0]).get(paddr // cache.line_bytes)
    return None if slot is None else divmod(slot, cache.ways)


def spm_word(cache, way, set_idx, word):
    """One word of a scratchpad way's storage, read from its memory's
    snapshot without an access."""
    assert cache.snapshot()[4] >> way & 1, "way %d is not in SPM mode" % way
    addr = cache.spm_base + way * cache.way_bytes + set_idx * cache.line_bytes + word * WORD_BYTES
    return dict(cache.memory.snapshot()).get(addr, 0)


def memory_words(memory):
    """Every non-zero word inside `memory`'s regions as sorted (address,
    word) pairs; scratchpad words, which live outside every region, are
    left out."""
    return tuple(sorted((addr, word) for addr, word in memory.snapshot()
                        if word and memory.overlaps(addr, WORD_BYTES)))


def counter_delta(after, before):
    """What happened between two MemorySystem.counters() tuples."""
    return tuple(a - b for a, b in zip(after, before, strict=True))


def counter_sum(counts, *names):
    """The total of the positions named `names` (memsys.COUNTERS) in a
    counters() tuple or a counter_delta."""
    assert len(counts) == len(COUNTERS)
    return sum(counts[COUNTERS.index(name)] for name in names)


def cache_misses(counts):
    """Both caches' misses in a counters() tuple or a counter_delta."""
    return counter_sum(counts, "icache.misses", "dcache.misses")


def tlb_misses(counts):
    """Both TLBs' misses in a counters() tuple or a counter_delta."""
    return counter_sum(counts, "itlb.misses", "dtlb.misses")

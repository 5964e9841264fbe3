"""A cache's and a memory's state, read through their snapshot() and the
cache's public geometry (ways, sets, line_bytes, words_per_line): the
same state the simulator saves and restores, seen without reaching into
how it is stored.

A cache snapshot is (tags, dirty, data, plru, locked, stats, where):
slot ``set * ways + way`` holds one tag (-1 for no line) and the
``words_per_line`` words at ``slot * words_per_line``; each set has a
dirty bitmap over its ways and packed PLRU node bits; ``locked`` has a
bit set for each scratchpad way; ``where`` is the line directory, a
frozenset of (line number, slot) pairs, one per slot that holds a line
(line number ``tag * sets + set``).  A memory snapshot is its
(line address, words) pairs.
"""

from pvmsim.cache import MODE_CACHE, MODE_SPM, WORD_BYTES


def tag_state(cache):
    """(tags, dirty bitmaps, PLRU bits, locked-ways mask), for before and
    after comparisons."""
    tags, dirty, _, plru, locked, _, _ = cache.snapshot()
    return tags, dirty, plru, locked


def data_words(cache):
    """Every slot's line words, slot by slot, scratchpad ways included."""
    return cache.snapshot()[2]


def way_modes(cache):
    """Each way's mode, read off the locked-ways mask."""
    locked = cache.snapshot()[4]
    return tuple(MODE_SPM if locked >> way & 1 else MODE_CACHE for way in range(cache.ways))


def probe(cache, paddr):
    """The (set, way) holding paddr's line, else None."""
    line = paddr // cache.line_bytes
    set_idx, tag = line % cache.sets, line // cache.sets
    row = cache.snapshot()[0][set_idx * cache.ways:(set_idx + 1) * cache.ways]
    return (set_idx, row.index(tag)) if tag in row else None


def spm_word(cache, way, set_idx, word):
    """One word of a scratchpad way's storage, read without an access."""
    _, _, data, _, locked, _, _ = cache.snapshot()
    assert locked >> way & 1, "way %d is not in SPM mode" % way
    return data[(set_idx * cache.ways + way) * cache.words_per_line + word]


def memory_words(memory):
    """Every non-zero word of `memory` as sorted (address, word) pairs."""
    return tuple(
        (base + i * WORD_BYTES, word)
        for base, line in sorted(memory.snapshot()) for i, word in enumerate(line) if word
    )

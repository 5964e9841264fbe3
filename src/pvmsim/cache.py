"""Set-associative L1 cache model with per-way scratchpad (SPM) conversion.

Each cache way can be switched at run time between two modes:

  CACHE  -- the way participates in normal set-associative lookup and in
            per-set tree-PLRU victim selection.
  SPM    -- the way is removed from the associativity (never chosen as a
            victim, its lines dropped) and is instead exposed as storage
            through a physical address window.

The SPM window maps every way's storage contiguously, one way after the
other::

      spm_base                                          spm_base + size
      |   way 0    |   way 1    |   way 2    |  ...  |   way W-1   |
      '------------'------------'
        sets * line_bytes each

so for an address inside the window:

      offset   = paddr - spm_base
      way      = offset // (sets * line_bytes)
      set      = (offset % (sets * line_bytes)) // line_bytes
      word     = (offset % line_bytes) // 8

Only ways currently in SPM mode respond with real storage.  Hitting the
window slice of a way that is still in CACHE mode is a software
misconfiguration: writes are silently dropped and reads return dummy
zeros, reported as their own event so the pipeline can price them like
any SPM access and never stall on the mistake.

An access reports its event (hit, miss, spm, spm-misconfig);
memsys.MemorySystem turns events into cycles.  Each cache has one access
step, ``Cache.step``, built over the state below and the memory's word
store: it serves a hit, a window address and a whole miss (fill,
eviction, write-back, fill-drop) in its own frame, window decode
included, stores a write's word and fetches no value.  ``access`` checks
its arguments and wraps the step's event in a result, reading a read's
value after the step (every write of one event shares one result);
``MemorySystem`` calls the step directly for each touch of ``run_loop``.
A walk's fetches, decoded once by ``decode``, are read by one
``replay``: it serves a hit in its own loop (a PLRU touch and a count)
and hands every other fetch to the step.

Accesses are 64-bit words, the unit of page-table entries and workload
loads and stores.  No event and no cycle depends on a value, so values
stay off the timing path: every word lives in the memory's one word
store, a scratchpad way's words at their window addresses, and every
store writes there.  A fill copies nothing and a write-back only counts;
a store is visible to every reader at once, the other cache included.
A way drops its window words whenever it changes mode, so a newly
converted way reads zeros.

A cache's state is its tags, replacement bits, way modes and statistics,
sparse and scaling with the lines held: a line directory, ``{line
number: slot}`` over every slot ``set * ways + way`` that holds a line,
finds a hit with one dict lookup, and its inverse ``{slot: line
number}`` names a victim's line.  A fill adds its line and drops its
victim's, and conversion to SPM drops the way's lines.  Each set keeps a
dirty bitmap over its ways and its tree-PLRU node bits packed into one
int, the format every ``PlruTree`` uses.  A set is touched with the same
``touch_masks`` pair as a tree and picks its victim from a
``victim_table`` (see plru.py).  The SPM ways are recorded once, as one
cache-wide locked-ways mask that selects the victim table.
``snapshot``/``restore`` copy this state, so a restore costs the lines
held plus two per-set lists, never ``sets * ways`` slots.
"""

from typing import NamedTuple

from .plru import check_tree, is_pow2, touch_masks, victim_table

WORD_BYTES = 8
_WORD_MASK = (1 << 64) - 1

MODE_CACHE = "cache"
MODE_SPM = "spm"

EVENT_HIT = "hit"
EVENT_MISS = "miss"
EVENT_SPM = "spm"
EVENT_SPM_MISCONFIG = "spm-misconfig"

# Bounds on what one cache may ask for; presets use 8 ways of 16-byte lines
# and 32 KiB arrays.  A set's PLRU state is one (ways - 1)-bit int and
# touch_masks builds `ways` of them, so ways is bounded as tlb.MAX_ENTRIES
# bounds the TLB; a line is at most a page; and the array bounds the sets,
# whose dirty and PLRU lists every iteration restores, and the scratchpad
# window each cache maps: every admitted array is a power of two of at
# most 4 MiB, so a window base aligned to 4 MiB fits any of them.
MAX_WAYS = 4096
MAX_LINE_BYTES = 4096
MAX_ARRAY_BYTES = 1 << 22


def check_geometry(ways, sets, line_bytes, sets_name="sets"):
    """Raise ValueError unless a Cache of this shape can be built (each
    set is a tree-PLRU over its ways, and the array holds at most
    MAX_ARRAY_BYTES)."""
    check_tree(ways, 1, "ways")
    for label, n in ((sets_name, sets), ("line_bytes", line_bytes)):
        if not is_pow2(n):
            raise ValueError("%s must be a power of two, got %r" % (label, n))
    if line_bytes < WORD_BYTES:
        raise ValueError("line_bytes must be at least %d, got %r" % (WORD_BYTES, line_bytes))
    for label, n, most in (("ways", ways, MAX_WAYS), ("line_bytes", line_bytes, MAX_LINE_BYTES)):
        if n > most:
            raise ValueError("%s must be at most %d, got %d" % (label, most, n))
    if ways * sets * line_bytes > MAX_ARRAY_BYTES:
        raise ValueError("ways * %s * line_bytes is 0x%x bytes, more than 0x%x"
                         % (sets_name, ways * sets * line_bytes, MAX_ARRAY_BYTES))


def check_spm_window(base, size, memory):
    """Raise ValueError unless the scratchpad window of a `size`-byte data
    array can sit at `base`: aligned to the array size, and clear of every
    region of `memory` and of every window recorded on it.  Then record
    the window on `memory`, whose word store holds the window's words.
    Cache runs it for every cache it builds."""
    if base % size:
        raise ValueError("SPM window base 0x%x must be aligned to the array size 0x%x"
                         % (base, size))
    if memory.overlaps(base, size):
        raise ValueError("SPM window overlaps a backing-memory region")
    if any(lo < base + size and base < hi for lo, hi in memory._windows):
        raise ValueError("SPM window overlaps another scratchpad window on its memory")
    memory._windows.append((base, base + size))


class UnmappedAddress(ValueError):
    """An access targeted a physical address outside every modeled region."""


class Memory:
    """Sparse backing memory: explicit regions, default zero, one word store.

    Regions are declared up front (``add_region``); touching an address
    outside all regions raises :class:`UnmappedAddress`, a configuration
    mistake rather than a modeled hardware fault.

    Every word lives in one dict keyed by its address: a region's words,
    and each scratchpad way's words at their window addresses.  The caches
    that share the memory read and write that dict in their steps, so the
    memory keeps it for its whole life: ``restore`` refills it in place.
    """

    def __init__(self, regions):
        self._regions = []
        self._windows = []  # (lo, hi) of each cache's window: see check_spm_window
        self._words = {}  # word address -> word; never rebound
        for base, size in regions:
            self.add_region(base, size)

    def add_region(self, base, size):
        if base < 0 or size <= 0:
            raise ValueError("region base/size must be non-negative/positive")
        self._regions.append((base, base + size))

    def overlaps(self, base, size):
        return any(lo < base + size and base < hi for lo, hi in self._regions)

    def check(self, addr):
        if not any(lo <= addr < hi for lo, hi in self._regions):
            raise UnmappedAddress("physical address 0x%x is outside every memory region" % addr)

    def read_word(self, addr):
        addr &= ~(WORD_BYTES - 1)
        self.check(addr)
        return self._words.get(addr, 0)

    def write_word(self, addr, value):
        addr &= ~(WORD_BYTES - 1)
        self.check(addr)
        self._words[addr] = value & _WORD_MASK

    def snapshot(self):
        """The words as a frozenset of (address, word) pairs: write order does not show."""
        return frozenset(self._words.items())

    def restore(self, state):
        self._words.clear()
        self._words.update(state)


class AccessResult(NamedTuple):
    """Outcome of one cache access: its event and the word store's value
    (None for a write; a misconfigured-window read returns a dummy 0)."""

    event: str
    value: int = None


STATS = ("hits", "misses", "evictions", "write_backs", "fill_drops", "spm_accesses",
          "spm_misconfigs")


class Cache:
    """One L1 instruction or data cache with hybrid SPM support.

    The same object serves both personalities; instruction caches simply
    receive kind="ifetch" accesses and never see writes.

    ``step`` is a closure over this cache's dicts, lists and ``stats`` and
    its memory's word store, so every method changes them in place.  It
    also bars copies: pickling or deep-copying a Cache raises (a copied
    step would serve the original's state).  Save the state with
    snapshot() and bring it back with restore() instead.
    """

    def __init__(self, memory, *, ways, sets, line_bytes, spm_base):
        check_geometry(ways, sets, line_bytes)
        self.memory = memory
        self.ways = ways
        self.sets = sets
        self.line_bytes = line_bytes
        self.way_bytes = sets * line_bytes
        self.size = ways * self.way_bytes
        check_spm_window(spm_base, self.size, memory)
        self.spm_base = spm_base
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = sets - 1
        self._where = {}  # line number -> slot, for every slot that holds a line
        self._lines = {}  # slot -> line number: the directory's inverse
        self._dirty = [0] * sets  # bitmap over ways, per set
        self._plru = [0] * sets  # packed tree-PLRU node bits, per set
        # Each way is its own partition, so SPM conversion is a lock on
        # that way in every set: one mask for the whole cache.
        self._and, self._or = touch_masks(ways)
        self._all_ways_mask = (1 << ways) - 1
        self._set_locked(0)
        self.stats = dict.fromkeys(STATS, 0)
        self.step, self.replay = self._access_step()

    def __deepcopy__(self, memo):
        raise TypeError("a Cache cannot be deep-copied; use snapshot() and restore()")

    # -- mode management ----------------------------------------------------

    def _set_locked(self, locked):
        self._locked = locked
        self._victims = victim_table(self.ways, self._all_ways_mask & ~locked)

    def configure_way(self, way, mode):
        """Switch one way between CACHE and SPM mode.

        CACHE -> SPM: dirty lines in the way are written back (their words
        are already in memory, so this only counts them and clears their
        dirty bits), its lines leave the directory and the way is locked
        against replacement.  SPM -> CACHE: the way is unlocked; it holds
        no line until a fill picks it.  Either way the memory drops the
        way's window words, found by a scan of the words it holds, so a
        newly converted way reads zeros.
        """
        if not 0 <= way < self.ways:
            raise ValueError("way index %r out of range [0, %d)" % (way, self.ways))
        if mode not in (MODE_CACHE, MODE_SPM):
            raise ValueError("mode must be %r or %r, got %r" % (MODE_CACHE, MODE_SPM, mode))
        bit = 1 << way
        if bool(self._locked & bit) == (mode == MODE_SPM):
            return
        if mode == MODE_SPM:
            for slot, line in list(self._lines.items()):
                if slot % self.ways == way:
                    set_idx = slot // self.ways
                    if self._dirty[set_idx] & bit:
                        self._dirty[set_idx] ^= bit
                        self.stats["write_backs"] += 1
                    del self._lines[slot], self._where[line]
            self._set_locked(self._locked | bit)
        else:
            self._set_locked(self._locked & ~bit)
        lo, words = self.spm_base + way * self.way_bytes, self.memory._words
        for addr in [addr for addr in words if lo <= addr < lo + self.way_bytes]:
            del words[addr]

    # -- the access path ------------------------------------------------------

    def access(self, paddr, kind="read", value=None):
        """Perform one 64-bit access; paddr is word-aligned internally.  A
        read's value is the word store's, read after the step: 0 on a
        misconfigured window slice, whose way holds no window word."""
        if kind == "write":
            if value is None:
                raise ValueError("write access needs a value")
            return AccessResult(self.step(paddr, value))
        if kind != "read" and kind != "ifetch":
            raise ValueError("kind must be read/write/ifetch, got %r" % (kind,))
        event = self.step(paddr, None)
        return AccessResult(event, self.memory._words.get(paddr & -WORD_BYTES, 0))

    def decode(self, paddrs):
        """The reads at `paddrs` as the (line, set, paddr) triples replay()
        takes."""
        line_shift, set_mask = self._line_shift, self._set_mask
        return tuple((p >> line_shift, p >> line_shift & set_mask, p) for p in paddrs)

    def _access_step(self):
        """Build ``step(paddr, value) -> event``, the one access path:
        `value` is the word a write stores and None for a read (a store of
        0 is a write); a read fetches no value.  Beside it, ``replay(fetches)
        -> events`` reads decode()'s triples in order and returns the events
        of those that did not hit, in order.  The step holds this cache's
        dicts, lists, ``stats`` and the memory's regions and word store in
        its own frame, so those are only ever changed in place;
        configure_way and restore rebind the locked-ways mask and the
        victim table, so both are read off the cache at each use."""
        ways, line_bytes, line_shift = self.ways, self.line_bytes, self._line_shift
        set_mask, way_shift = self._set_mask, self.way_bytes.bit_length() - 1
        way_mask, align = ways - 1, -WORD_BYTES
        where, lines, plru, dirty = self._where, self._lines, self._plru, self._dirty
        and_, or_, stats = self._and, self._or, self.stats
        regions, words = self.memory._regions, self.memory._words
        spm_lo, spm_hi = self.spm_base, self.spm_base + self.size

        def step(paddr, value):
            paddr &= align
            if spm_lo <= paddr < spm_hi:
                if not self._locked >> (paddr - spm_lo >> way_shift) & 1:
                    # The window slice exists but its way was never
                    # converted: behave like a black hole instead of
                    # stalling the core.
                    stats["spm_misconfigs"] += 1
                    return EVENT_SPM_MISCONFIG
                stats["spm_accesses"] += 1
                if value is not None:
                    words[paddr] = value & _WORD_MASK
                return EVENT_SPM
            line = paddr >> line_shift
            set_idx = line & set_mask
            slot = where.get(line)
            if slot is not None:
                way = slot & way_mask
                plru[set_idx] = plru[set_idx] & and_[way] | or_[way]
                stats["hits"] += 1
                if value is not None:
                    words[paddr] = value & _WORD_MASK
                    dirty[set_idx] |= 1 << way
                return EVENT_HIT
            # The mapping check: a line that no one region holds whole
            # raises before any line, dirty bit, PLRU bit, statistic or
            # word moves.
            addr = line << line_shift
            top = addr + line_bytes
            for lo, hi in regions:
                if lo <= addr and top <= hi:
                    break
            else:
                raise UnmappedAddress("line 0x%x is not inside one memory region" % addr)
            stats["misses"] += 1
            bits = plru[set_idx]
            victim = self._victims[bits]
            if victim is None:
                # Every way is SPM: nothing can be allocated, so the access
                # is serviced straight from memory and nothing is cached.
                stats["fill_drops"] += 1
            else:
                plru[set_idx] = bits & and_[victim] | or_[victim]
                slot = set_idx * ways + victim
                bit = 1 << victim
                old = lines.get(slot)
                if old is not None:
                    stats["evictions"] += 1
                    del where[old]
                    if dirty[set_idx] & bit:
                        dirty[set_idx] ^= bit
                        stats["write_backs"] += 1
                lines[slot] = line
                where[line] = slot
                if value is not None:
                    dirty[set_idx] |= bit
            if value is not None:
                words[paddr] = value & _WORD_MASK
            return EVENT_MISS

        def replay(fetches):
            # A window line is never in the directory, so a read that finds
            # its line is a hit.  The hits counted so far reach the stats
            # before each step, which may raise UnmappedAddress.
            events, hits = [], 0
            for line, set_idx, paddr in fetches:
                slot = where.get(line)
                if slot is None:
                    stats["hits"] += hits
                    hits = 0
                    events.append(step(paddr, None))
                else:
                    way = slot & way_mask
                    plru[set_idx] = plru[set_idx] & and_[way] | or_[way]
                    hits += 1
            stats["hits"] += hits
            return events

        return step, replay

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self):
        """Every piece of mutable state -- the line directory and its
        inverse, dirty bitmaps, PLRU bits, the locked-ways mask and the
        statistics -- as immutable copies for restore().  It holds no word:
        scratchpad words are in the memory's snapshot.  The directory and
        its inverse are frozensets, so two snapshots of the same state are
        equal whatever order it was reached in."""
        return (frozenset(self._where.items()), frozenset(self._lines.items()),
                tuple(self._dirty), tuple(self._plru), self._locked,
                tuple(self.stats.items()))

    def restore(self, state):
        """Return to a snapshot() of this cache, copying it in place."""
        where, lines, dirty, plru, locked, stats = state
        self._where.clear()
        self._where.update(where)
        self._lines.clear()
        self._lines.update(lines)
        self._dirty[:] = dirty
        self._plru[:] = plru
        self._set_locked(locked)
        self.stats.update(stats)

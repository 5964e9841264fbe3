"""Set-associative L1 cache model with per-way scratchpad (SPM) conversion.

Each cache way can be switched at run time between two modes:

  CACHE  -- the way participates in normal set-associative lookup and in
            per-set tree-PLRU victim selection.
  SPM    -- the way is removed from the associativity (never chosen as a
            victim, tags invalidated) and its data array is instead
            exposed directly through a physical address window.

The SPM window maps the whole data array contiguously, one way after the
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

An access reports its event (hit, miss, spm, spm-misconfig) and the
value read; memsys.MemorySystem turns events into cycles.

All accesses are modeled at 64-bit word granularity, which is the unit
everything else in the simulator uses (page-table entries, workload
loads/stores).  Data is tracked for real so that write-back and SPM
round-trip behavior can be checked against backing memory.

The state is flat: slot ``set * ways + way`` indexes one list of tags
(-1 marks a slot that holds no line), its words sit at
``slot * words_per_line`` in one word list, and each set keeps a dirty
bitmap over its ways and its tree-PLRU node bits packed into one int.
The PLRU bits are driven through tables derived from ``PlruTree`` (see
plru.py); SPM ways are one cache-wide locked-ways mask that selects the
victim table.  ``snapshot``/``restore`` copy this state wholesale.
"""

from .plru import _is_pow2, check_tree, touch_masks, victim_table

WORD_BYTES = 8
_WORD_MASK = (1 << 64) - 1
_NO_LINE = -1  # tag of a slot that holds no line

MODE_CACHE = "cache"
MODE_SPM = "spm"

EVENT_HIT = "hit"
EVENT_MISS = "miss"
EVENT_SPM = "spm"
EVENT_SPM_MISCONFIG = "spm-misconfig"


def check_geometry(ways, sets, line_bytes, sets_name="sets"):
    """Raise ValueError unless a Cache of this shape can be built (each
    set is a tree-PLRU over its ways)."""
    check_tree(ways, 1, "ways")
    for label, n in ((sets_name, sets), ("line_bytes", line_bytes)):
        if not _is_pow2(n):
            raise ValueError("%s must be a power of two, got %r" % (label, n))
    if line_bytes < WORD_BYTES:
        raise ValueError("line_bytes must be at least %d, got %r" % (WORD_BYTES, line_bytes))


def check_spm_window(base, size, memory, name="SPM window"):
    """Raise ValueError unless the scratchpad window of a `size`-byte data
    array can sit at `base`: aligned to the array size, and outside every
    region of `memory`."""
    if base % size:
        raise ValueError(
            "%s base 0x%x must be aligned to the array size 0x%x" % (name, base, size)
        )
    if memory.contains(base) or memory.contains(base + size - 1):
        raise ValueError("%s overlaps a backing-memory region" % name)


class UnmappedAddress(ValueError):
    """An access targeted a physical address outside every modeled region."""


class Memory:
    """Sparse backing memory: explicit regions, 64-bit words, default zero.

    Regions must be declared up front (``add_region``); touching an
    address outside all regions raises :class:`UnmappedAddress`, which
    always indicates a simulator configuration mistake rather than a
    modeled hardware fault.
    """

    def __init__(self, regions=()):
        self._regions = []
        self._words = {}
        for base, size in regions:
            self.add_region(base, size)

    def add_region(self, base, size):
        if base < 0 or size <= 0:
            raise ValueError("region base/size must be non-negative/positive")
        self._regions.append((base, base + size))

    def contains(self, addr):
        return self._covers(addr, addr + 1)

    def _covers(self, lo, hi):
        """True when one region holds all of [lo, hi)."""
        for rlo, rhi in self._regions:
            if rlo <= lo and hi <= rhi:
                return True
        return False

    def check(self, addr):
        if not self.contains(addr):
            raise UnmappedAddress("physical address 0x%x is outside every memory region" % addr)

    def read_word(self, addr):
        addr &= ~(WORD_BYTES - 1)
        self.check(addr)
        return self._words.get(addr, 0)

    def write_word(self, addr, value):
        addr &= ~(WORD_BYTES - 1)
        self.check(addr)
        self._words[addr] = value & _WORD_MASK

    def read_line(self, base, count):
        """`count` consecutive words from word-aligned `base`.  The mapping
        is checked once when one region holds them all, else word by word
        (so an unmapped word raises exactly as read_word would)."""
        if not self._covers(base, base + count * WORD_BYTES):
            return [self.read_word(base + i * WORD_BYTES) for i in range(count)]
        get = self._words.get
        return [get(base + i * WORD_BYTES, 0) for i in range(count)]

    def write_line(self, base, words):
        """Store consecutive words from word-aligned `base`; see read_line."""
        if not self._covers(base, base + len(words) * WORD_BYTES):
            for i, w in enumerate(words):
                self.write_word(base + i * WORD_BYTES, w)
            return
        store = self._words
        for i, w in enumerate(words):
            store[base + i * WORD_BYTES] = w & _WORD_MASK

    def snapshot(self):
        return tuple(self._words.items())

    def restore(self, state):
        self._words = dict(state)


class AccessResult:
    """Outcome of one cache access: its event and the value read (None for
    a write; a misconfigured-window read returns a dummy 0)."""

    __slots__ = ("event", "value")

    def __init__(self, event, value):
        self.event = event
        self.value = value

    def __repr__(self):
        return "AccessResult(event=%r, value=%r)" % (self.event, self.value)


def _stats_zero():
    return {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "write_backs": 0,
        "fill_drops": 0,
        "spm_accesses": 0,
        "spm_misconfigs": 0,
    }


class Cache:
    """One L1 instruction or data cache with hybrid SPM support.

    The same object serves both personalities; instruction caches simply
    receive kind="ifetch" accesses and never see writes.
    """

    def __init__(
        self,
        memory,
        *,
        ways=8,
        sets=256,
        line_bytes=16,
        spm_base=None,
    ):
        check_geometry(ways, sets, line_bytes)
        self.memory = memory
        self.ways = ways
        self.sets = sets
        self.line_bytes = line_bytes
        self.way_bytes = sets * line_bytes
        self.size = ways * self.way_bytes
        self.words_per_line = line_bytes // WORD_BYTES
        if spm_base is not None:
            check_spm_window(spm_base, self.size, memory)
        self.spm_base = spm_base
        self._line_shift = line_bytes.bit_length() - 1
        self._set_shift = sets.bit_length() - 1
        self.modes = [MODE_CACHE] * ways
        self._tags = [_NO_LINE] * (sets * ways)
        self._dirty = [0] * sets  # bitmap over ways, per set
        self._data = [0] * (sets * ways * self.words_per_line)
        self._plru = [0] * sets  # packed tree-PLRU node bits, per set
        # Each way is its own partition, so SPM conversion is a lock on
        # that way in every set: one mask for the whole cache.
        self._and, self._or = touch_masks(ways)
        self._all_ways_mask = (1 << ways) - 1
        self._set_locked(0)
        self.stats = _stats_zero()

    # -- mode management ----------------------------------------------------

    def _set_locked(self, locked):
        self._locked = locked
        self._victims = victim_table(self.ways, self._all_ways_mask & ~locked)

    def configure_way(self, way, mode):
        """Switch one way between CACHE and SPM mode.

        CACHE -> SPM: dirty lines in the way are written back first (the
        array becomes invisible to lookups, so anything not flushed now
        would be lost), then its tags and dirty bits are cleared, the way
        is locked against replacement, and the storage is zeroed for its
        new life as scratchpad.  SPM -> CACHE: the way is simply unlocked;
        tags are already invalid, and fills overwrite the stale storage.
        """
        if not 0 <= way < self.ways:
            raise ValueError("way index %r out of range [0, %d)" % (way, self.ways))
        if mode not in (MODE_CACHE, MODE_SPM):
            raise ValueError("mode must be %r or %r, got %r" % (MODE_CACHE, MODE_SPM, mode))
        if self.modes[way] == mode:
            return
        bit = 1 << way
        if mode == MODE_SPM:
            wpl = self.words_per_line
            for s in range(self.sets):
                if self._dirty[s] & bit:
                    self._write_back(s, way)
                slot = s * self.ways + way
                self._tags[slot] = _NO_LINE
                self._data[slot * wpl:(slot + 1) * wpl] = [0] * wpl
            self._set_locked(self._locked | bit)
        else:
            self._set_locked(self._locked & ~bit)
        self.modes[way] = mode

    # -- address decode -------------------------------------------------------

    def in_spm_window(self, paddr):
        return self.spm_base is not None and self.spm_base <= paddr < self.spm_base + self.size

    def spm_decode(self, paddr):
        """Map a window address to (way, set, word); None outside the window."""
        if not self.in_spm_window(paddr):
            return None
        offset = paddr - self.spm_base
        way = offset // self.way_bytes
        set_idx = offset % self.way_bytes // self.line_bytes
        word = offset % self.line_bytes // WORD_BYTES
        return way, set_idx, word

    # -- the access path ------------------------------------------------------

    def access(self, paddr, kind="read", value=None):
        """Perform one 64-bit access; paddr is word-aligned internally."""
        if kind not in ("read", "write", "ifetch"):
            raise ValueError("kind must be read/write/ifetch, got %r" % (kind,))
        if kind == "write" and value is None:
            raise ValueError("write access needs a value")
        paddr &= ~(WORD_BYTES - 1)
        spm = self.spm_base
        if spm is not None and spm <= paddr < spm + self.size:
            return self._spm_access(paddr, kind, value)
        return self._cached_access(paddr, kind, value)

    def read_fetches(self, paddrs):
        """Read every address of a page walk's fetch list, in order, exactly
        as access(paddr, "read") one by one would; return the counts of
        (hits, misses, spm) events, spm covering misconfigured-window reads
        too.  Hits are served here; misses and window addresses go through
        the same paths as access."""
        hits = misses = spm = 0
        ways = self.ways
        set_mask = self.sets - 1
        line_shift, set_shift = self._line_shift, self._set_shift
        tags, plru, and_, or_ = self._tags, self._plru, self._and, self._or
        stats = self.stats
        spm_lo = self.spm_base
        spm_hi = None if spm_lo is None else spm_lo + self.size
        for paddr in paddrs:
            paddr &= ~(WORD_BYTES - 1)
            if spm_lo is not None and spm_lo <= paddr < spm_hi:
                self._spm_access(paddr, "read", None)
                spm += 1
                continue
            line = paddr >> line_shift
            set_idx = line & set_mask
            base = set_idx * ways
            row = tags[base:base + ways]
            tag = line >> set_shift
            if tag in row:
                way = row.index(tag)
                plru[set_idx] = plru[set_idx] & and_[way] | or_[way]
                stats["hits"] += 1
                hits += 1
            else:
                self._cached_access(paddr, "read", None)
                misses += 1
        return hits, misses, spm

    def _spm_access(self, paddr, kind, value):
        way, set_idx, word = self.spm_decode(paddr)
        if self.modes[way] != MODE_SPM:
            # The window slice exists but its way was never converted:
            # behave like a black hole instead of stalling the core.
            self.stats["spm_misconfigs"] += 1
            return AccessResult(EVENT_SPM_MISCONFIG, None if kind == "write" else 0)
        self.stats["spm_accesses"] += 1
        idx = (set_idx * self.ways + way) * self.words_per_line + word
        if kind == "write":
            self._data[idx] = value & _WORD_MASK
            return AccessResult(EVENT_SPM, None)
        return AccessResult(EVENT_SPM, self._data[idx])

    def _cached_access(self, paddr, kind, value):
        line = paddr >> self._line_shift
        set_idx = line & (self.sets - 1)
        tag = line >> self._set_shift
        wpl = self.words_per_line
        word = paddr >> 3 & (wpl - 1)
        base = set_idx * self.ways
        tags = self._tags
        row = tags[base:base + self.ways]
        stats = self.stats
        if tag in row:
            way = row.index(tag)
            self._plru[set_idx] = self._plru[set_idx] & self._and[way] | self._or[way]
            stats["hits"] += 1
            idx = (base + way) * wpl + word
            if kind == "write":
                self._data[idx] = value & _WORD_MASK
                self._dirty[set_idx] |= 1 << way
                return AccessResult(EVENT_HIT, None)
            return AccessResult(EVENT_HIT, self._data[idx])
        # Miss.  Reading the fill line first is the mapping check: an
        # unmapped line raises before any tag, dirty or PLRU bit moves.
        # The victim holds another line, so its write-back cannot change
        # what was read.
        stats["misses"] += 1
        memory = self.memory
        fill = memory.read_line(line << self._line_shift, wpl)
        bits = self._plru[set_idx]
        victim = self._victims[bits]
        if victim is None:
            # Every way is SPM: nothing can be allocated, so the access
            # is serviced straight from memory and nothing is cached.
            stats["fill_drops"] += 1
            if kind == "write":
                memory.write_word(paddr, value)
                return AccessResult(EVENT_MISS, None)
            return AccessResult(EVENT_MISS, fill[word])
        self._plru[set_idx] = bits & self._and[victim] | self._or[victim]
        slot = base + victim
        bit = 1 << victim
        if tags[slot] != _NO_LINE:
            stats["evictions"] += 1
            if self._dirty[set_idx] & bit:
                self._write_back(set_idx, victim)
        start = slot * wpl
        self._data[start:start + wpl] = fill
        tags[slot] = tag
        if kind == "write":
            self._data[start + word] = value & _WORD_MASK
            self._dirty[set_idx] |= bit
            return AccessResult(EVENT_MISS, None)
        self._dirty[set_idx] &= ~bit
        return AccessResult(EVENT_MISS, self._data[start + word])

    def _write_back(self, set_idx, way):
        slot = set_idx * self.ways + way
        line_base = (self._tags[slot] * self.sets + set_idx) * self.line_bytes
        start = slot * self.words_per_line
        self.memory.write_line(line_base, self._data[start:start + self.words_per_line])
        self._dirty[set_idx] &= ~(1 << way)
        self.stats["write_backs"] += 1

    # -- maintenance ----------------------------------------------------------

    def flush(self):
        """Write back every dirty line and invalidate all CACHE-mode ways."""
        for s in range(self.sets):
            dirty = self._dirty[s]
            way = 0
            while dirty:
                if dirty & 1:
                    self._write_back(s, way)
                dirty >>= 1
                way += 1
        # SPM ways never hold tags, so this only drops CACHE lines.
        self._tags[:] = [_NO_LINE] * len(self._tags)

    def snapshot(self):
        """Every piece of mutable state, as immutable copies for restore()."""
        return (
            tuple(self._tags),
            tuple(self._dirty),
            tuple(self._data),
            tuple(self._plru),
            tuple(self.modes),
            self._locked,
            tuple(self.stats.items()),
        )

    def restore(self, state):
        """Return to a snapshot() of this cache, copying it in place."""
        tags, dirty, data, plru, modes, locked, stats = state
        self._tags[:] = tags
        self._dirty[:] = dirty
        self._data[:] = data
        self._plru[:] = plru
        self.modes[:] = modes
        self._set_locked(locked)
        self.stats = dict(stats)

    # -- introspection (tests) --------------------------------------------------

    def probe(self, paddr):
        """Return the (set, way) currently holding paddr's line, else None."""
        line = paddr >> self._line_shift
        set_idx = line & (self.sets - 1)
        tag = line >> self._set_shift
        row = self._tags[set_idx * self.ways:(set_idx + 1) * self.ways]
        if tag in row:
            return set_idx, row.index(tag)
        return None

    def spm_word(self, way, set_idx, word):
        """Directly read one SPM storage word (testing aid, not an access)."""
        if self.modes[way] != MODE_SPM:
            raise ValueError("way %d is not in SPM mode" % way)
        return self._data[(set_idx * self.ways + way) * self.words_per_line + word]

    def tag_state(self):
        """Deterministic fingerprint of tags, dirty bits, the per-set
        replacement bits and the locked-ways mask, for before/after
        comparisons."""
        return tuple(self._tags), tuple(self._dirty), tuple(self._plru), self._locked

"""Independent reference models used to generate and check expected values.

Everything in here is deliberately written in a different style from the
package under test (recursive / set-based / naive) so that agreement is
meaningful.  Nothing imports from pvmsim.
"""


# ---------------------------------------------------------------------------
# Tree-PLRU references
# ---------------------------------------------------------------------------

def plru_touch_ref(bits, leaf_count, leaf):
    """Textbook tree-PLRU access update, computed from the leaf's binary
    representation level by level (the classic RTL formulation) instead of
    by walking parent links."""
    levels = leaf_count.bit_length() - 1
    out = list(bits)
    for lvl in range(levels):
        base = (1 << lvl) - 1
        shift = levels - lvl
        # The node covering `leaf` at this level points away from the half
        # that `leaf` occupies.
        out[base + (leaf >> shift)] = (~(leaf >> (shift - 1))) & 1
    return out


def plru_victim_ref(bits, leaf_count):
    """Textbook unconstrained victim: the unique leaf whose full root path
    agrees with every stored bit (decode formulation, no tree walk)."""
    levels = leaf_count.bit_length() - 1
    for leaf in range(leaf_count):
        ok = True
        for lvl in range(levels):
            base = (1 << lvl) - 1
            node = base + (leaf >> (levels - lvl))
            towards = (leaf >> (levels - lvl - 1)) & 1
            if bits[node] != towards:
                ok = False
                break
        if ok:
            return leaf
    raise AssertionError("unreachable: some leaf always matches")


def plru_constrained_victim_ref(bits, leaf_count, reachable):
    """Brute-force reachability + traversal walk over an explicit leaf set.

    `reachable` is a set of leaf indices (partition expansion and locks
    already applied).  Mirrors the documented walk: follow the pointed-to
    branch; fall back to the sibling when the pointed-to subtree has no
    reachable leaf; divert to the sibling one level early when the
    pointed-to child itself points straight at an unreachable leaf and the
    sibling still has reachable leaves.
    """
    n_internal = leaf_count - 1

    def leaves_under(node):
        if node >= n_internal:
            return {node - n_internal}
        return leaves_under(2 * node + 1) | leaves_under(2 * node + 2)

    def walk(node):
        if node >= n_internal:
            leaf = node - n_internal
            return leaf if leaf in reachable else None
        chosen = 2 * node + 1 + bits[node]
        other = 2 * node + 2 - bits[node]
        if not (leaves_under(chosen) & reachable):
            if leaves_under(other) & reachable:
                return walk(other)
            return None
        if leaves_under(other) & reachable and chosen < n_internal:
            hop = 2 * chosen + 1 + bits[chosen]
            if hop >= n_internal and (hop - n_internal) not in reachable:
                return walk(other)
        return walk(chosen)

    return walk(0)


def partition_leaves_ref(leaf_count, partition_count, mask):
    """Set of leaves enabled by `mask`, by first principles: leaf L belongs
    to partition L // (leaf_count/partition_count)."""
    per = leaf_count // partition_count
    return {leaf for leaf in range(leaf_count) if (mask >> (leaf // per)) & 1}


# ---------------------------------------------------------------------------
# Partition-CSR reference machine
# ---------------------------------------------------------------------------

class CsrPairRef:
    """Two plain variables and the documented write effects, nothing else."""

    def __init__(self, cur, last):
        self.cur = cur
        self.last = last

    def write_cur(self, value):
        self.last = self.cur
        self.cur = value

    def write_last(self, value):
        self.last = value

    def write_restore(self, word):
        if word & 1:
            self.cur = self.last


# ---------------------------------------------------------------------------
# Radix-walk references
# ---------------------------------------------------------------------------

def radix_translate_ref(tables, root_ppn, addr):
    """Direct evaluation of a radix tree held as {ppn: [512 ptes]}.

    Returns ("ok", paddr, level, pte) or ("fault", reason, level, None).
    Indexes the sparse store directly; no fetch accounting, no walker code.
    """
    node = root_ppn
    for level in (2, 1, 0):
        index = (addr >> (12 + 9 * level)) & 0x1FF
        table = tables.get(node)
        pte = 0 if table is None else table[index]
        if not pte & 1:  # V clear
            return ("fault", "invalid", level, None)
        if pte & 0b1110:  # any of R/W/X: leaf
            ppn = pte >> 10
            if ppn & ((1 << (9 * level)) - 1):
                return ("fault", "misaligned", level, None)
            page = 1 << (12 + 9 * level)
            return ("ok", (ppn << 12) + (addr & (page - 1)), level, pte)
        node = pte >> 10
    return ("fault", "no-leaf", 0, None)


def radix_fetch_count_ref(tables, root_ppn, addr):
    """Number of PTE fetches a single-stage walk of `addr` performs
    (faults count the fetches made up to and including the faulting one)."""
    status = radix_translate_ref(tables, root_ppn, addr)
    if status[0] == "ok":
        return 3 - status[2]
    # A walk fetches one PTE per level until it stops.
    return 3 - status[2]


def two_stage_count_ref(guest_tables, guest_root, host_tables, host_root, gvaddr):
    """Instrumented fetch count for a nested walk, computed from the two
    radix trees alone: each guest-level step costs one host walk plus the
    guest PTE fetch; the final address costs one more host walk."""
    total = 0
    node = guest_root
    for level in (2, 1, 0):
        index = (gvaddr >> (12 + 9 * level)) & 0x1FF
        gpa_of_pte = (node << 12) + index * 8
        host = radix_translate_ref(host_tables, host_root, gpa_of_pte)
        total += radix_fetch_count_ref(host_tables, host_root, gpa_of_pte)
        if host[0] != "ok":
            return total, ("fault", "host")
        total += 1  # the guest PTE fetch itself
        table = guest_tables.get(node)
        pte = 0 if table is None else table[index]
        if not pte & 1:
            return total, ("fault", "guest")
        if pte & 0b1110:
            ppn = pte >> 10
            if ppn & ((1 << (9 * level)) - 1):
                return total, ("fault", "guest")
            page = 1 << (12 + 9 * level)
            gpa = (ppn << 12) + (gvaddr & (page - 1))
            total += radix_fetch_count_ref(host_tables, host_root, gpa)
            final = radix_translate_ref(host_tables, host_root, gpa)
            if final[0] != "ok":
                return total, ("fault", "host")
            return total, ("ok", final[1])
        node = pte >> 10
    return total, ("fault", "guest")


def radix_fetches_ref(tables, root_ppn, addr):
    """(fetch addresses, radix_translate_ref outcome) of a single-stage
    walk: one PTE address per level the walk reads, root first."""
    status = radix_translate_ref(tables, root_ppn, addr)
    fetches = []
    node = root_ppn
    for level in range(2, status[2] - 1, -1):
        index = (addr >> (12 + 9 * level)) & 0x1FF
        fetches.append((node << 12) + index * 8)
        if level > status[2]:
            node = tables[node][index] >> 10
    return fetches, status


def nested_walk_ref(guest_tables, guest_root, host_tables, host_root, gvaddr):
    """(fetch addresses, outcome) of a two-stage walk, from the two radix
    trees alone.  Each guest level costs a host walk of its PTE's
    guest-physical address, then the guest PTE fetch at the host address
    found; the final guest-physical address costs one more host walk.
    outcome is ("ok", paddr, page_size, pte) with the smaller of the two
    page sizes and the two leaves' flags combined, or ("fault", reason,
    stage)."""
    fetches = []
    node = guest_root
    for level in (2, 1, 0):
        index = (gvaddr >> (12 + 9 * level)) & 0x1FF
        host_fetches, host = radix_fetches_ref(host_tables, host_root, (node << 12) + index * 8)
        fetches += host_fetches
        if host[0] != "ok":
            return fetches, ("fault", host[1], "host")
        fetches.append(host[1])
        table = guest_tables.get(node)
        pte = 0 if table is None else table[index]
        if not pte & 1:
            return fetches, ("fault", "invalid", "guest")
        if pte & 0b1110:
            guest_size = 1 << (12 + 9 * level)
            if (pte >> 10) % (guest_size >> 12):
                return fetches, ("fault", "misaligned", "guest")
            gpa = (pte >> 10 << 12) + gvaddr % guest_size
            host_fetches, final = radix_fetches_ref(host_tables, host_root, gpa)
            fetches += host_fetches
            if final[0] != "ok":
                return fetches, ("fault", final[1], "host")
            size = min(guest_size, 1 << (12 + 9 * final[2]))
            # R, W, X, A and D must be granted by both leaves; U and G
            # come from the guest leaf; V is set.
            flags = pte & final[3] & 0b11001110 | pte & 0b110000 | 1
            return fetches, ("ok", final[1], size, (final[1] - final[1] % size) >> 12 << 10 | flags)
        node = pte >> 10
    return fetches, ("fault", "no-leaf", "guest")


class PageTablesRef:
    """The table builder as a plain dict of 512-entry lists, growing one
    leaf at a time.

    map_page() checks, in order: the page size (4 KiB, 2 MiB or 1 GiB),
    the alignment of both addresses, and the address range (a sign-extended
    39-bit virtual address, or a zero-extended 41-bit guest-physical one
    with `gpa_space`).  A call that passes them counts one mutation; the
    descent then creates each missing table (one more mutation each, the
    lowest free page at or above `next_ppn`) before writing the pointer to
    it, and stops on a superpage leaf in the way or an occupied slot.
    Like the builder, a guest-physical root indexes bits 38..30 only.
    """

    def __init__(self, root_ppn, next_ppn, gpa_space):
        self.tables = {root_ppn: [0] * 512}
        self.root_ppn = root_ppn
        self.next_ppn = next_ppn
        self.gpa_space = gpa_space
        self.version = 0

    def map_page(self, vaddr, paddr, page_size, flags):
        """Returns the builder's ValueError message, or None once mapped."""
        depth = {1 << 30: 1, 1 << 21: 2, 1 << 12: 3}.get(page_size)
        if depth is None:
            return "unsupported page size %r" % (page_size,)
        if vaddr % page_size or paddr % page_size:
            return "mapping 0x%x -> 0x%x not aligned to page size 0x%x" % (vaddr, paddr, page_size)
        if self.gpa_space:
            inside = 0 <= vaddr < 1 << 41
        else:
            inside = 0 <= vaddr < 1 << 38 or (1 << 64) - (1 << 38) <= vaddr < 1 << 64
        if not inside:
            return "address 0x%x outside this space" % vaddr
        self.version += 1
        digits = [(vaddr >> 30) % 512, (vaddr >> 21) % 512, (vaddr >> 12) % 512][:depth]
        node = self.root_ppn
        for index in digits[:-1]:
            pte = self.tables[node][index]
            if pte % 2 == 0:
                child = self.next_ppn
                while child in self.tables:
                    child += 1
                self.next_ppn = child + 1
                self.tables[child] = [0] * 512
                self.version += 1
                self.tables[node][index] = child * 1024 + 1
                node = child
            elif pte & 0b1110:
                return "0x%x already covered by a superpage leaf" % vaddr
            else:
                node = pte >> 10
        if self.tables[node][digits[-1]] % 2:
            return "0x%x mapped twice" % vaddr
        self.tables[node][digits[-1]] = (paddr >> 12) * 1024 + (flags | 1)
        return None


def analytic_two_stage_count(guest_leaf_level, host_leaf_level):
    """Closed-form fetch count when every host walk stops at the same level:
    G guest fetches, each preceded by an H-fetch host walk, plus the final
    host walk: G*(H+1) + H."""
    g = 3 - guest_leaf_level
    h = 3 - host_leaf_level
    return g * (h + 1) + h


# -- set-associative cache reference -----------------------------------------


class CacheRef:
    """Textbook write-back, write-allocate set-associative PLRU cache.

    Built from per-set dicts and the decode-formulation PLRU helpers
    above, with its own flat word store standing in for backing memory
    (or a store shared with another cache, passed as `mem`).
    Victim choice is the PLRU decode (cold ways are claimed by the
    natural once-per-round property of the tree, not by an explicit
    invalid-way preference) while every way caches.

    With `spm_base` the cache also answers a scratchpad window.  A way
    converted by convert() spills its dirty lines, drops its lines, keeps
    its words in a dict of its own and leaves the victim walk, which then
    follows the reachability formulation; a miss with no reachable way
    goes straight to the word store.  A window address whose way still
    caches reads 0 and drops writes.  `stats` counts the events under
    Cache.stats's names.
    """

    def __init__(self, ways, sets, line_bytes, mem=None, spm_base=None):
        self.ways = ways
        self.sets = sets
        self.line_bytes = line_bytes
        self.words_per_line = line_bytes // 8
        self.bits = [[0] * (ways - 1) for _ in range(sets)]
        self.slots = [dict() for _ in range(sets)]  # way -> [tag, words, dirty]
        self.mem = {} if mem is None else mem  # word address -> value
        self.spm_base = spm_base
        self.spm = {}  # scratchpad way -> {(set, word): value}
        self.stats = dict.fromkeys(
            ("hits", "misses", "evictions", "write_backs", "fill_drops", "spm_accesses",
             "spm_misconfigs"),
            0,
        )

    def _mem_line(self, line_base):
        return [self.mem.get(line_base + 8 * i, 0) for i in range(self.words_per_line)]

    def _spill(self, set_idx, tag, words):
        base = (tag * self.sets + set_idx) * self.line_bytes
        for i, w in enumerate(words):
            self.mem[base + 8 * i] = w
        self.stats["write_backs"] += 1

    def convert(self, way, to_spm):
        """Turn `way` into scratchpad (True) or back into cache (False)."""
        if to_spm == (way in self.spm):
            return
        if not to_spm:
            del self.spm[way]
            return
        for set_idx, slots in enumerate(self.slots):
            old = slots.pop(way, None)
            if old is not None and old[2]:
                self._spill(set_idx, old[0], old[1])
        self.spm[way] = {}

    def _window(self, paddr, kind, value):
        way, set_idx, word = spm_decode_ref(
            self.spm_base, self.ways, self.sets, self.line_bytes, paddr
        )
        store = self.spm.get(way)
        if store is None:
            self.stats["spm_misconfigs"] += 1
            return "spm-misconfig", None if kind == "write" else 0
        self.stats["spm_accesses"] += 1
        if kind == "write":
            store[set_idx, word] = value
            return "spm", None
        return "spm", store.get((set_idx, word), 0)

    def access(self, paddr, kind, value=None):
        paddr &= ~7
        span = self.ways * self.sets * self.line_bytes
        if self.spm_base is not None and self.spm_base <= paddr < self.spm_base + span:
            return self._window(paddr, kind, value)
        set_idx = paddr // self.line_bytes % self.sets
        tag = paddr // (self.line_bytes * self.sets)
        word = paddr % self.line_bytes // 8
        slots = self.slots[set_idx]
        for way, slot in slots.items():
            if slot[0] == tag:
                self.bits[set_idx] = plru_touch_ref(self.bits[set_idx], self.ways, way)
                self.stats["hits"] += 1
                if kind == "write":
                    slot[1][word] = value
                    slot[2] = True
                    return "hit", None
                return "hit", slot[1][word]
        self.stats["misses"] += 1
        if self.spm:
            reachable = set(range(self.ways)) - set(self.spm)
            victim = plru_constrained_victim_ref(self.bits[set_idx], self.ways, reachable)
        else:
            victim = plru_victim_ref(self.bits[set_idx], self.ways)
        if victim is None:
            self.stats["fill_drops"] += 1
            if kind == "write":
                self.mem[paddr] = value
                return "miss", None
            return "miss", self.mem.get(paddr, 0)
        self.bits[set_idx] = plru_touch_ref(self.bits[set_idx], self.ways, victim)
        old = slots.get(victim)
        if old is not None:
            self.stats["evictions"] += 1
            if old[2]:
                self._spill(set_idx, old[0], old[1])
        line_base = paddr & ~(self.line_bytes - 1)
        slot = [tag, self._mem_line(line_base), False]
        slots[victim] = slot
        if kind == "write":
            slot[1][word] = value
            slot[2] = True
            return "miss", None
        return "miss", slot[1][word]

    def drain(self):
        """Spill every dirty line into the word store (flush equivalent)."""
        for set_idx, slots in enumerate(self.slots):
            for tag, words, dirty in slots.values():
                if dirty:
                    self._spill(set_idx, tag, words)


def spm_decode_ref(base, ways, sets, line_bytes, paddr):
    """Scratchpad window decode by scanning the per-way and per-set address
    ranges instead of divmod arithmetic; None outside the window."""
    way_span = sets * line_bytes
    for way in range(ways):
        lo = base + way * way_span
        if lo <= paddr < lo + way_span:
            for set_idx in range(sets):
                s_lo = lo + set_idx * line_bytes
                if s_lo <= paddr < s_lo + line_bytes:
                    return way, set_idx, (paddr - s_lo) // 8
    return None


# -- TLB reference ------------------------------------------------------------


class RefFault(Exception):
    """A translation fault of TlbRef or PipelineRef; args are (vaddr, fault,
    stage): "non-canonical" and None, or a walk's fault and its stage."""


class TlbRef:
    """Naive fully associative TLB with lock slots and partition-steered
    fills, built on the PLRU helpers above.

    Entries and slot registers are plain dicts; a lookup scans the active
    lock slots in slot order, then every valid entry in leaf order, and
    matches a page by range (vpn <= page < vpn + span) rather than by
    masking.  No state is remembered between lookups.  Results are
    (status, paddr, page_size, pte, lock_hit) tuples; a non-canonical
    address raises RefFault and counts as nothing.  The counters are
    (hits, misses, lock_hits, fills, dropped_fills), the order in which
    memsys.COUNTERS names each TLB's positions.
    """

    G_FLAG = 1 << 5

    def __init__(self, entries, partitions, slots):
        self.leaf_count = entries
        self.partitions = partitions
        self.bits = [0] * (entries - 1)
        self.locked = set()
        self.entries = [None] * entries  # leaf -> dict, None once invalid
        self.slots = [{"vpn": None, "pte": None, "id": None} for _ in range(slots)]
        self.counters = [0, 0, 0, 0, 0]

    @staticmethod
    def _canonical(vaddr):
        low = vaddr & ((1 << 39) - 1)
        if low >> 38:
            low |= ((1 << 64) - 1) ^ ((1 << 39) - 1)  # sign-extend bit 38
        return low == vaddr

    @staticmethod
    def _covers(vpn, page_size, vaddr):
        page = (vaddr >> 12) % (1 << 27)
        return vpn <= page < vpn + page_size // 4096

    def _active(self, slot):
        return None not in (slot["vpn"], slot["pte"], slot["id"])

    def lookup(self, vaddr, asid, vmid):
        if not self._canonical(vaddr):
            raise RefFault(vaddr, "non-canonical", None)
        for slot in self.slots:
            if not self._active(slot):
                continue
            vpn, page_size, flags = slot["vpn"]
            slot_asid, slot_vmid = slot["id"]
            if (
                slot_vmid == vmid
                and (slot_asid == asid or flags & self.G_FLAG)
                and self._covers(vpn, page_size, vaddr)
            ):
                self.counters[0] += 1
                self.counters[2] += 1
                pte = slot["pte"]
                return ("hit", (pte >> 10) * 4096 + vaddr % page_size, page_size, pte, True)
        for leaf, entry in enumerate(self.entries):
            if (
                entry is not None
                and entry["vmid"] == vmid
                and (entry["asid"] == asid or entry["global"])
                and self._covers(entry["vpn"], entry["page_size"], vaddr)
            ):
                self.bits = plru_touch_ref(self.bits, self.leaf_count, leaf)
                self.counters[0] += 1
                pte = entry["pte"]
                page_size = entry["page_size"]
                return ("hit", (pte >> 10) * 4096 + vaddr % page_size, page_size, pte, False)
        self.counters[1] += 1
        return ("miss", 0, 0, 0, False)

    def fill(self, mask, vpn, page_size, asid, vmid, pte, global_flag):
        """Install under partition mask `mask`; the leaf, or None if dropped."""
        reachable = partition_leaves_ref(self.leaf_count, self.partitions, mask) - self.locked
        victim = plru_constrained_victim_ref(self.bits, self.leaf_count, reachable)
        if victim is None:
            self.counters[4] += 1
            return None
        self.bits = plru_touch_ref(self.bits, self.leaf_count, victim)
        self.entries[victim] = {
            "vpn": vpn, "page_size": page_size, "asid": asid, "vmid": vmid,
            "pte": pte, "global": global_flag,
        }
        self.counters[3] += 1
        return victim

    def program(self, index, which, value):
        """Write one slot register: `value` is the register's fields, or
        None for a cleared valid bit.  vpn = (vpn, page_size, flags),
        pte = pte, id = (asid, vmid).  Slot j pins leaf j while active."""
        slot = self.slots[index]
        was_active = self._active(slot)
        slot[which] = value
        if self._active(slot) and not was_active:
            self.locked.add(index)
        elif was_active and not self._active(slot):
            self.locked.discard(index)

    def state(self):
        """Comparable view: (node bits, locked leaves, entries, counters)."""
        return (
            list(self.bits),
            sorted(self.locked),
            [None if e is None else dict(e) for e in self.entries],
            tuple(self.counters),
        )


# -- whole-pipeline reference ---------------------------------------------------


class PipelineRef:
    """Naive reference of MemorySystem.virtual_access: a TlbRef and a
    CacheRef per side over one shared word store, walks from the radix
    trees every time (nothing remembered between misses), each PTE fetch
    read through the data-side CacheRef and priced on its own, and one
    randint(-j, j) jitter draw per miss, in the order the misses happen.

    `geometry` is (entries, partitions, lock_slots, ways, icache_sets,
    dcache_sets, line_bytes); `prices` is (tlb, hit, spm, memory,
    jitter).  A vm carries asid, vmid, guest_space and host_space (None
    for a single-stage walk); a space is read only through its `tables`
    ({ppn: [512 ptes]}) and `root_ppn`.  The test mirrors every partition
    CSR write into `cur_part`.  access() returns the fields of a
    MemAccessOutcome, in field order, and counters() every tally in
    MemorySystem.counters()'s order.  A non-canonical address raises
    TlbRef's RefFault; a miss whose walk faults counts the miss and raises
    RefFault before any PTE fetch is read or priced.
    """

    def __init__(self, geometry, prices, ispm_base, dspm_base, rng=None):
        entries, partitions, lock_slots, ways, icache_sets, dcache_sets, line_bytes = geometry
        self.prices = prices
        self.rng = rng
        self.mem = {}
        self.itlb, self.dtlb = (TlbRef(entries, partitions, lock_slots) for _ in range(2))
        self.icache = CacheRef(ways, icache_sets, line_bytes, self.mem, ispm_base)
        self.dcache = CacheRef(ways, dcache_sets, line_bytes, self.mem, dspm_base)
        self.cur_part = (1 << partitions) - 1

    def counters(self):
        """Each TlbRef's counters, then each CacheRef's stats, I-side first."""
        return (*self.itlb.counters, *self.dtlb.counters,
                *self.icache.stats.values(), *self.dcache.stats.values())

    def _price(self, event):
        tlb, hit, spm, memory, jitter = self.prices
        if event == "hit":
            return hit
        if event != "miss":
            return spm
        return memory + (self.rng.randint(-jitter, jitter) if jitter else 0)

    def _walk(self, vm, vaddr):
        guest, host = vm.guest_space, vm.host_space
        if host is None:
            fetches, status = radix_fetches_ref(guest.tables, guest.root_ppn, vaddr)
            if status[0] != "ok":
                return fetches, ("fault", status[1], None)
            return fetches, ("ok", status[1], 1 << (12 + 9 * status[2]), status[3])
        return nested_walk_ref(guest.tables, guest.root_ppn, host.tables, host.root_ppn, vaddr)

    def access(self, vm, vaddr, kind, value=None):
        tlb, cache = (self.itlb, self.icache) if kind == "ifetch" else (self.dtlb, self.dcache)
        translation = self.prices[0]
        status, paddr, _, _, lock_hit = tlb.lookup(vaddr, vm.asid, vm.vmid)
        walk = fetches = 0
        if status == "miss":
            addrs, outcome = self._walk(vm, vaddr)
            if outcome[0] == "fault":
                raise RefFault(vaddr, outcome[1], outcome[2])
            fetches = len(addrs)
            for addr in addrs:
                walk += self._price(self.dcache.access(addr, "read")[0])
            _, paddr, size, pte = outcome
            vpn = (vaddr >> 12) % (1 << 27) // (size >> 12) * (size >> 12)
            tlb.fill(self.cur_part, vpn, size, vm.asid, vm.vmid, pte, bool(pte & TlbRef.G_FLAG))
        event, read = cache.access(paddr, kind, value)
        cycles = self._price(event)
        return (translation, walk, cycles, translation + walk + cycles, status == "hit", lock_hit,
                fetches, event, read, paddr)

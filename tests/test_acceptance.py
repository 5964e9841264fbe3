"""Acceptance gate: ten behavioral criteria, one printed verdict line each.

Each test exercises one release criterion end to end and prints a single
`criterion NN pass/FAIL` line with the measured margin (run pytest with -s
to see the lines as they happen; they also appear in failure output).  The
criteria cover: golden replacement vectors, exhaustive small-instance
equivalence, partition isolation, vanilla-PLRU equivalence, two-stage walk
fetch counts, the zero-variance isolation construction, interference-trend
magnitudes at desk scale, scratchpad semantics, the partition-CSR protocol,
and bit-for-bit reproducibility.
"""

import os
import random
import statistics
import tempfile
import time
from types import SimpleNamespace

from pvmsim import harness
from pvmsim.cache import (
    EVENT_MISS,
    EVENT_SPM,
    EVENT_SPM_MISCONFIG,
    MODE_CACHE,
    MODE_SPM,
    Cache,
    Memory,
)
from pvmsim.cli import preset_text
from pvmsim.config import load_experiment
from pvmsim.harness import run_experiment, summarize, write_outputs
from pvmsim.memsys import LatencyConfig, MachineConfig, MemorySystem
from pvmsim.sv39 import (
    PTE_A, PTE_D, PTE_R, PTE_V, PTE_W, PTE_X, SIZE_1G, SIZE_2M, SIZE_4K, make_pte,
)
from pvmsim.tlb import PartitionCsrFile
from pvmsim.vectors import run_reference_vectors
from pvmsim.walker import AddressSpace, walk_two_stage

import test_plru
from oracles import (
    CsrPairRef,
    partition_leaves_ref,
    plru_touch_ref,
    plru_victim_ref,
    spm_decode_ref,
    two_stage_count_ref,
)
from state_views import probe, spm_word, way_modes
from test_tlb import entry, make_tlb

RW = PTE_R | PTE_W | PTE_A | PTE_D
RWX = RW | PTE_X
WORD_MASK = (1 << 64) - 1

RAM_BASE = 0x8000_0000
SPM_BASE = 0x1000_0000


def report(num, ok, detail):
    line = "criterion %02d %s  %s" % (num, "pass" if ok else "FAIL", detail)
    print(line)
    assert ok, line


# -- 1: golden replacement vectors -------------------------------------------

def test_criterion_01_reference_vectors():
    t0 = time.perf_counter()
    results = run_reference_vectors()
    elapsed = time.perf_counter() - t0
    passed = sum(1 for _, ok, _ in results if ok)
    ok = passed == len(results) and elapsed < 1.0
    report(1, ok, "reference vectors %d/%d in %.3fs (budget 1s)"
           % (passed, len(results), elapsed))


# -- 2: exhaustive small-instance equivalence ---------------------------------

def test_criterion_02_exhaustive_small_trees():
    t0 = time.perf_counter()
    test_plru.exhaustive_reach_product(4)
    test_plru.exhaustive_reach_product(8)
    test_plru.test_full_product_literal_4leaf()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(2, ok, "exhaustive 4/8-leaf state x mask x lock sweeps in %.2fs "
           "(budget 10s)" % elapsed)


# -- 3: partition isolation under interleaved fills ---------------------------

def test_criterion_03_partition_isolation():
    rng = random.Random(0xACC3)
    trials, fills_per = 250, 40
    violations = placements = 0
    for _ in range(trials):
        tlb = make_tlb()
        mask_a = rng.randrange(1, 1 << 16)
        comp = ~mask_a & 0xFFFF
        while not comp:  # degenerate draw: no room for a second stream
            mask_a = rng.randrange(1, 1 << 16)
            comp = ~mask_a & 0xFFFF
        mask_b = comp & rng.randrange(1, 1 << 16)
        while not mask_b:
            mask_b = comp & rng.randrange(1, 1 << 16)
        masks = {"a": mask_a, "b": mask_b}
        allowed = {s: partition_leaves_ref(16, 16, m) for s, m in masks.items()}
        for seq in range(fills_per):
            stream = rng.choice(("a", "b"))
            tlb.csr.write_cur_part(masks[stream])
            leaf = tlb.fill(entry(vpn=seq + 1))
            if leaf is None:
                continue
            placements += 1
            if leaf not in allowed[stream]:
                violations += 1
    total = trials * fills_per
    ok = violations == 0 and total == 10_000 and placements > 9_000
    report(3, ok, "disjoint-mask streams: %d interleaved fills across %d "
           "stream pairs, %d cross-partition placements" % (total, trials, violations))


# -- 4: vanilla tree-PLRU equivalence with the full mask -----------------------

def test_criterion_04_vanilla_equivalence():
    rng = random.Random(0xACC4)
    tlb = make_tlb()  # boot CSR state enables every partition
    bits = [0] * 15
    leaf_vpn = {}   # leaf -> resident vpn
    vpn_leaf = {}   # vpn  -> leaf
    resident = []
    mismatches = fills = hits = 0
    next_vpn = 1
    for _ in range(100_000):
        if resident and rng.random() < 0.3:
            vpn = resident[rng.randrange(len(resident))]
            res = tlb.lookup(vpn << 12, 1, 0)
            assert res.status == "hit"
            bits = plru_touch_ref(bits, 16, vpn_leaf[vpn])
            hits += 1
        else:
            want = plru_victim_ref(bits, 16)
            got = tlb.fill(entry(vpn=next_vpn))
            if got != want:
                mismatches += 1
                break
            bits = plru_touch_ref(bits, 16, got)
            old = leaf_vpn.pop(got, None)
            if old is not None:
                del vpn_leaf[old]
                resident.remove(old)
            leaf_vpn[got] = next_vpn
            vpn_leaf[next_vpn] = got
            resident.append(next_vpn)
            next_vpn += 1
            fills += 1
    state_ok = list(tlb.tree.snapshot_bits()) == bits
    ok = mismatches == 0 and state_ok and fills + hits == 100_000
    report(4, ok, "full-mask victim stream identical to textbook PLRU over "
           "%d fills + %d hit touches, final state %s" %
           (fills, hits, "matches" if state_ok else "DIVERGES"))


# -- 5: two-stage walk fetch counts --------------------------------------------

def _fresh_pair(groot, galloc, hroot, halloc):
    guest = AddressSpace(root_ppn=groot, table_alloc_ppn=galloc)
    host = AddressSpace(root_ppn=hroot, table_alloc_ppn=halloc, gpa_space=True)
    return guest, host


def _host_map_tables(guest, host, done):
    for ppn in guest.table_ppns():
        if ppn not in done:
            done.add(ppn)
            try:
                host.map_page(ppn << 12, (0x10_0000 + ppn) << 12, SIZE_4K, RWX)
            except ValueError:
                pass


def test_criterion_05_walk_fetch_counts():
    # 4 KiB guest page through 4 KiB host pages: 3 guest levels, each guest
    # table fetch preceded by a 3-fetch host walk, plus the final host walk.
    guest, host = _fresh_pair(0x900, 0x901, 0x6000, 0x6001)
    guest.map_page(0x1_2345_6000, 0x9999000, SIZE_4K, RW)
    _host_map_tables(guest, host, set())
    host.map_page(0x9999000, 0x2_2222_2000, SIZE_4K, RWX)
    res_a = walk_two_stage(guest, host, 0x1_2345_6123)
    count_a = len(res_a.accesses)

    # 1 GiB guest leaf: one guest fetch bracketed by two 3-fetch host walks.
    guest, host = _fresh_pair(0x900, 0x901, 0x6000, 0x6001)
    guest.map_page(1 << 30, 1 << 30, SIZE_1G, RW)
    _host_map_tables(guest, host, set())
    off = 0x1234_5678
    host.map_page((1 << 30) + (off & ~0xFFF), 0x2_4000_0000 + (off & ~0xFFF),
                  SIZE_4K, RWX)
    res_b = walk_two_stage(guest, host, (1 << 30) + off)
    count_b = len(res_b.accesses)

    # 1 GiB host superpage covering guest tables and data: every host walk
    # terminates at the root.
    guest, host = _fresh_pair(0x900, 0x901, 0x6000, 0x6001)
    guest.map_page(0x1_2345_6000, 0x1234000, SIZE_4K, RW)
    host.map_page(0, 1 << 30, SIZE_1G, RWX)
    res_c = walk_two_stage(guest, host, 0x1_2345_6123)
    count_c = len(res_c.accesses)

    literal_ok = (
        res_a.fault is None and res_b.fault is None and res_c.fault is None
        and (count_a, count_b, count_c) == (15, 7, 7)
    )

    # Randomized differential sweep: mixed 4K/2M guest pages, partial host
    # coverage, counts and outcomes checked against the instrumented oracle.
    rng = random.Random(0xACC5)
    guest, host = _fresh_pair(0x800, 0x801, 0x4000, 0x4001)
    hosted_tables = set()
    addrs = []
    while len(addrs) < 1000:
        size_g = rng.choice((SIZE_4K, SIZE_4K, SIZE_4K, SIZE_2M))
        span = size_g >> 12
        gva = (rng.randrange(1 << 26) & ~(span - 1)) << 12
        gpa = ((0x8_0000 + rng.randrange(1 << 16)) & ~(span - 1)) << 12
        try:
            guest.map_page(gva, gpa, size_g, RW)
        except ValueError:
            continue
        _host_map_tables(guest, host, hosted_tables)
        addr = gva + rng.randrange(size_g)
        addrs.append(addr)
        if rng.random() < 0.8:
            hp = gpa + (addr - gva)
            size_h = rng.choice((SIZE_4K, SIZE_4K, SIZE_2M))
            base_h = hp & ~(size_h - 1)
            try:
                host.map_page(base_h, 0x2_0000_0000 + base_h, size_h, RWX)
            except ValueError:
                pass
    mismatches = 0
    for addr in addrs:
        res = walk_two_stage(guest, host, addr)
        want_count, want_status = two_stage_count_ref(
            guest.tables, guest.root_ppn, host.tables, host.root_ppn, addr
        )
        if len(res.accesses) != want_count:
            mismatches += 1
            continue
        if res.fault is None:
            if want_status != ("ok", res.paddr):
                mismatches += 1
        elif want_status != ("fault", res.fault_stage):
            mismatches += 1

    ok = literal_ok and mismatches == 0
    report(5, ok, "fetch counts 4K/4K=%d 1G-guest=%d 1G-host=%d (want 15/7/7); "
           "%d random mappings, %d oracle mismatches"
           % (count_a, count_b, count_c, len(addrs), mismatches))


# -- 6: zero-variance construction ---------------------------------------------

def test_criterion_06_zero_variance_when_fully_covered():
    # Full lock coverage + every measured region scratchpad-resident +
    # jitter disabled: the measured loop never misses in TLB or cache, so
    # no latency draw ever happens and cycle counts are bit-identical no
    # matter what the interfering guest does.
    text = preset_text("synthetic-spm").replace("jitter = 3", "jitter = 0")
    assert "jitter = 0" in text
    constants = []
    iters_ok = True
    for seed in (424242, 7, 99):
        cfg = load_experiment(text=text, seed=seed, iterations=1000, scenarios=["lockspm"])
        records = run_experiment(cfg)["lockspm"]
        iters_ok = iters_ok and len(records) == 1000
        cycles = sorted({r.cycles for r in records})
        tlb_misses = {r.tlb_misses for r in records}
        if len(cycles) == 1 and tlb_misses == {0}:
            constants.append(cycles[0])
        else:
            constants.append(None)
    ok = iters_ok and None not in constants and len(set(constants)) == 1
    report(6, ok, "locked+scratchpad run is constant at %s cycles for 1000 "
           "iterations under 3 interference seeds (std exactly 0)" % constants[0])


# -- 7: interference-trend magnitudes at desk scale -----------------------------

def test_criterion_07_interference_trends():
    plan = [
        ("synthetic-nospm", ["isolation", "unmitigated", "locking"]),
        ("synthetic-spm", ["unmitigated", "lockspm"]),
        ("powerwindow-like", ["unmitigated", "partlockspm"]),
    ]
    t0 = time.perf_counter()
    ratios, lock_red, spm_red, pw_red = [], [], [], []
    for seed in (1, 2, 3):
        stds = {}
        for preset, names in plan:
            cfg = load_experiment(text=preset_text(preset), seed=seed,
                                  iterations=1000, scenarios=names)
            results = run_experiment(cfg)
            for name in names:
                stds[(preset, name)] = summarize(results[name])["cycles"]["std"]
        iso = stds[("synthetic-nospm", "isolation")]
        unm = stds[("synthetic-nospm", "unmitigated")]
        lock = stds[("synthetic-nospm", "locking")]
        ratios.append(unm / iso)
        lock_red.append(1.0 - lock / unm)
        spm_red.append(1.0 - stds[("synthetic-spm", "lockspm")]
                       / stds[("synthetic-spm", "unmitigated")])
        pw_red.append(1.0 - stds[("powerwindow-like", "partlockspm")]
                      / stds[("powerwindow-like", "unmitigated")])
    elapsed = time.perf_counter() - t0
    ok = (
        min(ratios) >= 3.0
        and min(lock_red) >= 0.50
        and min(spm_red) >= 0.85
        and min(pw_red) >= 0.85
        and elapsed < 300.0
    )
    report(7, ok, "1000-iteration trends over seeds 1-3: interference >= %.1fx "
           "isolation std (need 3x); locking cuts std >= %.0f%% (need 50%%); "
           "lock+scratchpad >= %.0f%% and full stack >= %.0f%% (need 85%%); "
           "%.0fs of 300s budget"
           % (min(ratios), 100 * min(lock_red), 100 * min(spm_red),
              100 * min(pw_red), elapsed))


# -- 8: scratchpad semantics -----------------------------------------------------

def _small_cache():
    mem = Memory(())
    mem.add_region(RAM_BASE, 1 << 20)
    cache = Cache(mem, ways=4, sets=8, line_bytes=16, spm_base=SPM_BASE)
    return mem, cache


def test_criterion_08_scratchpad_semantics():
    # (a) window decode plus misconfiguration: writes to a window slice
    # whose way is still in cache mode are dropped, reads return a dummy
    # zero; properly converted slices behave like word RAM.
    rng = random.Random(0xACC8)
    mem, cache = _small_cache()
    shadow = {}
    mis_a = 0
    for step in range(10_000):
        if step % 251 == 250:
            way = rng.randrange(4)
            mode = MODE_SPM if way_modes(cache)[way] == MODE_CACHE else MODE_CACHE
            cache.configure_way(way, mode)
            for key in [k for k in shadow if k[0] == way]:
                del shadow[key]
        paddr = SPM_BASE + rng.randrange(cache.size // 8) * 8
        way, set_idx, word = spm_decode_ref(SPM_BASE, 4, 8, 16, paddr)
        writing = rng.random() < 0.5
        value = rng.randrange(1 << 66)  # oversized on purpose: must be masked
        res = cache.access(paddr, "write" if writing else "read",
                           value if writing else None)
        if way_modes(cache)[way] == MODE_SPM:
            if writing:
                shadow[(way, set_idx, word)] = value & WORD_MASK
                if res.event != EVENT_SPM:
                    mis_a += 1
            elif (res.event, res.value) != (EVENT_SPM,
                                            shadow.get((way, set_idx, word), 0)):
                mis_a += 1
        else:
            want = None if writing else 0
            if (res.event, res.value) != (EVENT_SPM_MISCONFIG, want):
                mis_a += 1

    # (b) conversion hygiene: cache->SPM writes dirty lines back, clears
    # tags, zeroes storage, and locks the way against future fills;
    # SPM->cache leaves the way empty until a fill claims it.
    rng = random.Random(0xACC8 + 1)
    mem, cache = _small_cache()
    last_written = {}
    mis_b = 0
    pool = [RAM_BASE + (tag * 8 + s) * 16 + w * 8
            for tag in range(16) for s in range(8) for w in range(2)]
    for step in range(10_000):
        if step % 67 == 66:
            way = rng.randrange(4)
            mode = MODE_SPM if way_modes(cache)[way] == MODE_CACHE else MODE_CACHE
            cache.configure_way(way, mode)
            if mode == MODE_SPM:
                for s in range(8):
                    for w in range(2):
                        if spm_word(cache, way, s, w) != 0:
                            mis_b += 1
            for addr, value in last_written.items():
                loc = probe(cache, addr)
                if loc is not None and loc[1] == way:
                    mis_b += 1  # converted way must hold no lookup-visible line
                if loc is None and mem.read_word(addr) != value:
                    mis_b += 1  # eviction or conversion lost a dirty word
            continue
        addr = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            value = rng.randrange(1 << 64)
            res = cache.access(addr, "write", value)
            last_written[addr] = value
        else:
            res = cache.access(addr, "read")
            want = last_written.get(addr)
            if want is not None and res.value != want:
                mis_b += 1
        if res.event == EVENT_MISS:
            loc = probe(cache, addr)
            if MODE_CACHE in way_modes(cache):
                if loc is None or way_modes(cache)[loc[1]] != MODE_CACHE:
                    mis_b += 1  # refill must land in a cache-mode way
            elif loc is not None:
                mis_b += 1  # fully converted: misses bypass, never allocate

    # (c) flat latency: through the memory system, scratchpad accesses cost
    # spm_cycles regardless of access history or interleaved cache traffic
    # (which is jittered, and priced differently on a hit).
    rng = random.Random(0xACC8 + 2)
    latency = LatencyConfig(spm_cycles=2, jitter=3)
    sys_ = MemorySystem(
        MachineConfig(ways=4, icache_sets=8, dcache_sets=8), Memory([(RAM_BASE, 1 << 20)]),
        latency, ispm_base=2 * SPM_BASE, dspm_base=SPM_BASE, rng=random.Random(0xACC8 + 3),
    )
    cache = sys_.dcache
    cache.configure_way(1, MODE_SPM)
    cache.configure_way(3, MODE_SPM)
    # Lock-slot translations only: page 0x10 -> the window, 0x20 -> RAM.
    vm = SimpleNamespace(asid=1, vmid=1, guest_space=None, host_space=None)
    for slot, (vpn, paddr) in enumerate(((0x10, SPM_BASE), (0x20, RAM_BASE))):
        sys_.dtlb.program_lock_slot(slot, "vpn", vpn=vpn, page_size=SIZE_4K)
        sys_.dtlb.program_lock_slot(slot, "pte", pte=make_pte(paddr >> 12, RW | PTE_V))
        sys_.dtlb.program_lock_slot(slot, "id", asid=vm.asid, vmid=vm.vmid)
    mis_c = 0
    for _ in range(10_000):
        if rng.random() < 0.3:  # cache-side noise between scratchpad probes
            sys_.virtual_access((0x20 << 12) + rng.randrange(64) * 16, "read", vm)
            continue
        way = rng.choice((1, 3))
        offset = way * cache.way_bytes + rng.randrange(cache.way_bytes // 8) * 8
        out = sys_.virtual_access((0x10 << 12) + offset,
                                  "write" if rng.random() < 0.5 else "read", vm,
                                  value=rng.randrange(1 << 64))
        if out.cache_cycles != latency.spm_cycles or out.cache_event != EVENT_SPM:
            mis_c += 1

    ok = mis_a == 0 and mis_b == 0 and mis_c == 0
    report(8, ok, "scratchpad semantics over 3x10^4 random ops: "
           "%d misconfig violations, %d conversion violations, "
           "%d latency violations" % (mis_a, mis_b, mis_c))


# -- 9: partition-CSR protocol ----------------------------------------------------

def test_criterion_09_csr_protocol():
    rng = random.Random(0xACC9)
    csr = PartitionCsrFile(16)
    ref = CsrPairRef(csr.cur_part, csr.last_part)
    mismatches = 0
    for _ in range(100_000):
        op = rng.randrange(3)
        if op == 0:
            value = rng.randrange(1 << 16)
            csr.write_cur_part(value)
            ref.write_cur(value)
        elif op == 1:
            value = rng.randrange(1 << 16)
            csr.write_last_part(value)
            ref.write_last(value)
        else:
            word = rng.randrange(1 << 8)
            csr.write_restore_last_part(word)
            ref.write_restore(word)
        if (csr.cur_part, csr.last_part) != (ref.cur, ref.last):
            mismatches += 1
    report(9, mismatches == 0, "save/restore CSR pair vs two-variable "
           "reference over 100000 random writes: %d state mismatches" % mismatches)


# -- 10: reproducibility ------------------------------------------------------------

def test_criterion_10_determinism(pools, monkeypatch):
    presets = ("synthetic-nospm", "synthetic-spm", "powerwindow-like")
    stable = []
    for name in presets:
        text = preset_text(name)
        runs = []
        for _ in range(2):
            cfg = load_experiment(text=text, seed=11, iterations=24)
            results = run_experiment(cfg)
            with tempfile.TemporaryDirectory() as tmp:
                blobs = {}
                for path in write_outputs(tmp, cfg, results):
                    with open(path, "rb") as handle:
                        blobs[os.path.basename(path)] = handle.read()
            runs.append(blobs)
        stable.append(runs[0] == runs[1] and len(runs[0]) > 1)
    cfg = load_experiment(text=preset_text("synthetic-spm"), seed=3,
                          iterations=30, scenarios=["unmitigated"])
    serial = run_experiment(cfg)["unmitigated"]
    # Cut the 30 iterations into 3 ranges, far below MIN_SLICE.
    monkeypatch.setattr(harness, "MIN_SLICE", 1)
    parallel = run_experiment(cfg, workers=3)["unmitigated"]
    assert [p.ranges() for p in pools] == [{"unmitigated": [(0, 10), (10, 20), (20, 30)]}]
    chunking_ok = serial == parallel
    ok = all(stable) and chunking_ok
    report(10, ok, "same-seed reruns byte-identical for %d/%d presets; "
           "serial and 3-worker runs %s" %
           (sum(stable), len(presets),
            "identical" if chunking_ok else "DIVERGED"))

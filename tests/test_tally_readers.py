"""The machine's tallies are read through MemorySystem.counters() alone.

A TLB counts hits, misses, lock-slot hits, fills and dropped fills in
attributes of its own, and a cache its events in its `stats` dict.
tlb.py and cache.py own that storage and save and restore it in their
snapshots.  Everything else reads it as one flat tuple,
MemorySystem.counters(), whose positions memsys.COUNTERS names, and takes
what it needs as deltas of that tuple around a phase: the records, the
restore's jitter skip and the drawn-plan rule in hypervisor.run_iteration.
So no other function of the package, of tools/ or of bench/ may read one
of those attributes; one that does reads an ad hoc slice of the machine's
tallies that the vector, and every test that holds the vector to the
reference pipeline, cannot see.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TALLIES = ("hits", "misses", "lock_hits", "fills", "dropped_fills", "stats")
ALLOWED = {"memsys.MemorySystem.counters"}
# The files that own a tally's storage.  bench/hostspeed.py times a toy
# cache of its own, with its own `stats`, and imports nothing of pvmsim.
OWNERS = ("src/pvmsim/tlb.py", "src/pvmsim/cache.py", "bench/hostspeed.py")


def tally_reads(path, module):
    """(line, reader, tally) of every read of a TALLIES attribute in the
    file at `path`: `obj.tally` as a value (an augmented assignment to
    `obj.tally[...]` reads it too), `getattr(obj, "tally", ...)`,
    `attrgetter("tally", "a.tally", ...)` and a `case Cls(tally=...)`
    pattern.  reader is `module.qualified.name` of the innermost enclosing
    function or class, or `module` at module level."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []

    def named(node):
        """The string constants among `node`'s positional arguments."""
        return [arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]

    def visit(node, scope):
        tallies = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            tallies = (node.attr,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "getattr":
                tallies = named(node)[:1] if len(node.args) > 1 else ()
            elif name == "attrgetter":
                tallies = [dotted.rsplit(".", 1)[-1] for dotted in named(node)]
        elif isinstance(node, ast.MatchClass):
            tallies = node.kwd_attrs
        found.extend((node.lineno, ".".join(scope), t) for t in tallies if t in TALLIES)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return found


def checked_paths():
    """Every Python file of src/pvmsim, tools/ and bench/ that owns no tally."""
    paths = glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "tools", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "bench", "**", "*.py"), recursive=True)
    return sorted(p for p in paths if os.path.relpath(p, ROOT) not in OWNERS)


def test_only_counters_reads_a_tally():
    paths = checked_paths()
    assert len(paths) > 15
    reads = []
    for path in paths:
        module = os.path.splitext(os.path.basename(path))[0]
        reads += [(os.path.relpath(path, ROOT),) + read for read in tally_reads(path, module)]
    assert [read for read in reads if read[2] not in ALLOWED] == []
    assert {read[2] for read in reads} == ALLOWED  # the check sees the real reader


def test_every_owner_exists_and_the_probe_cache_is_its_own():
    for owner in OWNERS:
        assert os.path.isfile(os.path.join(ROOT, owner)), owner
    with open(os.path.join(ROOT, "bench", "hostspeed.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith(("pvmsim", ".")) for name in imported), imported


def test_the_check_sees_every_read_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import operator\n"
        "def record(sys):\n"
        "    return sys.dtlb.misses + sys.itlb.misses\n"
        "class Bench:\n"
        "    def ratio(self, cache):\n"
        "        def later():\n"
        "            return getattr(cache, 'stats')['hits']\n"
        "        return later\n"
        "key = operator.attrgetter('asid', 'tlb.lock_hits')\n"
        "def report(tlb):\n"
        "    match tlb:\n"
        "        case Tlb(dropped_fills=n):\n"
        "            return n\n"
        "def count(self, cache):\n"
        "    cache.stats['misses'] += 1\n"
        "def build(out, tlb, counts):\n"
        "    out.fills = 0\n"
        "    getattr(tlb, 'asid')\n"
        "    return Tally(hits=0), hasattr(tlb, 'hits'), counts['misses'], tlb.asid\n",
        encoding="utf-8",
    )
    assert tally_reads(str(path), "probe") == [
        (3, "probe.record", "misses"),
        (3, "probe.record", "misses"),
        (7, "probe.Bench.ratio.later", "stats"),
        (9, "probe", "lock_hits"),
        (12, "probe.report", "dropped_fills"),
        (15, "probe.count", "stats"),
    ]

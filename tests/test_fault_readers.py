"""A translation fault is read once, where the walk that found it is consumed.

No configuration can fault: build_plan maps every page a sweep, an
interference loop or the trap footprint can touch (test_mapped_footprint.py
checks that premise).  So a fault is a scenario bug, not an outcome:
walker.py reports it as WalkResult.fault and .fault_stage, and
memsys.MemorySystem._refill reads them and raises SimulationError at the
faulting access.  No other function of the package may read either field;
one that does carries a fault further as data, through layers that can
never see one.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = ("fault", "fault_stage")
ALLOWED = {"memsys.MemorySystem._refill"}


def fault_reads(path, module):
    """(line, reader, field) of every read of a FIELDS attribute in the
    file at `path`: `obj.field` as a value, `getattr(obj, "field", ...)`,
    `attrgetter("field", "a.field", ...)` and a `case Cls(field=...)`
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
        fields = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            fields = (node.attr,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "getattr":
                fields = named(node)[:1] if len(node.args) > 1 else ()
            elif name == "attrgetter":
                fields = [dotted.rsplit(".", 1)[-1] for dotted in named(node)]
        elif isinstance(node, ast.MatchClass):
            fields = node.kwd_attrs
        found.extend((node.lineno, ".".join(scope), field) for field in fields if field in FIELDS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return found


def test_only_refill_reads_a_walk_fault():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py")))
    assert len(paths) > 10
    reads = []
    for path in paths:
        module = os.path.splitext(os.path.basename(path))[0]
        if module != "walker":
            reads += [(os.path.relpath(path, ROOT),) + read for read in fault_reads(path, module)]
    assert [read for read in reads if read[2] not in ALLOWED] == []
    assert {read[2] for read in reads} == ALLOWED  # the check sees the real reader


def test_the_check_sees_every_read_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import operator\n"
        "def access(walk):\n"
        "    return walk.fault\n"
        "class Loop:\n"
        "    def run(self, walk):\n"
        "        def later():\n"
        "            return getattr(walk, 'fault_stage', None)\n"
        "        return later\n"
        "key = operator.attrgetter('paddr', 'walk.fault')\n"
        "def report(walk):\n"
        "    match walk:\n"
        "        case Walk(fault_stage=stage):\n"
        "            return stage\n"
        "def build(out, walk):\n"
        "    out.fault = None\n"
        "    getattr(walk, 'paddr')\n"
        "    return Outcome(fault=None), hasattr(walk, 'fault'), walk.ok\n",
        encoding="utf-8",
    )
    assert fault_reads(str(path), "probe") == [
        (3, "probe.access", "fault"),
        (7, "probe.Loop.run.later", "fault_stage"),
        (9, "probe", "fault"),
        (12, "probe.report", "fault_stage"),
    ]

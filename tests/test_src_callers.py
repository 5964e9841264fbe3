"""Every public function and method of the package is used by the package,
by tools/ or by bench/: model API that only tests call does not belong in
src/.  Tests read state the simulator does not expose through snapshot()
(see state_views.py) or through the model's own methods.

A use of a method or property is its name as an attribute, an import
alias or a whole string constant; the last covers bench/layers.py's
TARGETS, which names the methods it times as strings.  A module-level
function may also be used as a plain name.  A local variable that shares
a method's name is no use of the method.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = {
    # The one way to write a faulting PTE, which no config can produce:
    # the fault tests need it, and its version bump keeps the remembered
    # walks honest when a table changes.
    "walker.AddressSpace.set_pte",
}


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def public_definitions(path, module):
    """(qualified name, name) of every public module-level function and
    every public method of a module-level class in the file at `path`."""
    found = []
    for node in parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(("%s.%s" % (module, node.name), node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append(("%s.%s.%s" % (module, node.name, item.name), item.name))
    return [(qualified, name) for qualified, name in found if not name.startswith("_")]


def used_names(path):
    """(members, plain): the names the file at `path` uses as an
    attribute, an import alias or a whole string constant, and the names
    it uses as a plain name."""
    members, plain = set(), set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Name):
            plain.add(node.id)
        elif isinstance(node, ast.alias):
            members.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                members.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return members, plain


def unused(sources, callers):
    """The qualified names of the public definitions in `sources` that no
    file in `callers` uses: a method by a member use, a module-level
    function by either kind."""
    members, plain = set(), set()
    for path in callers:
        found_members, found_plain = used_names(path)
        members |= found_members
        plain |= found_plain
    return [
        qualified
        for path in sources
        for qualified, name in public_definitions(path, os.path.splitext(os.path.basename(path))[0])
        if name not in members and (qualified.count(".") > 1 or name not in plain)
    ]


def test_every_public_function_has_a_caller_outside_the_tests():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py")))
    assert len(sources) > 10
    assert sum(len(public_definitions(path, "m")) for path in sources) > 50
    callers = sources + sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    callers += sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
    found = unused(sources, callers)
    assert [q for q in found if q not in ALLOWED] == []
    assert set(found) == ALLOWED  # no stale entry


def test_the_check_sees_every_definition_and_use_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .cache import snapshot as take\n"
        "import pvmsim.walker\n"
        "def build():\n"
        "    def inner():\n"
        "        pass\n"
        "    return tlb.lookup(run_loop)\n"
        "class Tlb:\n"
        "    def fill(self):\n"
        "        pass\n"
        "    def _scan(self):\n"
        "        pass\n"
        "    @property\n"
        "    def ok(self):\n"
        "        pass\n"
        "TARGETS = (('tlb', 'Tlb', 'translate'),)\n"
        "def main():\n"
        "    ok = build\n",
        encoding="utf-8",
    )
    assert public_definitions(str(path), "probe") == [
        ("probe.build", "build"),
        ("probe.Tlb.fill", "fill"),
        ("probe.Tlb.ok", "ok"),
        ("probe.main", "main"),
    ]
    members, plain = used_names(str(path))
    assert {"snapshot", "take", "walker", "lookup", "translate"} <= members
    assert {"run_loop", "ok", "build"} <= plain
    assert not {"run_loop", "ok", "build", "inner", "fill", "_scan"} & members
    # A plain name uses a function, never a method of the same name.
    assert unused([str(path)], [str(path)]) == ["probe.Tlb.fill", "probe.Tlb.ok", "probe.main"]

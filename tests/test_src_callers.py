"""Every public function and method of the package is used by the package,
by tools/ or by bench/: model API that only tests call does not belong in
src/.  Tests read state the simulator does not expose through snapshot()
(see state_views.py) or through the model's own methods.

A use is the name as an attribute, a plain name, an import alias or a
whole string constant; the last covers bench/layers.py's TARGETS, which
names the methods it times as strings.
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
    """Every name the file at `path` uses as an attribute, a plain name, an
    import alias or a whole string constant."""
    used = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                used.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_function_has_a_caller_outside_the_tests():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py")))
    assert len(sources) > 10
    callers = sources + sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    callers += sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
    used = set().union(*(used_names(path) for path in callers))
    defined = [
        definition
        for path in sources
        for definition in public_definitions(path, os.path.splitext(os.path.basename(path))[0])
    ]
    assert len(defined) > 50
    assert [q for q, name in defined if name not in used and q not in ALLOWED] == []
    assert {q for q, name in defined if name not in used} == ALLOWED  # no stale entry


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
        "TARGETS = (('tlb', 'Tlb', 'translate'),)\n",
        encoding="utf-8",
    )
    assert public_definitions(str(path), "probe") == [
        ("probe.build", "build"),
        ("probe.Tlb.fill", "fill"),
    ]
    used = used_names(str(path))
    assert {"snapshot", "take", "walker", "lookup", "run_loop", "translate"} <= used
    assert not {"build", "inner", "fill", "_scan"} & used

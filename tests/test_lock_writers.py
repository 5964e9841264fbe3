"""Lock slots and way modes are written only while a scenario is set up.

hypervisor.run_iteration draws the records of a plan whose measured phase
is fully guaranteed (a lock-slot hit and a scratchpad access on every
access) from its first iteration.  That rests on lock slots and way modes
being fixed for the plan's life: written in hypervisor.setup_scenario and
only brought back by restore afterwards.  So no function of the package
but setup_scenario may call a lock-slot or way-mode writer; one that
reprograms them at trap time must revisit that predicate first.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WRITERS = ("program_lock_slot", "configure_way")
ALLOWED = {"hypervisor.setup_scenario"}


def writer_calls(path, module):
    """(line, caller, writer) of every call of a WRITERS name in the file
    at `path`, as `obj.writer(...)` or `writer(...)`; caller is
    `module.qualified.name` of the innermost enclosing function or class,
    or `module` at module level."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in WRITERS:
                found.append((node.lineno, ".".join(scope), name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return found


def test_only_setup_scenario_writes_lock_slots_and_way_modes():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py")))
    assert len(paths) > 10
    calls = []
    for path in paths:
        module = os.path.splitext(os.path.basename(path))[0]
        calls += [(os.path.relpath(path, ROOT),) + call for call in writer_calls(path, module)]
    assert [call for call in calls if call[2] not in ALLOWED] == []
    assert {call[2] for call in calls} == ALLOWED  # the check sees the real writer


def test_the_check_sees_every_call_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def setup(sys):\n"
        "    sys.icache.configure_way(0, 'spm')\n"
        "class Handler:\n"
        "    def trap(self, tlb):\n"
        "        def later():\n"
        "            tlb.program_lock_slot(0, 'id', asid=1, vmid=1)\n"
        "        return later\n"
        "program_lock_slot(0, 'vpn', vpn=3)\n"
        "tlb.lookup(0, 1, 1)\n",
        encoding="utf-8",
    )
    assert writer_calls(str(path), "probe") == [
        (2, "probe.setup", "configure_way"),
        (6, "probe.Handler.trap.later", "program_lock_slot"),
        (8, "probe", "program_lock_slot"),
    ]

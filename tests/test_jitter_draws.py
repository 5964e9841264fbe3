"""Every skip of jitter draws is the hypervisor's, and restore draws nothing.

A restored machine stands for one jitter draw per cache miss its
snapshot counts, and a drawn record for one per miss before and in its
measured phase.  That rule is applied in one module:
MemorySystem.restore only copies state back, hypervisor.restore_machine
binds the iteration's generator and skips the snapshot's draws, and
hypervisor.run_iteration skips those before a drawn record's, each
through memsys.jitter_sum's `after`.  Every other draw is jitter_sum or
run_loop's written-out copy of it.  So across the package, tools/ and
bench/:

* no call outside hypervisor.py passes `after` to jitter_sum, by keyword
  or as its fourth positional argument;
* nothing but MemorySystem.__init__ and hypervisor.restore_machine binds
  a `.rng` attribute, by assignment or by setattr;
* no module defines `randbelow`.

A snapshot's draw count is fixed when it is taken, so it is counted
then, once: plan.machine carries it beside the snapshot, and no restore
reads a counter.
"""

import ast
import glob
import os
from unittest import mock

import pytest

from pvmsim.cli import preset_names, preset_text
from pvmsim.config import load_experiment
from pvmsim.hypervisor import build_plan, run_iteration
from pvmsim.memsys import MemorySystem

from test_golden import PREFIX_TEXT, WRITES_TEXT

ITERATIONS = 4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPERS = {"hypervisor.restore_machine", "hypervisor.run_iteration"}
BINDERS = {"memsys.MemorySystem.__init__", "hypervisor.restore_machine"}


def draw_rule_sites(path, module):
    """(line, scope, kind) of every site in the file at `path` that the
    rule above limits: kind "after" for a jitter_sum call (`jitter_sum(...)`
    or `obj.jitter_sum(...)`) given `after` by keyword or position, "rng"
    for a `.rng` attribute bound as an assignment target or through
    `setattr(obj, "rng", ...)`, and "randbelow" for a function, class or
    name defined as randbelow.  scope is `module.qualified.name` of the
    innermost enclosing function or class, or `module` at module level."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []

    def visit(node, scope):
        kind = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "randbelow":
                kind = "randbelow"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "jitter_sum":
                if len(node.args) > 3 or any(k.arg == "after" for k in node.keywords):
                    kind = "after"
            elif name == "setattr" and len(node.args) > 1:
                attr = node.args[1]
                if isinstance(attr, ast.Constant) and attr.value == "rng":
                    kind = "rng"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr == "rng":
                kind = "rng"
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == "randbelow":
                kind = "randbelow"
        if kind is not None:
            found.append((node.lineno, ".".join(scope), kind))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return sorted(found)


def module_name(path):
    """A package module by its file name, as the scopes above name it;
    anything else by its dotted path from the repository root."""
    rel = os.path.relpath(path, ROOT)
    if os.path.dirname(rel) == os.path.join("src", "pvmsim"):
        return os.path.splitext(os.path.basename(rel))[0]
    return os.path.splitext(rel)[0].replace(os.sep, ".")


def test_only_the_hypervisor_skips_draws_or_binds_a_generator():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py")))
    assert len(paths) > 10
    for tree in ("tools", "bench"):
        paths += sorted(glob.glob(os.path.join(ROOT, tree, "**", "*.py"), recursive=True))
    sites = {"after": set(), "rng": set(), "randbelow": set()}
    for path in paths:
        for _, scope, kind in draw_rule_sites(path, module_name(path)):
            sites[kind].add(scope)
    # Equal sets, so the check also sees the real sites.
    assert sites == {"after": SKIPPERS, "rng": BINDERS, "randbelow": set()}


def test_the_check_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from pvmsim import memsys\n"
        "from pvmsim.memsys import jitter_sum\n"
        "def skip(rng):\n"
        "    return jitter_sum(rng, 3, 0, after=5)\n"
        "class Machine:\n"
        "    def rebind(self, rng):\n"
        "        self.rng = rng\n"
        "        def later(other):\n"
        "            memsys.jitter_sum(other, 3, 1, 2)\n"
        "            setattr(self, 'rng', other)\n"
        "        return later\n"
        "def randbelow(getrandbits, n):\n"
        "    return getrandbits(n.bit_length())\n"
        "machine.rng, other = None, 1\n"
        "randbelow = None\n"
        "def fine(machine, rng):\n"
        "    jitter_sum(rng, 3, 2)\n"
        "    jitter_sum(rng, 3, misses=2)\n"
        "    setattr(machine, 'latency', None)\n"
        "    return machine.rng, getattr(machine, 'rng'), rng.randbelow\n",
        encoding="utf-8",
    )
    assert draw_rule_sites(str(path), "probe") == [
        (4, "probe.skip", "after"),
        (7, "probe.Machine.rebind", "rng"),
        (9, "probe.Machine.rebind.later", "after"),
        (10, "probe.Machine.rebind.later", "rng"),
        (12, "probe", "randbelow"),
        (14, "probe", "rng"),
        (15, "probe", "randbelow"),
    ]


@pytest.mark.parametrize("text", preset_names() + ["writes", "prefix"])
def test_a_snapshot_counts_its_draws_once(text):
    """plan.machine's draw count is the cache misses its snapshot counts,
    0 when the prime is random-order (the snapshot is then taken right
    after set-up).  It is read from counters() once, when the snapshot is
    taken: a plan's first iteration reads counters() three times, every
    later simulated one twice, around its measured phase, and a drawn one
    never."""
    config = {"writes": WRITES_TEXT, "prefix": PREFIX_TEXT}.get(text) or preset_text(text)
    cfg = load_experiment(text=config, seed=1, iterations=ITERATIONS)
    counters = MemorySystem.counters
    reads = []  # per iteration run, its counters() calls

    def counting(self):
        reads[-1] += 1
        return counters(self)

    simulated = 0  # simulated iterations after a plan's first
    with mock.patch.object(MemorySystem, "counters", counting):
        for name in cfg.scenario_names:
            plan = build_plan(cfg.scenarios[name])
            for index in range(ITERATIONS):
                drawn = plan.fixed is not None
                reads.append(0)
                run_iteration(plan, index)
                want = 3 if index == 0 else 0 if drawn else 2
                assert reads[-1] == want, (name, index)
                simulated += index > 0 and not drawn
            _, snapshot, draws = plan.machine
            assert draws == sum(dict(snapshot[side][5])["misses"] for side in (2, 3)), name
            if plan.random_prime:
                assert draws == 0, name
    assert simulated

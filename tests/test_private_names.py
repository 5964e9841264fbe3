"""No module of the package or of tools/ imports another module's private
name: what one module uses of another is that module's public API."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def private_imports(path):
    """(line, module, name) of every `from .X import _y` or
    `from pvmsim.X import _y` in the file at `path`; dunder names such as
    __version__ are public."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pvmsim":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + module, name))
    return found


def test_no_module_imports_a_private_name():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "pvmsim", "*.py")))
    paths += sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    assert len(paths) > 10
    found = {os.path.relpath(p, ROOT): private_imports(p) for p in paths}
    assert {p: f for p, f in found.items() if f} == {}


def test_the_check_sees_both_import_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .plru import _is_pow2, check_tree\n"
        "from pvmsim.cli import _resolve_config as resolve\n"
        "from . import __version__\n"
        "from os.path import _get_sep\n",
        encoding="utf-8",
    )
    assert private_imports(str(path)) == [
        (1, ".plru", "_is_pow2"),
        (2, "pvmsim.cli", "_resolve_config"),
    ]

"""tools/cross_version.py: every preset's outputs compared byte for byte
between interpreters."""

import importlib.util
import os
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "cross_version.py")
_spec = importlib.util.spec_from_file_location("cross_version", TOOL)
cross_version = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cross_version)


def write_tree(root, files):
    for path, data in files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as handle:
            handle.write(data)


def test_first_difference_names_a_changed_or_missing_file(tmp_path):
    files = {"a/x.csv": b"1\n", "a/y.json": b"{}", "b/z.csv": b"2\n"}
    write_tree(tmp_path / "want", files)
    write_tree(tmp_path / "same", files)
    write_tree(tmp_path / "changed", {**files, "a/y.json": b"{} "})
    write_tree(tmp_path / "short", {k: v for k, v in files.items() if k != "a/x.csv"})
    first = cross_version.first_difference
    assert first(tmp_path / "want", tmp_path / "same") is None
    assert first(tmp_path / "want", tmp_path / "changed") == os.path.join("a", "y.json")
    assert first(tmp_path / "want", tmp_path / "short") == os.path.join("a", "x.csv")


def test_same_interpreter_writes_identical_outputs(capsys):
    assert cross_version.main([sys.executable]) == 0
    assert capsys.readouterr().out.endswith(" files identical\n")


def test_a_differing_interpreter_exits_1_naming_the_file(monkeypatch, capsys):
    def fake_run(python, outdir):
        write_tree(outdir, {"p/p-summary.json": python.encode()})

    monkeypatch.setattr(cross_version, "run_presets", fake_run)
    monkeypatch.setattr(cross_version.shutil, "which", lambda python: python)
    assert cross_version.main([sys.executable, "other-python"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(os.path.join("p", "p-summary.json") + " differs under other-python")


def test_an_interpreter_that_cannot_start_exits_2_before_any_run(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cross_version, "run_presets", lambda python, outdir: ran.append(python))
    assert cross_version.main([sys.executable, "/nonexistent/python3"]) == 2
    assert ran == []
    assert capsys.readouterr() == ("", "cannot start /nonexistent/python3: no such executable\n")

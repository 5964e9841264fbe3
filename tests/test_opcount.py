"""tools/opcount.py: exact counts of the work a run does."""

import importlib.util
import os
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "opcount.py")
_spec = importlib.util.spec_from_file_location("opcount", TOOL)
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


def test_two_passes_count_the_same_work_and_rows_sum_to_the_total():
    first = opcount.count_run("synthetic-nospm", 2, 4)
    second = opcount.count_run("synthetic-nospm", 2, 4)
    assert first == second
    rows = opcount.table(*first)
    assert rows[-1][0] == "total"
    assert rows[-1][1:] == (sum(r[1] for r in rows[:-1]), sum(r[2] for r in rows[:-1]))
    modules = {r[0]: r[1:] for r in rows}
    assert modules["pvmsim.walker"][0] > 0 and modules["pvmsim.hypervisor"][1] > 0
    functions = opcount.top_functions(*first)
    assert functions == opcount.top_functions(*second)
    assert len(functions) == 10
    assert [f[2] for f in functions] == sorted((f[2] for f in functions), reverse=True)
    for module, _, ops, n in functions:
        assert 0 < ops <= modules[module][0] and n <= modules[module][1]


def test_the_previous_trace_function_is_put_back():
    def previous(frame, event, arg):
        return None

    def inner():
        return sum(range(3))

    sys.settrace(previous)
    try:
        bytecodes, calls = opcount.count(inner)
        after = sys.gettrace()
    finally:
        sys.settrace(None)
    assert after is previous
    ((module, function), n), = calls.items()
    assert (module, function.rsplit(".", 1)[-1], n) == (__name__, "inner", 1)
    assert list(bytecodes) == [(module, function)] and bytecodes[module, function] > 0


def test_main_prints_one_row_per_module_and_the_total(capsys):
    assert opcount.main(["synthetic-nospm", "--iterations", "1", "--seed", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "bytecodes", "calls"]
    total = next(i for i, line in enumerate(lines) if line.split()[0] == "total")
    assert any(line.split()[0] == "pvmsim.walker" for line in lines[:total])
    assert lines[total + 1] == ""
    assert lines[total + 2].split() == ["module", "function", "bytecodes", "calls"]
    assert len(lines) == total + 3 + 10


def test_an_unknown_config_exits_2_with_one_line(capsys):
    assert opcount.main(["no-such-preset"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no preset 'no-such-preset'") and err.count("\n") == 1

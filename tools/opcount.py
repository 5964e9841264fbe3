"""Count the work one serial run does, free of timing noise.

    python3 tools/opcount.py CONFIG [--iterations N] [--seed S]

CONFIG is an INI file or a preset name, as for `pvmsim run`.  Runs every
scenario serially under sys.settrace with opcode events on, and prints the
bytecode instructions executed and the Python calls made (a function
entered or a generator resumed), per module and in total, then the ten
functions that executed the most bytecodes.  Only
run_experiment is counted: plans, iterations and records, not the config
load or the outputs.  The package's memos are emptied first, so the counts
repeat exactly for the same source, interpreter, config and seed, and a
change in them is a change in the work.  They depend on the interpreter,
so compare them only within one Python version.
"""

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pvmsim.cli import resolve_config  # noqa: E402
from pvmsim.config import ConfigError, load_experiment  # noqa: E402
from pvmsim.harness import run_experiment  # noqa: E402


def count(func, *args):
    """Run func(*args) with every Python frame traced; returns
    (bytecodes, calls), two Counters keyed by (module name, function).  A
    function is named by its qualified name where the interpreter has one
    (3.11 on), else by its bare name.  The trace function in place before
    the call is put back after it."""
    bytecodes, calls = Counter(), Counter()
    local_tracers = {}  # code object -> (its key, its frames' opcode tracer)

    def local_tracer(key):
        def trace(frame, event, arg):
            if event == "opcode":
                bytecodes[key] += 1
            return trace

        return trace

    def trace_call(frame, event, arg):
        code = frame.f_code
        entry = local_tracers.get(code)
        if entry is None:
            key = frame.f_globals.get("__name__", "?"), getattr(code, "co_qualname", code.co_name)
            entry = local_tracers[code] = key, local_tracer(key)
        calls[entry[0]] += 1
        frame.f_trace_opcodes = True
        return entry[1]

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return bytecodes, calls


def clear_memos():
    """Empty the package's functools caches, so that a count starts from
    what a fresh process has however many runs came before it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("pvmsim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def count_run(config, iterations, seed):
    """count() over one serial run_experiment of config (a file or preset),
    from empty memos."""
    experiment = load_experiment(text=resolve_config(config), seed=seed, iterations=iterations)
    clear_memos()
    return count(run_experiment, experiment, 1)


def by_module(counts):
    """A Counter keyed by (module, function) summed per module."""
    modules = Counter()
    for (module, _), n in counts.items():
        modules[module] += n
    return modules


def table(bytecodes, calls):
    """Rows of (module, bytecodes, calls), most bytecodes first, then the
    total row."""
    bytecodes, calls = by_module(bytecodes), by_module(calls)
    modules = sorted(set(bytecodes) | set(calls), key=lambda m: (-bytecodes[m], m))
    rows = [(m, bytecodes[m], calls[m]) for m in modules]
    return rows + [("total", sum(bytecodes.values()), sum(calls.values()))]


def top_functions(bytecodes, calls):
    """Rows of (module, function, bytecodes, calls) for the ten functions
    with the most bytecodes, most first."""
    keys = sorted(set(bytecodes) | set(calls), key=lambda k: (-bytecodes[k], k))[:10]
    return [(module, function, bytecodes[module, function], calls[module, function])
            for module, function in keys]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="INI file path or preset name")
    parser.add_argument("--iterations", type=int, default=None,
                        help="override every scenario's iteration count")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    args = parser.parse_args(argv)
    try:
        counts = count_run(args.config, args.iterations, args.seed)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rows = table(*counts)
    if rows[-1][2] and not rows[-1][1]:
        # CPython 3.12.1, for one, honours f_trace_opcodes for no frame.
        print("error: %s delivered no opcode trace events" % sys.executable, file=sys.stderr)
        return 2
    print("%-28s %14s %10s" % ("module", "bytecodes", "calls"))
    for module, ops, n in rows:
        print("%-28s %14s %10s" % (module, format(ops, ","), format(n, ",")))
    print()
    print("%-28s %-44s %14s %10s" % ("module", "function", "bytecodes", "calls"))
    for module, function, ops, n in top_functions(*counts):
        print("%-28s %-44s %14s %10s" % (module, function, format(ops, ","), format(n, ",")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

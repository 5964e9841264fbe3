"""Count the work one serial run does, free of timing noise.

    python3 tools/opcount.py CONFIG [--iterations N] [--seed S]

CONFIG is an INI file or a preset name, as for `pvmsim run`.  Runs every
scenario serially under sys.settrace with opcode events on, and prints the
bytecode instructions executed and the Python calls made (a function
entered or a generator resumed), per module and in total.  Only
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
    (bytecodes, calls), two Counters keyed by module name.  The trace
    function in place before the call is put back after it."""
    bytecodes, calls = Counter(), Counter()
    local_tracers = {}

    def local_tracer(module):
        def trace(frame, event, arg):
            if event == "opcode":
                bytecodes[module] += 1
            return trace

        return trace

    def trace_call(frame, event, arg):
        module = frame.f_globals.get("__name__", "?")
        calls[module] += 1
        frame.f_trace_opcodes = True
        tracer = local_tracers.get(module)
        if tracer is None:
            tracer = local_tracers[module] = local_tracer(module)
        return tracer

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


def table(bytecodes, calls):
    """Rows of (module, bytecodes, calls), most bytecodes first, then the
    total row."""
    modules = sorted(set(bytecodes) | set(calls), key=lambda m: (-bytecodes[m], m))
    rows = [(m, bytecodes[m], calls[m]) for m in modules]
    return rows + [("total", sum(bytecodes.values()), sum(calls.values()))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="INI file path or preset name")
    parser.add_argument("--iterations", type=int, default=None,
                        help="override every scenario's iteration count")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    args = parser.parse_args(argv)
    try:
        rows = table(*count_run(args.config, args.iterations, args.seed))
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if rows[-1][2] and not rows[-1][1]:
        # CPython 3.12.1, for one, honours f_trace_opcodes for no frame.
        print("error: %s delivered no opcode trace events" % sys.executable, file=sys.stderr)
        return 2
    print("%-28s %14s %10s" % ("module", "bytecodes", "calls"))
    for module, ops, n in rows:
        print("%-28s %14s %10s" % (module, format(ops, ","), format(n, ",")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

    pvmsim run <config|preset> [--outdir D] [--seed N] [--iterations N]
                               [--workers N] [--scenario NAME ...] [--quiet]
    pvmsim compare <summary.json> <baseline> <subject>
    pvmsim presets list
    pvmsim presets show <name>
    pvmsim vectors

`run` accepts either a path to an INI file or the name of a shipped
preset (see `presets list`).
"""

import argparse
import json
import os
import sys
from importlib import resources

from .config import ConfigError, load_experiment
from .harness import MIN_SLICE, build_bundle, compare, run_experiment, write_outputs
from .hypervisor import SetupError
from .vectors import main as vectors_main


def _preset_dir():
    return resources.files("pvmsim").joinpath("presets")


def preset_names():
    return sorted(
        entry.name[: -len(".ini")]
        for entry in _preset_dir().iterdir()
        if entry.name.endswith(".ini")
    )


def preset_text(name):
    entry = _preset_dir().joinpath(name + ".ini")
    if not entry.is_file():
        raise ConfigError(
            "no preset %r (available: %s)" % (name, ", ".join(preset_names()))
        )
    return entry.read_text(encoding="utf-8")


def resolve_config(token):
    """The configuration text `token` names: a file, else a preset."""
    if not os.path.exists(token):
        if "/" not in token and not token.endswith(".ini"):
            return preset_text(token)
        raise ConfigError("config file %r not found" % token)
    try:
        with open(token, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, or not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError("cannot read config file %r: %s" % (token, reason)) from exc


def _cmd_run(args):
    for flag, least in (("workers", 1), ("iterations", 0)):
        value = getattr(args, flag)
        if value is not None and value < least:
            message = "error: --%s must be at least %d, got %d" % (flag, least, value)
            print(message, file=sys.stderr)
            return 2
    config = load_experiment(
        text=resolve_config(args.config),
        seed=args.seed,
        iterations=args.iterations,
        scenarios=args.scenarios,
    )
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        print("error: --outdir %s: %s" % (args.outdir, exc.strerror or exc), file=sys.stderr)
        return 2
    log = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    results = run_experiment(config, workers=args.workers, log=log)
    paths = write_outputs(args.outdir, config, results)
    bundle = build_bundle(config, results)
    for name in config.scenario_names:
        entry = bundle["scenarios"][name]
        if "cycles" not in entry:
            print("%-28s (no iterations)" % name)
            continue
        cycles = entry["cycles"]
        line = "%-28s mean %12.2f   std %10.2f" % (name, cycles["mean"], cycles["std"])
        vs = entry.get("vs_unmitigated")
        if vs:
            line += "   std vs unmitigated: %s%%" % vs["delta_std_pct"]
        print(line)
    for path in paths:
        print("wrote %s" % path)
    return 0


def _is_summary(bundle, names):
    """Whether `bundle` is shaped like a summary written by `run` where
    compare reads it: a scenarios dict in which each entry named here, if
    present, is a dict whose cycles, if present, hold a numeric mean and
    std."""
    scenarios = bundle.get("scenarios") if isinstance(bundle, dict) else None
    if not isinstance(scenarios, dict):
        return False
    for name in names:
        entry = scenarios.get(name, {})
        cycles = entry.get("cycles", {"mean": 0, "std": 0}) if isinstance(entry, dict) else None
        if not isinstance(cycles, dict):
            return False
        if any(type(cycles.get(key)) not in (int, float) for key in ("mean", "std")):
            return False
    return True


def _cmd_compare(args):
    try:
        with open(args.bundle, "r", encoding="utf-8") as handle:
            bundle = json.load(handle)
    except OSError as exc:
        print("error: cannot read %s: %s" % (args.bundle, exc.strerror or exc), file=sys.stderr)
        return 2
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        print("error: %s is not JSON: %s" % (args.bundle, exc), file=sys.stderr)
        return 2
    if not _is_summary(bundle, (args.baseline, args.subject)):
        print("error: %s is not a summary written by `run`" % args.bundle, file=sys.stderr)
        return 2
    try:
        delta = compare(bundle, args.baseline, args.subject)
    except (KeyError, ValueError) as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)  # str(KeyError) adds quotes
        return 1
    print(json.dumps(delta, indent=2, sort_keys=True))
    return 0


def _cmd_presets(args):
    if args.action == "list":
        print("\n".join(preset_names()))
    else:
        print(preset_text(args.name), end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pvmsim",
        description="Cycle-annotated simulator of a partitionable, lockable "
        "virtual-memory subsystem under a small hypervisor model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment configuration or preset")
    p_run.add_argument("config", help="INI file path or preset name")
    p_run.add_argument("--outdir", default="results", help="output directory (default: results)")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument(
        "--iterations", type=int, default=None, help="override every scenario's iteration count"
    )
    p_run.add_argument("--workers", type=int, default=1,
                       help="worker processes, at most one per CPU; a scenario is split "
                       "only into ranges of at least %d iterations (default: 1)" % MIN_SLICE)
    p_run.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="run this scenario instead of [run] scenarios (repeatable)",
    )
    p_run.add_argument("--quiet", action="store_true", help="suppress progress logging")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="delta stats between two scenarios of a summary")
    p_cmp.add_argument("bundle", help="summary JSON written by `run`")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("subject")
    p_cmp.set_defaults(func=_cmd_compare)

    p_pre = sub.add_parser("presets", help="list or show shipped experiment presets")
    pre_sub = p_pre.add_subparsers(dest="action", required=True)
    pre_sub.add_parser("list", help="list preset names")
    p_show = pre_sub.add_parser("show", help="print a preset's configuration")
    p_show.add_argument("name")
    p_pre.set_defaults(func=_cmd_presets)

    p_vec = sub.add_parser("vectors", help="run the replacement-policy golden vectors")
    p_vec.set_defaults(func=lambda args: vectors_main())

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SetupError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

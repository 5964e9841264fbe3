"""Check the determinism contract across Python versions.

    python3 tools/cross_version.py PYTHON...

Runs every shipped preset at seed 2 and 30 iterations per scenario,
serially, under the interpreter running this script and under each
PYTHON given, with PYTHONPATH pointing at this checkout's src/.  Every
CSV and summary written under a given PYTHON must equal the running
interpreter's byte for byte.  Exits 0 when they all do; 1 naming the first file that
differs or is missing (interpreters in the order given, files in name
order); 2 when a run fails, or, before any run, when a PYTHON is not an
executable on PATH or at its path.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PRESETS = os.path.join(SRC, "pvmsim", "presets")
SEED = 2
ITERATIONS = 30


def preset_names():
    return sorted(name[: -len(".ini")] for name in os.listdir(PRESETS) if name.endswith(".ini"))


def run_presets(python, outdir):
    """Write every preset's outputs under `python` into outdir/<preset>/;
    returns the stderr of the first failed run, or None."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in preset_names():
        argv = [python, "-m", "pvmsim.cli", "run", name, "--outdir", os.path.join(outdir, name),
                "--seed", str(SEED), "--iterations", str(ITERATIONS), "--quiet"]
        done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if done.returncode:
            return "%s: `pvmsim run %s` exited %d\n%s" % (python, name, done.returncode,
                                                          done.stderr)
    return None


def output_files(root):
    """Every file under root, as paths relative to it, in name order."""
    return sorted(
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root)
        for name in names
    )


def first_difference(want_dir, got_dir):
    """The first relative path whose bytes differ between the two trees, or
    that only one of them holds; None when they are identical."""
    for path in sorted(set(output_files(want_dir)) | set(output_files(got_dir))):
        want, got = os.path.join(want_dir, path), os.path.join(got_dir, path)
        if not (os.path.isfile(want) and os.path.isfile(got)):
            return path
        with open(want, "rb") as a, open(got, "rb") as b:
            if a.read() != b.read():
                return path
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter to compare")
    args = parser.parse_args(argv)
    for python in args.pythons:
        if shutil.which(python) is None:
            print("cannot start %s: no such executable" % python, file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        want_dir = os.path.join(scratch, "reference")
        failed = run_presets(sys.executable, want_dir)
        if failed:
            print(failed, file=sys.stderr)
            return 2
        compared = len(output_files(want_dir))
        for index, python in enumerate(args.pythons):
            got_dir = os.path.join(scratch, str(index))
            failed = run_presets(python, got_dir)
            if failed:
                print(failed, file=sys.stderr)
                return 2
            path = first_difference(want_dir, got_dir)
            if path is not None:
                print("%s differs under %s from %s" % (path, python, sys.executable))
                return 1
            print("%s: %d files identical" % (python, compared))
    return 0


if __name__ == "__main__":
    sys.exit(main())

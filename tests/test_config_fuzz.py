"""Seeded fuzz of the configuration: every bad input fails fast and in one line.

Each case is a shipped preset with one mutation: one key's value, or one
field of a region, sweep or loop, replaced by a value from BAD; or one
line deleted.  A fixed seed draws CASES of them from the full list, and
each runs through `pvmsim run` at two iterations.  Every case must exit 0
or 2, and on 2 print exactly one stderr line and no traceback.  Bounds at
load (cache geometry, touches per quantum, accesses per sweep) keep every
case short, so the test needs no timer.
"""

import contextlib
import io
import os
import random
import re

from pvmsim import cli

SEED = 11
CASES = 300
BAD = (
    "", "0", "-1", "3", "65536", "0x7fffffffffff", "10000000000000000000000000", "0x", "x", "a/b",
)
_ASSIGNMENT = re.compile(r"^(\s*[^#;\[\s][^=]*=\s*)(.*)$")
_FIELD = re.compile(r"(\b\w+=)([^\s;]*)")


def mutations(text):
    """Every (description, mutated text) of `text`, in a fixed order."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        def at(new_line):
            return "".join(lines[:i] + [new_line] + lines[i + 1:])

        yield "delete line %d" % (i + 1), at("")
        match = _ASSIGNMENT.match(line)
        if not match:
            continue
        head, value = match.groups()
        for bad in BAD:
            yield "line %d value %r" % (i + 1, bad), at(head + bad + "\n")
        for field in _FIELD.finditer(value):
            for bad in BAD:
                mutated = value[: field.start(2)] + bad + value[field.end(2):]
                yield "line %d %s%r" % (i + 1, field.group(1), bad), at(head + mutated + "\n")


def run(path, outdir):
    """(exit code, stderr) of `pvmsim run path` at two iterations."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", path, "--iterations", "2", "--outdir", outdir, "--quiet"])
    return code, err.getvalue()


def test_bad_configurations_exit_0_or_2_with_one_line(tmp_path):
    cases = [
        (name, what, text)
        for name in cli.preset_names()
        for what, text in mutations(cli.preset_text(name))
    ]
    failures = []
    path, outdir = os.path.join(tmp_path, "fuzz.ini"), os.path.join(tmp_path, "out")
    for name, what, text in random.Random(SEED).sample(cases, CASES):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        try:
            code, err = run(path, outdir)
        except BaseException as exc:  # a traceback, or a SystemExit other than argparse's
            failures.append("%s %s: raised %r" % (name, what, exc))
            continue
        if code not in (0, 2) or (code == 2 and (err.count("\n") != 1 or not err.endswith("\n"))):
            failures.append("%s %s: exit %r, stderr %r" % (name, what, code, err))
    assert not failures, "\n".join(failures[:10])

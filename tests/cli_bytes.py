"""Compare the CLI's stdout and stderr bytes and exit codes between two source trees.

Usage (from the repository root)::

    python tests/cli_bytes.py OLD_ROOT NEW_ROOT

Each command in ``COMMANDS`` runs once in each tree, in a fresh interpreter
with ``PYTHONPATH=<root>/src`` and ``OPENBLAS_NUM_THREADS=1`` (LAPACK splits
some factorizations by thread count, which moves gaps in their last bits).
A line ``old argv | new argv`` pairs two spellings of the same run: the old
one runs in ``OLD_ROOT`` and the new one in ``NEW_ROOT``; once ``OLD_ROOT``
takes only the new spelling, a pair keeps only its new half.  The list
holds the reports, each usage check of ``carentropy.cli.main`` and each
command's ``--help``.  One line is printed per command, and the exit status
is 1 when any stdout, stderr or exit code differs.  The file has no
``test_`` prefix, so pytest does not collect it.

When a command's stdout differs, both outputs are read as numbers and the
text between them (so JSON, CSV and text alike, JSON inside a CSV cell
included), and a second line says whether every number agrees within
``NUMBER_TOL`` and everything else is identical: verdicts, exit codes, keys
and strings.  That is the gap-level check for a change that moves gaps in
their last bits; the bytes still count as differing.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import sys

NUMBER_TOL = 1e-12
_NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

COMMANDS = """
counterexample --seed 7
counterexample --rhoJ tracial --J 3,4 --seed 7
counterexample --K 2,4 --I 1 --J= --format csv
counterexample --K 1,3 --I 2 --J 4,5 --rhoJ random --seed 5
counterexample --K 1,2 --I 3 --J 4 --seed 7
counterexample --K 1 --I 2,3 --J 4,5 --rhoJ random --seed 3
counterexample --K 1,2,3 --I 4,5,6,7 --J 8 --seed 7
counterexample --K 1,2,3,4,5 --I 6 --J 7 --seed 7
counterexample --K 1 --I 2,3,4,5,6 --J 7 --seed 7
counterexample --sites 12 --rhoJ random
verify --suite all --sites 5 --trials 30
verify --suite all --sites 5 --trials 30 --even --format csv
verify --suite mono-ssa --even --sites 4 --trials 30 --seed 3
verify --suite ssa --sites 3 --trials 10 --I 1,2 --J 2,3
verify --suite all --sites 4 --trials 10 --I 1 --J 2 --K 3,4 --even
verify --suite triangle --sites 4 --trials 10 --I 1,3 --J 2 --format csv
table1 --trials 50 --seed 7 --format text
table1 --trials 50 --seed 7
table1 --trials 50 --seed 9 --format csv
table1 --trials 30 --sites 4
verify --sites 1
verify --suite mono-ssa --sites 2
verify --trials 0
verify --I 1,x --J 2
verify --I 1
verify --suite all --sites 3 --I 1 --J 2 --K 1,3
verify --suite triangle --I 1,2 --J 2
verify --suite mono-ssa --I 1 --J 2
verify --suite ssa --sites 3 --trials 1 --I 1,2 --J 2,3 --K 9
counterexample --I=
counterexample --K 1 --I 1 --J 3
table1 --sites 2
verify --help
counterexample --help
table1 --help
"""

RUN_MAIN = "import sys; from carentropy.cli import main; sys.exit(main(sys.argv[1:]))"


STREAMS = ("stdout", "stderr", "exit code")


def run(root: str, argv: list[str]) -> tuple[bytes, bytes, int]:
    """Stdout and stderr bytes and exit code of ``carentropy ARGV`` run from ``root``'s source."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CARENTROPY_")}
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, *argv], env=env, capture_output=True, check=False
    )
    return done.stdout, done.stderr, done.returncode


def differing(old: tuple[bytes, bytes, int], new: tuple[bytes, bytes, int]) -> list[str]:
    """The names of the streams, of ``STREAMS``, in which two runs differ."""
    return [name for name, a, b in zip(STREAMS, old, new, strict=True) if a != b]


def number_difference(old_out: bytes, old_code: int, new_out: bytes, new_code: int) -> float:
    """The largest difference between the numbers in the same place of two
    outputs, or ``inf`` when their exit codes or any text between their
    numbers differ: verdicts, keys and strings."""
    if old_code != new_code or _NUMBER.split(old_out) != _NUMBER.split(new_out):
        return math.inf
    pairs = zip(_NUMBER.findall(old_out), _NUMBER.findall(new_out))
    return max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)


def main(args: list[str]) -> int:
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_root, new_root = args
    lines = COMMANDS.strip().splitlines()
    differ = 0
    for line in lines:
        old_text, _, new_text = line.partition(" | ")
        old = run(old_root, shlex.split(old_text))
        new = run(new_root, shlex.split(new_text or old_text))
        what = differing(old, new)
        if not what:
            print(f"same  exit {new[2]}  {len(new[0]):7d} B  {len(new[1]):5d} B err  {line}")
            continue
        differ += 1
        print(f"DIFF  {', '.join(what)}  {line}")
        if "stdout" not in what:
            continue
        worst = number_difference(old[0], old[2], new[0], new[2])
        agree = "yes" if worst <= NUMBER_TOL else "no"
        print(f"      numbers within {NUMBER_TOL:g} and all else identical: {agree} "
              f"(largest number difference {worst:.1e})")
    print(f"{differ} of {len(lines)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

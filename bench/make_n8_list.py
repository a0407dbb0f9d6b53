"""Remake the benchmark's list of the 96 non-3-inducible 8-tournaments.

Run from the root of the repository:

    PYTHONPATH=src python3 bench/make_n8_list.py

It runs ``run_census(8, 3)`` (about two minutes on one core) and writes
``bench/data/n8_not3.txt``: one line per isomorphism class that no three
voters induce, holding the class's canonical key.  The key is the 28-bit
upper triangle read column by column: for vertex v = 1..7 it gives v bits,
and bit i of that chunk is 1 when the arc runs i -> v, 0 when v -> i.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from majdim import run_census

DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "n8_not3.txt"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()
    summary, rows = run_census(8, 3)
    if summary["failures"]:
        print("census gave no verdict on %d classes" % len(summary["failures"]),
              file=sys.stderr)
        return 1
    keys = sorted(r.canonical_key for r in rows if r.inducible is False)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        "# run_census(8, 3): the %d classes of 8-tournaments that no 3 voters"
        " induce\n" % len(keys) + "".join(k + "\n" for k in keys)
    )
    print("%d classes written to %s" % (len(keys), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

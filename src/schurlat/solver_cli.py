"""schurlat-solve: a DIMACS-conformant command-line SAT solver.

Reads a CNF file, prints the standard "s"/"v" result lines, and exits with
code 10 (satisfiable), 20 (unsatisfiable), or 0 (unknown). A model that fails
the formula it read is never printed: the command prints "c integrity error"
and "s UNKNOWN" and exits 5, as schurlat does on an integrity error. A usage
error (an unknown flag, or a non-positive --budget-s or --max-conflicts)
exits 2, argparse's code. This makes the package's own engine usable as an
external solver — including by this package's external-solver bridge, which
is deliberately agnostic about what sits behind the command it runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import InputError, IntegrityError, ParseError
from .sat import Budget, Sat, Unknown, Unsat, _collector_paused, read_dimacs, solve_internal


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="schurlat-solve",
        description="Decide a DIMACS CNF file; prints s/v lines, exits 10/20/0.",
    )
    parser.add_argument("cnf", help="path to a DIMACS CNF file")
    parser.add_argument("--budget-s", type=float, default=None, metavar="S",
                        help="wall-clock limit in seconds")
    parser.add_argument("--max-conflicts", type=int, default=None, metavar="C",
                        help="conflict limit")
    args = parser.parse_args(argv)

    budget = None
    if args.budget_s is not None or args.max_conflicts is not None:
        try:
            budget = Budget(seconds=args.budget_s, conflicts=args.max_conflicts)
        except InputError as e:
            parser.error(str(e))

    with _collector_paused():
        try:
            formula = read_dimacs(Path(args.cnf).read_bytes())
        except (OSError, ParseError, InputError) as e:
            print(f"c error: {e}")
            print("s UNKNOWN")
            return 0

        try:
            result = solve_internal(formula, budget)
        except IntegrityError as e:
            print(f"c integrity error: {e}")
            print("s UNKNOWN")
            return 5

    print(f"c schurlat-solve {__version__}")
    if isinstance(result, Unsat):
        print("s UNSATISFIABLE")
        return 20
    if isinstance(result, Unknown):
        print(f"c {result.reason}")
        print("s UNKNOWN")
        return 0
    assert isinstance(result, Sat)
    print("s SATISFIABLE")
    lits = [v if result.model[v] else -v for v in sorted(result.model)]
    for start in range(0, len(lits), 20):
        print("v " + " ".join(str(l) for l in lits[start:start + 20]))
    print("v 0")
    return 10


if __name__ == "__main__":
    sys.exit(main())

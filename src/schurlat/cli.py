"""Command-line entry point: encode, search, verify, witness, render, bounds.

Exit codes: 0 success (including Exact search results), 2 a search ended with
only a lower bound, 3 a search was inconclusive, 4 invalid input (a path that
cannot be read or written included), 5 integrity error (a cross-check failed,
e.g. an invalid certificate or a lying solver).
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

from . import __version__, bounds, render, search, witness
from .encoder import encode
from .errors import InputError, IntegrityError, NotTabulatedError, ParseError, shown
from .lattice import SIZE_CEILING, Coloring, _power_at_most
from .sat import Budget, split_command, write_dimacs

EXIT_OK = 0
EXIT_LOWER_BOUND = 2
EXIT_INCONCLUSIVE = 3
EXIT_INVALID_INPUT = 4
EXIT_INTEGRITY = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this tool reserves 2 for LowerBound."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


def _add_param_flags(p: argparse.ArgumentParser, *, need_r: bool = True,
                     with_j: bool = True) -> None:
    p.add_argument("--d", type=int, default=1, help="lattice dimension (default 1)")
    p.add_argument("--k", type=int, default=3,
                   help="number of variables in x_1+...+x_(k-1)=x_k (default 3)")
    if with_j:
        p.add_argument("--j", type=int, default=None,
                       help="independence parameter (default min(d, k-1))")
    p.add_argument("--r", type=int, required=need_r, help="number of colors")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver-cmd", default=None, metavar="CMD",
                   help="external DIMACS solver that decides each level first, the "
                        "internal engine answering its Unknowns")
    p.add_argument("--budget-s", type=float, default=None, metavar="S",
                   help="per-solve wall-clock budget in seconds")


def _effective_j(args) -> int:
    return args.j if args.j is not None else min(args.d, args.k - 1)


def _solver_command(args) -> tuple[str, ...] | None:
    command = split_command(args.solver_cmd) if args.solver_cmd else None
    if command and shutil.which(command[0]) is None:
        raise InputError(f"solver program {command[0]!r} not found")
    return command


# -- subcommands -------------------------------------------------------------

def cmd_encode(args) -> int:
    j = _effective_j(args)
    formula = encode(args.n, args.d, args.k, j, args.r,
                     color_precedence=args.symmetry_break)
    data = write_dimacs(formula)
    if args.out:
        search.write_atomically(args.out, data)
    else:
        sys.stdout.buffer.write(data)
    print(f"{formula.num_vars} variables, {formula.num_clauses} clauses",
          file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    j = _effective_j(args)
    out_dir = Path(args.out) if args.out else Path("certificates")
    ledger = Path(args.ledger) if args.ledger else out_dir / "results.csv"
    progress = None
    if not args.quiet:
        progress = lambda n, status: print(f"N={n}: {status}", file=sys.stderr)
    outcome = search.find_schur_number(
        args.d, args.k, j, args.r,
        n_max=args.n_max,
        budget=Budget(seconds=args.budget_s) if args.budget_s is not None else None,
        solver_command=_solver_command(args),
        cert_dir=out_dir,
        ledger_path=ledger,
        progress=progress,
    )
    if isinstance(outcome, search.Exact):
        print(f"Exact {outcome.value}")
        print(f"certificate: {out_dir / search.certificate_filename(outcome.witness)}",
              file=sys.stderr)
        return EXIT_OK
    if isinstance(outcome, search.LowerBound):
        print(f"LowerBound {outcome.value} (value is >= {outcome.value + 1})")
        return EXIT_LOWER_BOUND
    print("Inconclusive")
    for n, status in outcome.statuses:
        print(f"  N={n}: {status}", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    cert = search.load_certificate(args.certificate)
    violation = search.verify_certificate(cert)
    if violation is None:
        print(f"Valid: free coloring of [{cert.n}]^{cert.d} with r={cert.r}, "
              f"k={cert.k}, j={cert.j}")
        return EXIT_OK
    t = violation.tuple
    print(f"Invalid: monochromatic tuple {t.summands} -> {t.total} "
          f"in color {violation.color}")
    return EXIT_INTEGRITY


def cmd_witness(args) -> int:
    if (args.coloring is None) == (args.random_seed is None):
        raise InputError("give exactly one of --coloring or --random-seed")
    table = bounds.load_ramsey_table(args.ramsey_table) if args.ramsey_table else None
    if args.coloring is not None:
        if args.d is not None or args.r is not None or args.n is not None:
            raise InputError("--coloring takes d, r and n from the certificate; "
                             "drop --d, --r and --n")
        chi = search.load_certificate(args.coloring).coloring
    else:
        if args.r is None:
            raise InputError("--random-seed mode needs --r")
        d = args.d if args.d is not None else 1
        # From d = 25 on, a box with n >= 2 has more than 2^24 points.
        if not 1 <= d < SIZE_CEILING.bit_length():
            raise InputError(f"--random-seed needs 1 <= d <= 24, got d={d}")
        _, n = witness.guarantee(d, args.r, args.k, args.n, table)
        npoints = _power_at_most(n, d, SIZE_CEILING)
        if npoints is None:
            raise InputError(f"[{n}]^{d} has more than {SIZE_CEILING} points; "
                             f"give a smaller --n or --d")
        rng = random.Random(args.random_seed)
        chi = Coloring(n, d, args.r, tuple(rng.randint(1, args.r) for _ in range(npoints)))
    w = witness.extract_schur_witness(chi, args.k, table=table)
    d = chi.d
    vdet = witness.vandermonde_det(w.clique[: d + 1])
    print(f"clique vertices: {' < '.join(str(v) for v in w.clique)}")
    print(f"color: {w.color}")
    print(f"summands: {', '.join(str(p) for p in w.summands)}")
    print(f"sum: {w.total}")
    print(f"vandermonde determinant (first {d + 1} vertices): {vdet}")
    if args.out:
        doc = {
            "schema_version": search.CERT_SCHEMA_VERSION,
            "params": {"d": d, "j": d, "k": args.k, "r": chi.r, "n": chi.n},
            "witness": {
                "clique": list(w.clique),
                "summands": [list(p) for p in w.summands],
                "sum": list(w.total),
                "color": w.color,
                "vandermonde_det": vdet,
            },
        }
        search.write_atomically(args.out, (json.dumps(doc, indent=1) + "\n").encode())
        print(f"witness JSON: {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_render(args) -> int:
    cert = search.load_certificate(args.certificate)
    violation = search.verify_certificate(cert)
    if violation is not None:
        raise IntegrityError(
            f"refusing to render an invalid certificate (monochromatic tuple "
            f"{violation.tuple.summands} -> {violation.tuple.total})"
        )
    if args.format == "ascii":
        data = render.render_ascii(cert.coloring).encode()
    elif args.format == "ppm":
        data = render.render_ppm(cert.coloring, scale=args.scale)
    else:
        data = render.render_svg(cert.coloring).encode()
    if args.out:
        search.write_atomically(args.out, data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK


def cmd_bounds(args) -> int:
    table = bounds.load_ramsey_table(args.ramsey_table) if args.ramsey_table else None
    j = _effective_j(args)
    b = bounds.schur_upper_bound(args.d, j, args.r, args.k, table)
    entry = b.ramsey
    if entry.is_exact:
        print(f"R_{args.r}({args.k}) = {entry.lower}  [{entry.source}]")
    else:
        print(f"R_{args.r}({args.k}) in [{entry.lower}, {entry.upper}]  [{entry.source}]")
    label = "" if entry.is_exact else "  (from an inexact Ramsey upper bound)"
    try:
        value = str(b.value)
    except ValueError:  # more digits than str() formats
        value = shown(b.value)
    print(f"S_(d={args.d},j={j})({args.r},{args.k}) <= {value}{label}")
    known = bounds.known_schur_numbers()
    if args.d == 1 and j == 1 and args.k == 3 and args.r in known:
        print(f"classical value: S({args.r}) = {known[args.r]}")
    return EXIT_OK


# -- wiring ----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="schurlat",
                     description="Modified Schur numbers in integer lattices: "
                                 "encode, solve, certify, and render.")
    parser.add_argument("--version", action="version", version=f"schurlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("encode", help="write the CNF encoding as DIMACS")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True, help="box size")
    p.add_argument("--symmetry-break", action="store_true",
                   help="add the color-precedence units a search uses: the i-th "
                        "point of shell order (shell 1, shell 2, ..., row-major "
                        "within a shell), for i < r, takes one of the last i "
                        "colors, so (1,...,1) has color r; a sound extension of "
                        "the default encoding (needs r >= 2)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("search", help="determine the modified Schur number")
    _add_param_flags(p)
    _add_engine_flags(p)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--out", default=None, help="certificate directory (default ./certificates)")
    p.add_argument("--ledger", default=None, help="results CSV (default <out>/results.csv)")
    p.add_argument("-q", "--quiet", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="extract a monochromatic solution from a coloring "
                                       "(the construction's j is always d)")
    _add_param_flags(p, need_r=False, with_j=False)
    p.set_defaults(d=None)  # 1 in --random-seed mode; --coloring refuses it
    p.add_argument("--coloring", default=None, metavar="CERT",
                   help="certificate file supplying the coloring")
    p.add_argument("--random-seed", type=int, default=None,
                   help="use a seeded random coloring instead")
    p.add_argument("--n", type=int, default=None,
                   help="random-coloring box size (default: the guarantee threshold)")
    p.add_argument("--ramsey-table", default=None)
    p.add_argument("--out", default=None, help="also write the witness as JSON")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("render", help="render a certificate as a figure")
    p.add_argument("certificate")
    p.add_argument("--format", choices=("ascii", "ppm", "svg"), default="ascii")
    p.add_argument("--scale", type=int, default=1, help="ppm cell size in pixels")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bounds", help="print Ramsey entries and derived bounds")
    _add_param_flags(p)
    p.add_argument("--ramsey-table", default=None)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError, NotTabulatedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as e:
        # A path that cannot be opened or created is bad input; a failure
        # that names no path, such as a full disk mid-write, is not.
        if e.filename is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except IntegrityError as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())

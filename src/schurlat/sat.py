"""Satisfiability layer: embedded solving, DIMACS exchange, external solvers.

Every solver answers with the result types of cdcl (Budget, Sat, Unsat,
Unknown), which this module re-exports. check_model is the one clause
evaluator: solve_internal and solve_external check their models with it.
cdcl.Engine.solve leaves its model to the caller (a search checks it against
the lattice instead, see search._Box.decide).
"""

from __future__ import annotations

import contextlib
import gc
import re
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from . import cdcl
from .cdcl import Budget, Sat, SolveResult, Unknown, Unsat
from .encoder import CnfFormula
from .errors import InputError, IntegrityError, ParseError, SizeError, shown
from .lattice import SIZE_CEILING

INTERNAL_SOLVER_NAME = "schurlat-cdcl"


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the body of a with statement and
    leave it as it was found, also when the body raises (Mercurial's
    util.nogc does the same). For bodies that build or solve a formula and
    leave no reference cycle, whose allocations would set off collections
    that walk every clause stored (search._Box._grow says why)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def check_model(formula: CnfFormula, model: Mapping[int, bool]) -> bool:
    """Independent clause evaluator: true iff the model satisfies every clause.
    Variables absent from the model count as false."""
    true = {v if model.get(v) else -v for v in range(1, formula.num_vars + 1)}
    return not any(map(true.isdisjoint, formula.clauses))


def solve_internal(formula: CnfFormula, budget: Budget | None = None) -> SolveResult:
    """Decide a formula with a fresh embedded CDCL engine.

    Sound and complete within budget, and deterministic.
    """
    result = cdcl.Engine(formula.num_vars, formula.clauses).solve(budget)
    if isinstance(result, Sat) and not check_model(formula, result.model):
        raise IntegrityError("internal solver returned a model that fails the formula")
    return result


# -- DIMACS ------------------------------------------------------------------

def write_dimacs(formula: CnfFormula) -> bytes:
    """Serialize to DIMACS CNF, byte-exact and stable across runs.

    Header "p cnf <vars> <clauses>", one clause per line terminated by " 0".
    A formula with a comment gets it as a single leading "c" line.
    """
    lines: list[str] = []
    if formula.comment is not None:
        lines.append(f"c {formula.comment}\n")
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}\n")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + (" 0\n" if clause else "0\n"))
    return "".join(lines).encode("ascii")


class _Literals(dict):
    """DIMACS token -> int, one int object per value: a token seen before is
    a dict lookup, and a new one ("+3", "03", ...) is parsed by int() and
    shares the object of any earlier token of the same value. The values are
    kept in the same dict under their int keys; tokens are always strings."""

    def __missing__(self, token: str) -> int:
        value = int(token)
        value = self[token] = self.setdefault(value, value)
        return value


# read_dimacs reads its text in blocks of whole lines: each block runs from
# this many characters on to just after the next "\n" or "\r", or to the end.
_BLOCK = 1 << 16
_BREAK = re.compile(r"[\r\n]").search


def _lines(text: str) -> Iterator[str]:
    """The lines of text as str.splitlines cuts them, one block at a time. A
    block with no "c", "p" or "%" holds no comment, header or end line, so
    it comes whole, as one line: its tokens are those of its lines in order,
    since every line break is whitespace to str.split. A cut between "\r"
    and "\n" adds one empty line, which the grammar skips."""
    start = 0
    while start < len(text):
        cut = _BREAK(text, start + _BLOCK)
        end = cut.end() if cut else len(text)
        block = text[start:end]
        start = end
        if "c" in block or "p" in block or "%" in block:
            yield from block.splitlines()
        else:
            yield block


def _bad_line(text: str, literal: Callable[[str], int]) -> str:
    """The first line of text, stripped, holding a token literal refuses."""
    for line in text.splitlines():
        try:
            for token in line.split():
                literal(token)
        except ValueError:
            return line.strip()
    raise AssertionError("no bad token in the text")


def read_dimacs(text: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text in one pass. Comment lines are ignored, clauses
    may span lines, and a "%" line ends the file. There is exactly one
    "p cnf" header, and it comes before the first clause. Lines end where
    str.splitlines ends them. A header over SIZE_CEILING variables is SizeError.

    The text is read in blocks of whole lines of about 64 KiB, and a block
    that holds only clauses is split and parsed at once, so the transient
    memory beyond the text and the formula is bounded by a block. A clause
    open at the end of a block goes on in the next. A bad token is named
    with its line.

    Every occurrence of a literal value in the clauses is the same int
    object, so a formula of many clauses over few variables costs one
    pointer per literal, not one int each."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []  # a clause still open, in a list so it grows in place
    literal = _Literals().__getitem__
    for line in _lines(text):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"second DIMACS header: {shown(line)}")
            if clauses or current:
                raise ParseError(f"DIMACS header after clauses: {shown(line)}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad DIMACS header: {shown(line)}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad DIMACS header: {shown(line)}") from None
            if num_vars > SIZE_CEILING:
                raise SizeError(f"DIMACS header declares more than {SIZE_CEILING} variables")
            continue
        if line == "%":
            break
        try:
            values = tuple(map(literal, line.split()))
        except ValueError:
            raise ParseError(
                f"bad DIMACS clause line: {shown(_bad_line(line, literal))}") from None
        pos = 0
        try:
            while True:
                end = values.index(0, pos)
                if current:
                    current += values[pos:end]
                    clauses.append(tuple(current))
                    current.clear()
                else:
                    clauses.append(values[pos:end])
                pos = end + 1
        except ValueError:  # no 0 left: the rest opens a clause
            current += values[pos:]
    if num_vars is None or num_clauses is None:
        raise ParseError("missing DIMACS 'p cnf' header")
    if current:
        raise ParseError("last clause is not 0-terminated")
    if len(clauses) != num_clauses:
        raise ParseError(f"header promises {shown(num_clauses)} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


# -- external solvers ----------------------------------------------------------

def parse_solver_output(text: str, num_vars: int | None = None) -> SolveResult:
    """Interpret the stdout of a DIMACS-conformant solver.

    "s SATISFIABLE" plus "v" literal lines yields Sat (variables absent from
    the v-lines default to false); "s UNSATISFIABLE" yields Unsat; anything
    else is Unknown with a reason. Contradictory v-lines are a parse error.
    """
    status: str | None = None
    lits: list[int] = []
    for line in text.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v ") or line == "v":
            try:
                lits.extend(int(t) for t in line[1:].split())
            except ValueError:
                raise ParseError(f"bad v-line: {shown(line)}") from None
    if status is None:
        return Unknown("no status line")
    if status == "UNSATISFIABLE":
        return Unsat()
    if status != "SATISFIABLE":
        return Unknown(f"solver reported {shown(status)}")
    model: dict[int, bool] = {}
    for lit in lits:
        if lit == 0:
            continue
        v = abs(lit)
        value = lit > 0
        if v in model and model[v] != value:
            raise ParseError(f"contradictory v-lines for variable {v}")
        model[v] = value
    if num_vars is not None:
        for v in range(1, num_vars + 1):
            model.setdefault(v, False)
    return Sat(model)


def split_command(command: str) -> tuple[str, ...]:
    """Split a solver command line into argv words the way a POSIX shell
    would; a line that cannot be split (an unbalanced quote) is InputError."""
    try:
        return tuple(shlex.split(command))
    except ValueError as e:
        raise InputError(f"cannot parse solver command {command!r}: {e}") from None


def solve_external(
    formula: CnfFormula,
    command: Sequence[str],
    budget: Budget | None = None,
) -> SolveResult:
    """Decide a formula by invoking `<command> <cnf-path>` on a temp DIMACS file.
    The command is argv words; a str is refused (split_command splits one).

    Sat models are re-checked against the formula in-process before being
    returned; a model that fails the formula is an integrity error, never a
    silent wrong answer. Spawn failures, timeouts and output that cannot be
    parsed come back as Unknown. Stdout is read as read_dimacs reads a file
    (ASCII, other bytes replaced); stderr is discarded.
    """
    if isinstance(command, str):
        raise InputError("solver command must be argv words, not a str")
    argv = list(command)
    if not argv:
        raise InputError("empty external solver command")
    # subprocess waits at most 2**31 - 1 ms; a longer budget, inf too, is no limit.
    timeout = budget.seconds if budget else None
    if timeout is not None and timeout >= (2**31 - 1) // 1000:
        timeout = None
    with tempfile.TemporaryDirectory(prefix="schurlat-") as tmp:
        path = Path(tmp) / "formula.cnf"
        path.write_bytes(write_dimacs(formula))
        try:
            proc = subprocess.run(
                argv + [str(path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return Unknown(f"external solver timed out after {timeout:g}s")
        except OSError as e:
            return Unknown(f"failed to launch external solver: {e}")
    try:
        result = parse_solver_output(proc.stdout.decode("ascii", errors="replace"),
                                     num_vars=formula.num_vars)
    except ParseError as e:
        return Unknown(f"unreadable solver output: {e}")
    if isinstance(result, Sat) and not check_model(formula, result.model):
        raise IntegrityError(
            f"external solver {argv[0]!r} returned a model that fails the formula"
        )
    return result

"""Satisfiability layer: embedded solving, DIMACS exchange, external solvers.

Every satisfying assignment that leaves this module — whether produced by the
embedded engine or parsed from an external solver — has been checked against
the formula by an independent clause evaluator first.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import cdcl
from .encoder import Clause, CnfFormula
from .errors import InputError, IntegrityError, ParseError

INTERNAL_SOLVER_NAME = "schurlat-cdcl"


@dataclass(frozen=True)
class Budget:
    """Optional wall-clock / conflict limits for a single solve call."""

    seconds: float | None = None
    conflicts: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is not None and not self.seconds > 0:  # NaN too
            raise InputError("budget seconds must be positive")
        if self.conflicts is not None and self.conflicts <= 0:
            raise InputError("budget conflicts must be positive")


@dataclass(frozen=True)
class Sat:
    """Satisfiable, with a total assignment variable -> boolean."""

    model: dict[int, bool]


@dataclass(frozen=True)
class Unsat:
    """No satisfying assignment exists."""


@dataclass(frozen=True)
class Unknown:
    """No answer within budget, or the solver failed; reason is human-readable."""

    reason: str


SolveResult = Sat | Unsat | Unknown


def check_model(formula: CnfFormula, model: Mapping[int, bool]) -> bool:
    """Independent clause evaluator: true iff the model satisfies every clause.
    Variables absent from the model count as false."""
    return _satisfies(formula.clauses,
                      {**dict.fromkeys(range(1, formula.num_vars + 1), False), **model})


def _satisfies(clauses: Iterable[Clause], model: Mapping[int, bool]) -> bool:
    """True iff each clause has a literal true in the model, which is total."""
    true = {v if value else -v for v, value in model.items()}
    return not any(map(true.isdisjoint, clauses))


def solve_internal(formula: CnfFormula, budget: Budget | None = None) -> SolveResult:
    """Decide a formula with a fresh embedded CDCL engine.

    Sound and complete within budget, and deterministic.
    """
    engine = cdcl.Engine(formula.num_vars, formula.clauses)
    return solve_engine(engine, formula.clauses, budget)


def solve_engine(
    engine: cdcl.Engine, clauses: Sequence[Clause], budget: Budget | None = None
) -> SolveResult:
    """Run an engine that holds exactly `clauses`, which may have been added
    across several calls. A model is checked against every clause before it is
    returned; an Unknown's reason gives the engine's counters at the moment the
    budget ran out."""
    status, raw = engine.solve(
        max_seconds=budget.seconds if budget else None,
        max_conflicts=budget.conflicts if budget else None,
    )
    if status == "unsat":
        return Unsat()
    if status == "unknown":
        parts = []
        if budget and budget.seconds is not None:
            parts.append(f"{budget.seconds:g}s")
        if budget and budget.conflicts is not None:
            parts.append(f"{budget.conflicts} conflicts")
        return Unknown(
            f"internal solver budget exhausted ({', '.join(parts)}) after "
            f"{engine.conflicts} conflicts, {engine.decisions} decisions, "
            f"{engine.reductions} deletion rounds"
        )
    assert raw is not None
    model = {v: raw[v] for v in range(1, engine.n + 1)}
    if not _satisfies(clauses, model):
        raise IntegrityError("internal solver returned a model that fails the formula")
    return Sat(model)


# -- DIMACS ------------------------------------------------------------------

def write_dimacs(formula: CnfFormula) -> bytes:
    """Serialize to DIMACS CNF, byte-exact and stable across runs.

    Header "p cnf <vars> <clauses>", one clause per line terminated by " 0".
    When the formula carries encoding metadata, a single leading "c" line
    records the (N, d, k, j, r) parameters.
    """
    lines: list[str] = []
    meta = formula.meta
    if meta is not None:
        fields = [f"N={meta.n}", f"d={meta.d}"]
        if meta.k is not None:
            fields.append(f"k={meta.k}")
        if meta.j is not None:
            fields.append(f"j={meta.j}")
        fields.append(f"r={meta.r}")
        lines.append("c schurlat " + " ".join(fields) + "\n")
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}\n")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + (" 0\n" if clause else "0\n"))
    return "".join(lines).encode("ascii")


def read_dimacs(text: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text in one pass. Comment lines are ignored, clauses
    may span lines, and a "%" line ends the file."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad DIMACS header: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad DIMACS header: {line!r}") from None
            continue
        if line == "%":
            break
        try:
            for t in map(int, line.split()):
                if t:
                    current.append(t)
                else:
                    clauses.append(tuple(current))
                    current.clear()
        except ValueError:
            raise ParseError(f"bad DIMACS clause line: {line!r}") from None
    if num_vars is None or num_clauses is None:
        raise ParseError("missing DIMACS 'p cnf' header")
    if current:
        raise ParseError("last clause is not 0-terminated")
    if len(clauses) != num_clauses:
        raise ParseError(f"header promises {num_clauses} clauses, found {len(clauses)}")
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
                raise ParseError(f"bad v-line: {line!r}") from None
    if status is None:
        return Unknown("no status line")
    if status == "UNSATISFIABLE":
        return Unsat()
    if status != "SATISFIABLE":
        return Unknown(f"solver reported {status!r}")
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
    command: str | Sequence[str],
    budget: Budget | None = None,
) -> SolveResult:
    """Decide a formula by invoking `<command> <cnf-path>` on a temp DIMACS file.

    Sat models are re-checked against the formula in-process before being
    returned; a model that fails the formula is an integrity error, never a
    silent wrong answer. Spawn failures, timeouts and output that cannot be
    parsed come back as Unknown.
    """
    argv = list(split_command(command) if isinstance(command, str) else command)
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
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return Unknown(f"external solver timed out after {timeout:g}s")
        except OSError as e:
            return Unknown(f"failed to launch external solver: {e}")
    try:
        result = parse_solver_output(proc.stdout, num_vars=formula.num_vars)
    except ParseError as e:
        return Unknown(f"unreadable solver output: {e}")
    if isinstance(result, Sat) and not check_model(formula, result.model):
        raise IntegrityError(
            f"external solver {argv[0]!r} returned a model that fails the formula"
        )
    return result

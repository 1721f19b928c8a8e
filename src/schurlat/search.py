"""The N-by-N probe loop, certificates, the results ledger, and the
exhaustive brute-force oracle for tiny instances.

A probe asks one question — does some r-coloring of [N]^d avoid the whole
tuple family? — and a search walks N upward until the answer flips. Freeness
of a coloring is monotone under restriction, so the first non-colorable N is
the modified Schur number, and every colorable level below it leaves a
Certificate that gets persisted and can be re-verified independently.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import shlex
import stat
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

from . import cdcl, sat
from .bounds import _json_int, _json_str, schur_upper_bound
from .encoder import (
    Clause,
    CnfFormula,
    decode_model,
    encode_points,
    precedence_points,
)
from .errors import (
    InputError,
    IntegrityError,
    NotTabulatedError,
    ParseError,
    SizeError,
    shown,
)
from .lattice import (
    SIZE_CEILING,
    Coloring,
    Point,
    Violation,
    _family_floor,
    _points,
    _power_at_most,
    enumerate_tuples,
    first_violation,
    point_index,
    shell_points,
)

CERT_SCHEMA_VERSION = 1
LEDGER_FIELDS = ["d", "j", "k", "r", "n", "outcome", "solver", "wall_ms"]


@dataclass(frozen=True)
class Provenance:
    """Where a certificate came from."""

    solver: str
    wall_ms: int
    created: str


@dataclass(frozen=True)
class Certificate:
    """A free coloring, the k and j it is free for, and its provenance; n, d
    and r are the coloring's. Provenance is advisory only: verify_certificate
    recomputes everything."""

    coloring: Coloring
    k: int
    j: int
    provenance: Provenance

    @property
    def n(self) -> int:
        return self.coloring.n

    @property
    def d(self) -> int:
        return self.coloring.d

    @property
    def r(self) -> int:
        return self.coloring.r


@dataclass(frozen=True)
class UnsatRecord:
    """A recorded refutation: no free coloring of [n]^d exists."""

    n: int
    solver: str
    wall_ms: int


ProbeOutcome = Certificate | UnsatRecord | sat.Unknown


@dataclass(frozen=True)
class Exact:
    """The modified Schur number itself: a certified free coloring at value-1
    and a refutation at value."""

    witness: Certificate
    refutation: UnsatRecord

    @property
    def value(self) -> int:
        return self.refutation.n


@dataclass(frozen=True)
class LowerBound:
    """value is the largest N proven colorable, so the number is >= value+1."""

    witness: Certificate

    @property
    def value(self) -> int:
        return self.witness.n


@dataclass(frozen=True)
class Inconclusive:
    """Per-N statuses up to and including the probe that came back unknown."""

    statuses: tuple[tuple[int, str], ...]


SearchOutcome = Exact | LowerBound | Inconclusive


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _Box:
    """One internal engine that holds the formula of [n]^d in shell
    numbering. Every level a search or probe decides is decided here.

    encode_points numbers the points shell by shell, so the formula of [n+1]^d
    is the formula of [n]^d plus the clauses of shell n+1, and the engine that
    decided level n decides level n+1 after those clauses are added. Each
    solve starts afresh except for the clauses, level-0 facts and saved
    phases, so the last level's model seeds the next level's decisions. The
    engine receives every shell even when a solver is named, because it is
    the fallback. The box keeps only the engine and the points' variable
    bases; formula() rebuilds the clauses, shell by shell in the same
    numbering, for an external solver.

    solver_command, argv words, names that external solver; a str is
    refused (sat.split_command splits one). budget bounds each solve.

    Every shell carries the color-precedence units of its points, so a
    refutation is one of the color-reduced formula; encoder.precedence_points
    says why that refutes the whole formula.

    floor is the largest N whose tuple family is empty (_family_floor), so
    every coloring of [n]^d with n <= floor is free and a refutation there
    is a fault. ceiling is the theorem's bound
    R_r(k)^j - 1 (from the upper end of the Ramsey table): no box [n]^d with
    n >= ceiling has a free coloring, so a certificate there is a fault.
    It is None when R_r(k) is not tabulated.
    """

    def __init__(self, d: int, k: int, j: int, r: int, *,
                 solver_command: tuple[str, ...] | None = None,
                 budget: sat.Budget | None = None) -> None:
        if r < 1:
            raise InputError(f"need r >= 1, got r={shown(r)}")
        if isinstance(solver_command, str):
            raise InputError("solver command must be argv words, not a str")
        self.d, self.k, self.j, self.r = d, k, j, r
        self.solver_command, self.budget = solver_command, budget
        self.n = 0
        self.bases: dict[Point, int] = {}
        self.engine = cdcl.Engine(0, ())
        self.floor = _family_floor(d, k, j)
        try:
            self.ceiling: int | None = schur_upper_bound(d, j, r, k).value
        except NotTabulatedError:
            self.ceiling = None

    def _shell(self, s: int, bases: dict[Point, int]) -> Iterator[Clause]:
        """The clauses of shell s, its points numbered after those in bases
        at once and its tuples walked (lattice._points) as the clauses are
        read."""
        points = shell_points(s, self.d)
        return encode_points(points, _points(points, self.d, self.k, self.j), bases,
                             self.r, color_precedence=True)

    def _grow(self, n: int) -> None:
        """Add the shells after the box's N through n to the engine, with the
        cyclic garbage collector paused (sat._collector_paused).

        Each shell's clauses stream from the family walk into
        Engine.add_clauses, so growth never holds a shell's tuples or
        clauses. It still allocates, per shell, the shell's points and two
        literal tables over every point numbered so far (encode_points); per
        total, its summand tuples (lattice._family); and per batch of
        encoder._BATCH tuples, their clauses until the engine has copied
        them. A failure mid-shell leaves the shell's points numbered and part
        of its clauses added while N stays put, so every later growth refuses
        (InputError: the points numbered are not those of [N]^d); a deadline
        on growth must discard the box.

        Growth allocates far more container objects than it frees: point and
        clause tuples and the engine's clause lists. Those allocations set off
        collections, and every full collection walks each stored clause, so
        their cost grows with the formula. Nothing growth builds can be part
        of a reference cycle (tuples of ints and points, and lists of ints and
        of such lists), so reference counting frees all it discards; the
        pause only defers what the collector would have found.
        """
        if _power_at_most(self.n, self.d, len(self.bases)) != len(self.bases):
            raise InputError(f"cannot grow the box past N={self.n}: its last growth "
                             f"failed partway, so a new box is needed")
        with sat._collector_paused():
            for s in range(self.n + 1, n + 1):
                clauses = self._shell(s, self.bases)
                self.engine.add_vars(len(self.bases) * (self.r - 1) - self.engine.n)
                self.engine.add_clauses(clauses)
            self.n = n

    def formula(self) -> CnfFormula:
        """The formula the engine holds, rebuilt shell by shell."""
        bases: dict[Point, int] = {}
        clauses = [c for s in range(1, self.n + 1) for c in self._shell(s, bases)]
        return CnfFormula(self.engine.n, tuple(clauses))

    def decide(self, n: int) -> tuple[ProbeOutcome, int]:
        """Grow the formula to [n]^d, solve it and check the answer. A named
        solver decides first, and the internal engine only when there is none
        or it answered Unknown; when both give up, the solver's Unknown
        stands. Returns the outcome and the level's wall time in ms, from
        growth to the last check.

        A model is checked against the lattice, and passes exactly when it
        satisfies every clause: decode_model checks the at-most-one clauses;
        given those, a tuple's r clauses hold unless its points share a color,
        and first_violation checks every tuple of [n]^d (the tuples of shells
        1..n); the color-precedence units are the clauses left, checked on the
        first r-1 points of shell order. For k = 3 first_violation sums
        color classes and does not walk the family the shells were built
        from, so a tuple that walk dropped from the formula is still checked;
        for k >= 4 it derives the family from the lattice by that walk."""
        if n <= self.n:
            raise InputError(f"cannot decide N={n}: the box is at N={self.n}")
        t0 = time.monotonic()
        self._grow(n)
        command, budget = self.solver_command, self.budget
        result = None
        if command:
            result = sat.solve_external(self.formula(), command, budget)
            solver = "external:" + shlex.join(command)
        if result is None or isinstance(result, sat.Unknown):
            answer = self.engine.solve(budget)
            if result is None or not isinstance(answer, sat.Unknown):
                result, solver = answer, sat.INTERNAL_SOLVER_NAME
        d, k, j, r = self.d, self.k, self.j, self.r
        if isinstance(result, sat.Unsat) and n <= self.floor:
            raise IntegrityError(
                f"[{n}]^{d} came back not colorable, but its tuple family is "
                f"empty, so every coloring is free; the solver is wrong"
            )
        if isinstance(result, sat.Sat):
            coloring = decode_model(result.model, n, d, r, bases=self.bases)
            for i, p in enumerate(precedence_points(n, d, r), 1):
                if coloring.color_of(p) <= r - i:
                    raise IntegrityError(
                        f"decoded model gives {p} color {coloring.color_of(p)}, but "
                        f"color precedence allows only colors {r - i + 1}..{r} there"
                    )
            violation = first_violation(coloring, k, j)
            if violation is not None:
                raise IntegrityError(
                    f"decoded model admits a monochromatic tuple {violation.tuple} "
                    f"in color {violation.color}; encoder and solver disagree"
                )
            if self.ceiling is not None and n >= self.ceiling:
                raise IntegrityError(
                    f"[{n}]^{d} came back colorable, but no free {r}-coloring exists "
                    f"from N={self.ceiling} = R_{r}({k})^{j} - 1 on; the solver, the "
                    f"family or the Ramsey table is wrong"
                )
        wall_ms = int((time.monotonic() - t0) * 1000)
        if isinstance(result, sat.Sat):
            provenance = Provenance(solver, wall_ms, _utc_now())
            return Certificate(coloring, k, j, provenance), wall_ms
        if isinstance(result, sat.Unsat):
            return UnsatRecord(n, solver, wall_ms), wall_ms
        return result, wall_ms


def probe(
    n: int, d: int, k: int, j: int, r: int, *,
    solver_command: tuple[str, ...] | None = None,
    budget: sat.Budget | None = None,
) -> ProbeOutcome:
    """Decide whether some r-coloring of [n]^d avoids every j-nondegenerate
    Schur k-tuple. The answer is a Certificate, already re-verified against
    the family, an UnsatRecord, or an Unknown. solver_command and budget are
    _Box's."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={shown(n)}")
    return _Box(d, k, j, r, solver_command=solver_command, budget=budget).decide(n)[0]


def find_schur_number(
    d: int,
    k: int,
    j: int,
    r: int,
    *,
    n_max: int | None = None,
    solver_command: tuple[str, ...] | None = None,
    budget: sat.Budget | None = None,
    cert_dir: str | Path | None = None,
    ledger_path: str | Path | None = None,
    progress: Callable[[int, str], None] | None = None,
) -> SearchOutcome:
    """Determine the modified Schur number exactly, or bound it.

    Linear ascent, proving every level on the way. The walk starts at the
    largest N whose tuple family is empty (the box's floor, k-2 for j=1 and
    k-1 for j>=2), or at n_max when that is smaller. Every coloring of
    that first box is free, so the first refuted level is the exact
    value and Exact outcomes always carry a verified certificate at value-1
    and a refutation at value. LowerBound(v) means every level through v was
    proven colorable (the number is >= v+1). Any Unknown halts the search as
    Inconclusive; an Unknown is never converted into a bound.

    Every level is decided by one _Box, whose formula and internal engine
    grow shell by shell, whichever engine answers it; solver_command and
    budget are the box's.
    """
    if n_max is not None and n_max < 1:
        raise InputError(f"n_max must be >= 1, got {shown(n_max)}")
    cert_dir = Path(cert_dir) if cert_dir else None
    ledger_path = Path(ledger_path) if ledger_path else None
    statuses: list[tuple[int, str]] = []
    box = _Box(d, k, j, r, solver_command=solver_command, budget=budget)
    n = box.floor if n_max is None else min(box.floor, n_max)
    while True:
        outcome, wall_ms = box.decide(n)
        if isinstance(outcome, Certificate):
            status, solver = "colorable", outcome.provenance.solver
            if cert_dir is not None:
                save_certificate(outcome, cert_dir)
        elif isinstance(outcome, UnsatRecord):
            status, solver = "not-colorable", outcome.solver
        else:
            status, solver = f"unknown: {outcome.reason}", ""
        statuses.append((n, status))
        if ledger_path is not None:
            append_ledger_row(
                ledger_path,
                {"d": d, "j": j, "k": k, "r": r, "n": n,
                 "outcome": status, "solver": solver, "wall_ms": wall_ms},
            )
        if progress is not None:
            progress(n, status)
        if isinstance(outcome, sat.Unknown):
            return Inconclusive(tuple(statuses))
        if isinstance(outcome, UnsatRecord):
            # The first level is never refuted (_Box.decide), so witness is set.
            return Exact(witness, outcome)
        witness = outcome
        if n == n_max:
            return LowerBound(witness)
        n += 1


def brute_force_oracle(n: int, d: int, k: int, j: int, r: int) -> Coloring | None:
    """Exhaustively search all r^(n^d) colorings for a free one.

    Returns the first free coloring in lexicographic order, or None when every
    coloring contains a monochromatic tuple. Refuses more than SIZE_CEILING
    points or colorings, before building a number larger than that. A box no
    larger than the family's floor holds no tuple, so it gets the all-1
    coloring at once. This is the independent correctness oracle for probe:
    it never touches the encoder or the solver.
    """
    if min(n, d, r) < 1:
        raise InputError(f"need n, d, r >= 1, got n={shown(n)}, d={shown(d)}, "
                         f"r={shown(r)}")
    floor = _family_floor(d, k, j)
    npoints = _power_at_most(n, d, SIZE_CEILING)
    if npoints is None or _power_at_most(r, npoints, SIZE_CEILING) is None:
        raise SizeError(f"[{shown(n)}]^{shown(d)} in {shown(r)} colors has more than "
                        f"{SIZE_CEILING} points or colorings")
    if n <= floor:
        return Coloring.constant(n, d, r)
    family = enumerate_tuples(n, d, k, j)
    tuple_idx = [
        tuple(point_index(p, n) - 1 for p in t.distinct_points())
        for t in family
    ]
    for colors in itertools.product(range(1, r + 1), repeat=npoints):
        for idxs in tuple_idx:
            c0 = colors[idxs[0]]
            if all(colors[i] == c0 for i in idxs[1:]):
                break
        else:
            return Coloring(n, d, r, colors)
    return None


# -- certificate persistence ---------------------------------------------------

def verify_certificate(cert: Certificate) -> Violation | None:
    """Re-verify a certificate from scratch: search the tuple family of the
    stored parameters for a monochromatic tuple. Returns None when valid, else
    the first violating tuple. Stored provenance is never trusted."""
    return first_violation(cert.coloring, cert.k, cert.j)


def certificate_filename(cert: Certificate) -> str:
    return f"S_d{cert.d}_j{cert.j}_k{cert.k}_r{cert.r}_N{cert.n}.cert.json"


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema_version": CERT_SCHEMA_VERSION,
        "params": {"d": cert.d, "j": cert.j, "k": cert.k, "r": cert.r, "n": cert.n},
        "colors": list(cert.coloring.colors),
        "provenance": {
            "solver": cert.provenance.solver,
            "seed": None,  # schema v1 keeps the key; the engine takes no seed
            "wall_ms": cert.provenance.wall_ms,
            "created": cert.provenance.created,
        },
    }


def save_certificate(cert: Certificate, directory: str | Path) -> Path:
    """Write the certificate JSON into the directory, atomically (see
    write_atomically); returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / certificate_filename(cert)
    text = json.dumps(certificate_to_json(cert), indent=1) + "\n"
    write_atomically(path, text.encode())
    return path


def write_atomically(path: str | Path, data: bytes) -> None:
    """Write data to path through a temporary file in the same directory,
    fsynced and then renamed over the target, so a crash or a failed write
    never leaves a partial file behind (a previous file at the path survives).

    A symlink's target is replaced, not the link. A file that is replaced
    keeps its mode; a new file gets 0o666 less the umask, as a plain write
    would give it. A path that exists but is not a regular file, such as
    /dev/stdout or a FIFO, cannot be renamed over and is written directly."""
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    path = path.resolve()
    try:
        mode = stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fchmod(fh.fileno(), mode)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_certificate(path: str | Path) -> Certificate:
    """Parse a certificate file. Structural problems, including a param, a
    color or provenance.wall_ms that is not a JSON integer, or a
    provenance.solver or .created that is not a JSON string, raise
    ParseError; provenance.seed is not read. Use verify_certificate to judge
    whether the coloring is actually free."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read certificate {path}: {e}") from None
    try:
        if _json_int(doc["schema_version"], "schema_version") != CERT_SCHEMA_VERSION:
            raise ParseError(
                f"unsupported certificate schema_version {doc['schema_version']!r}"
            )
        params = {key: _json_int(doc["params"][key], key)
                  for key in ("d", "j", "k", "r", "n")}
        colors = tuple(_json_int(c, "color") for c in doc["colors"])
        prov = doc.get("provenance", {})
        if not isinstance(prov, dict):
            raise ParseError(f"provenance must be a JSON object, got {prov!r}")
        return Certificate(
            Coloring(params["n"], params["d"], params["r"], colors),
            params["k"], params["j"],
            Provenance(
                solver=_json_str(prov.get("solver", "?"), "solver"),
                wall_ms=_json_int(prov.get("wall_ms", 0), "wall_ms"),
                created=_json_str(prov.get("created", "?"), "created"),
            ),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed certificate {path}: {e}") from None


def append_ledger_row(path: str | Path, row: dict) -> None:
    """Append one probe outcome to the CSV results ledger, after the header
    when the file is new or empty."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LEDGER_FIELDS)
        if fh.tell() == 0:  # an append opens at the end: tell() is the size
            writer.writeheader()
        writer.writerow(row)

"""The N-by-N probe loop, certificates, the results ledger, and the
exhaustive brute-force oracle for tiny instances.

A probe asks one question — does some r-coloring of [N]^d avoid the whole
tuple family? — and a search walks N upward until the answer flips. Freeness
of a coloring is monotone under restriction, so the first non-colorable N is
the modified Schur number, and every Colorable answer below it is evidence
that gets persisted as an independently re-verifiable certificate.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import stat
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from . import cdcl, sat
from .bounds import _json_int, schur_upper_bound
from .encoder import (
    Clause,
    CnfFormula,
    EncodingMeta,
    decode_model,
    encode_points,
)
from .errors import InputError, IntegrityError, NotTabulatedError, ParseError, SizeError
from .lattice import (
    Coloring,
    Point,
    Violation,
    enumerate_shell,
    enumerate_tuples,
    first_violation,
    point_index,
    shell_points,
)

CERT_SCHEMA_VERSION = 1
SOLVER_ENV_VAR = "SCHUR_SOLVER"
LEDGER_FIELDS = ["d", "j", "k", "r", "n", "outcome", "solver", "wall_ms"]


@dataclass(frozen=True)
class Provenance:
    """Where a certificate came from. seed is kept for certificate schema v1:
    the engine takes no seed, so new certificates record None."""

    solver: str
    seed: int | None
    wall_ms: int
    created: str


@dataclass(frozen=True)
class Certificate:
    """A Free coloring bundled with its problem parameters and provenance.

    Provenance is advisory only; verify_certificate recomputes everything."""

    d: int
    j: int
    k: int
    r: int
    n: int
    coloring: Coloring
    provenance: Provenance

    def __post_init__(self) -> None:
        c = self.coloring
        if (c.n, c.d, c.r) != (self.n, self.d, self.r):
            raise InputError(
                f"certificate params (n={self.n}, d={self.d}, r={self.r}) do not "
                f"match coloring (n={c.n}, d={c.d}, r={c.r})"
            )


@dataclass(frozen=True)
class UnsatRecord:
    """A recorded refutation: no free coloring of [n]^d exists."""

    n: int
    solver: str
    wall_ms: int


@dataclass(frozen=True)
class Colorable:
    certificate: Certificate


@dataclass(frozen=True)
class NotColorable:
    record: UnsatRecord


ProbeOutcome = Colorable | NotColorable | sat.Unknown


@dataclass(frozen=True)
class Exact:
    """The modified Schur number itself: a certified free coloring at value-1
    and a refutation at value."""

    value: int
    witness: Certificate
    refutation: UnsatRecord


@dataclass(frozen=True)
class LowerBound:
    """value is the largest N proven colorable, so the number is >= value+1."""

    value: int
    witness: Certificate


@dataclass(frozen=True)
class Inconclusive:
    """Per-N statuses up to and including the probe that came back unknown."""

    statuses: tuple[tuple[int, str], ...]


SearchOutcome = Exact | LowerBound | Inconclusive


@dataclass(frozen=True)
class EngineConfig:
    """How probes get decided.

    engine selects the primary decision procedure; on an Unknown outcome the
    other one is tried as well (when available) before giving up, unless
    escalate is disabled. symmetry_break adds the documented unit-clause
    extension to the encoding.
    """

    engine: str = "internal"
    solver_command: tuple[str, ...] | None = None
    budget: sat.Budget | None = None
    symmetry_break: bool = False
    escalate: bool = True

    def __post_init__(self) -> None:
        if self.engine not in ("internal", "external"):
            raise InputError(f"engine must be internal or external, got {self.engine!r}")

    def external_command(self) -> tuple[str, ...] | None:
        if self.solver_command:
            return self.solver_command
        env = os.environ.get(SOLVER_ENV_VAR)
        return sat.split_command(env) if env else None


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _Box:
    """The formula of [n]^d in shell numbering, and one internal engine that
    holds it. Every level a search or probe decides is decided here.

    encode_points numbers the points shell by shell, so the formula of [n+1]^d
    is the formula of [n]^d plus the clauses of shell n+1, and the engine that
    decided level n decides level n+1 after those clauses are added. Each
    solve starts afresh except for the clauses, level-0 facts and saved
    phases, so the last level's model seeds the next level's decisions. The
    engine receives every shell even when the external engine is configured,
    because it is the escalation target.

    floor is the largest N whose tuple family is empty: shells 1..floor hold
    no tuple, so every coloring of [n]^d with n <= floor is free and a
    NotColorable answer there is a fault. ceiling is the theorem's bound
    R_r(k)^j - 1 (from the upper end of the Ramsey table): no box [n]^d with
    n >= ceiling has a free coloring, so a Colorable answer there is a fault.
    It is None when R_r(k) is not tabulated.
    """

    def __init__(self, d: int, k: int, j: int, r: int, config: EngineConfig) -> None:
        if r < 1:
            raise InputError(f"need r >= 1, got r={r}")
        self.d, self.k, self.j, self.r = d, k, j, r
        self.config = config
        self.n = 0
        self.bases: dict[Point, int] = {}
        self.clauses: list[Clause] = []
        self.engine = cdcl.Engine(0, ())
        self.floor = 0
        while not enumerate_shell(self.floor + 1, d, k, j):
            self.floor += 1
        try:
            self.ceiling: int | None = schur_upper_bound(d, j, r, k).value
        except NotTabulatedError:
            self.ceiling = None

    def _grow(self, n: int) -> None:
        for s in range(self.n + 1, n + 1):
            points = shell_points(s, self.d)
            shell = enumerate_shell(s, self.d, self.k, self.j)
            clauses = encode_points(points, shell, self.bases, self.r,
                                    fix_first_point_color=self.config.symmetry_break)
            self.engine.add_vars(len(points) * (self.r - 1))
            self.engine.add_clauses(clauses)
            self.clauses.extend(clauses)
        self.n = n

    def _solve(self, engine: str) -> tuple[sat.SolveResult, str]:
        """Run one engine on the current formula; returns the result and the
        name of the engine."""
        if engine == "internal":
            return (sat.solve_engine(self.engine, self.clauses, self.config.budget),
                    sat.INTERNAL_SOLVER_NAME)
        command = self.config.external_command()
        if command is None:
            raise InputError(
                f"external engine selected but no solver command given "
                f"(set --solver-cmd or ${SOLVER_ENV_VAR})"
            )
        formula = CnfFormula(self.engine.n, tuple(self.clauses))
        return (sat.solve_external(formula, command, self.config.budget),
                "external:" + command[0])

    def decide(self, n: int) -> ProbeOutcome:
        """Grow the formula to [n]^d and run the configured engine, then the
        other one on Unknown when escalate is set and it is available. A model
        is decoded to a row-major coloring and must be free of the whole
        family of [n]^d, which first_violation derives from the lattice rather
        than from the shells handed to the encoder."""
        if n <= self.n:
            raise InputError(f"cannot decide N={n}: the box is at N={self.n}")
        self._grow(n)
        config = self.config
        t0 = time.monotonic()
        result, solver = self._solve(config.engine)
        if isinstance(result, sat.Unknown) and config.escalate:
            other = "external" if config.engine == "internal" else "internal"
            if other == "internal" or config.external_command() is not None:
                result2, solver2 = self._solve(other)
                if not isinstance(result2, sat.Unknown):
                    result, solver = result2, solver2
        wall_ms = int((time.monotonic() - t0) * 1000)
        if isinstance(result, sat.Unknown):
            return result
        d, k, j, r = self.d, self.k, self.j, self.r
        if isinstance(result, sat.Unsat):
            if n <= self.floor:
                raise IntegrityError(
                    f"[{n}]^{d} came back not colorable, but its tuple family is "
                    f"empty, so every coloring is free; the solver is wrong"
                )
            return NotColorable(UnsatRecord(n, solver, wall_ms))
        coloring = decode_model(result.model, EncodingMeta(n, d, r, k, j),
                                bases=self.bases)
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
        cert = Certificate(d, j, k, r, n, coloring,
                           Provenance(solver, None, wall_ms, _utc_now()))
        return Colorable(cert)


def probe(
    n: int, d: int, k: int, j: int, r: int, config: EngineConfig | None = None
) -> ProbeOutcome:
    """Decide whether some r-coloring of [n]^d avoids every j-nondegenerate
    Schur k-tuple. Colorable answers carry a certificate that has already been
    re-verified against the family."""
    return _Box(d, k, j, r, config or EngineConfig()).decide(n)


def find_schur_number(
    d: int,
    k: int,
    j: int,
    r: int,
    *,
    n_max: int | None = None,
    config: EngineConfig | None = None,
    cert_dir: str | Path | None = None,
    ledger_path: str | Path | None = None,
    progress: Callable[[int, str], None] | None = None,
) -> SearchOutcome:
    """Determine the modified Schur number exactly, or bound it.

    Linear ascent, proving every level on the way. The walk starts at the
    largest N whose tuple family is empty (the box's floor: 1 for k=3, j=1,
    2 for d=2, k=3, j=2), or at n_max when that is smaller. Every coloring of
    that first box is free, so the first NotColorable level is the exact
    value and Exact outcomes always carry a verified certificate at value-1
    and a refutation at value. LowerBound(v) means every level through v was
    proven colorable (the number is >= v+1). Any Unknown halts the search as
    Inconclusive; an Unknown is never converted into a bound.

    Every level is decided by one _Box, whose formula and internal engine
    grow shell by shell, whichever engine answers it.
    """
    if n_max is not None and n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    config = config or EngineConfig()
    cert_dir = Path(cert_dir) if cert_dir else None
    ledger_path = Path(ledger_path) if ledger_path else None
    statuses: list[tuple[int, str]] = []
    box = _Box(d, k, j, r, config)
    n = box.floor if n_max is None else min(box.floor, n_max)
    while True:
        t0 = time.monotonic()
        outcome = box.decide(n)
        wall_ms = int((time.monotonic() - t0) * 1000)
        if isinstance(outcome, Colorable):
            status, solver = "colorable", outcome.certificate.provenance.solver
            if cert_dir is not None:
                save_certificate(outcome.certificate, cert_dir)
        elif isinstance(outcome, NotColorable):
            status, solver = "not-colorable", outcome.record.solver
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
        if isinstance(outcome, NotColorable):
            # The first level is never refuted (_Box.decide), so witness is set.
            return Exact(n, witness, outcome.record)
        witness = outcome.certificate
        if n == n_max:
            return LowerBound(n, witness)
        n += 1


def brute_force_oracle(
    n: int, d: int, k: int, j: int, r: int, *, ceiling: int = 1 << 24
) -> Coloring | None:
    """Exhaustively search all r^(n^d) colorings for a free one.

    Returns the first free coloring in lexicographic order, or None when every
    coloring contains a monochromatic tuple. Refuses instances beyond the
    ceiling. This is the independent correctness oracle for probe: it never
    touches the encoder or the solver.
    """
    npoints = n**d
    total = r**npoints
    if total > ceiling:
        raise SizeError(
            f"{r}^{npoints} = {total} colorings exceeds the ceiling of {ceiling}"
        )
    family = enumerate_tuples(n, d, k, j)
    tuple_idx = [
        tuple(point_index(p, n) - 1 for p in t.distinct_points())
        for t in family.tuples
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
            "seed": cert.provenance.seed,
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
    """Parse a certificate file. Structural problems, including a param or a
    color that is not a JSON integer, raise ParseError; use
    verify_certificate to judge whether the coloring is actually free."""
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
            **params,
            coloring=Coloring(params["n"], params["d"], params["r"], colors),
            provenance=Provenance(
                solver=str(prov.get("solver", "?")),
                seed=prov.get("seed"),
                wall_ms=int(prov.get("wall_ms", 0)),
                created=str(prov.get("created", "?")),
            ),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"malformed certificate {path}: {e}") from None


def append_ledger_row(path: str | Path, row: dict) -> None:
    """Append one probe outcome to the CSV results ledger (header on first write)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    new = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LEDGER_FIELDS)
        if new:
            writer.writeheader()
        writer.writerow(row)

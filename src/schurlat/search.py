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
import shlex
import tempfile
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from . import cdcl, sat
from .encoder import (
    Clause,
    CnfFormula,
    EncodingMeta,
    decode_model,
    encode,
    encode_shell,
)
from .errors import InputError, IntegrityError, ParseError, SizeError
from .lattice import (
    Coloring,
    Point,
    SchurTuple,
    TupleFamily,
    Violation,
    enumerate_shell,
    enumerate_tuples,
    point_index,
    shell_points,
    verify_free,
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
        return tuple(shlex.split(env)) if env else None


def _solve_with_config(
    formula: CnfFormula, config: EngineConfig
) -> tuple[sat.SolveResult, str]:
    """Run the configured engine, escalating to the other one on Unknown.
    Returns the result and the name of the engine that produced it."""

    def run(engine: str) -> tuple[sat.SolveResult, str]:
        if engine == "internal":
            return sat.solve_internal(formula, config.budget), sat.INTERNAL_SOLVER_NAME
        command = config.external_command()
        if command is None:
            raise InputError(
                f"external engine selected but no solver command given "
                f"(set --solver-cmd or ${SOLVER_ENV_VAR})"
            )
        return sat.solve_external(formula, command, config.budget), \
            "external:" + command[0]

    result, solver = run(config.engine)
    if isinstance(result, sat.Unknown) and config.escalate:
        if config.engine == "internal":
            if config.external_command() is not None:
                result2, solver2 = run("external")
                if not isinstance(result2, sat.Unknown):
                    return result2, solver2
        else:
            result2, solver2 = run("internal")
            if not isinstance(result2, sat.Unknown):
                return result2, solver2
    return result, solver


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def probe(
    n: int,
    d: int,
    k: int,
    j: int,
    r: int,
    config: EngineConfig | None = None,
    *,
    family: TupleFamily | None = None,
) -> ProbeOutcome:
    """Decide whether some r-coloring of [n]^d avoids every j-nondegenerate
    Schur k-tuple. Colorable answers carry a certificate that has already been
    re-verified against the recomputed family."""
    config = config or EngineConfig()
    if family is None:
        family = enumerate_tuples(n, d, k, j)
    elif (family.n, family.d, family.k, family.j) != (n, d, k, j):
        raise InputError("supplied family does not match the probe parameters")
    formula = encode(n, d, k, j, r, family=family,
                     fix_first_point_color=config.symmetry_break and r >= 2)

    t0 = time.monotonic()
    result, solver = _solve_with_config(formula, config)
    wall_ms = int((time.monotonic() - t0) * 1000)
    return _outcome(result, solver, wall_ms, family, r)


def _outcome(
    result: sat.SolveResult,
    solver: str,
    wall_ms: int,
    family: TupleFamily,
    r: int,
    bases: dict[Point, int] | None = None,
) -> ProbeOutcome:
    """Turn a solver answer for the family's box into a probe outcome. A model
    is decoded to a row-major coloring (through bases when it uses a search's
    shell numbering) and must be free of the whole family."""
    if isinstance(result, sat.Unknown):
        return result
    if isinstance(result, sat.Unsat):
        return NotColorable(UnsatRecord(family.n, solver, wall_ms))
    meta = EncodingMeta(family.n, family.d, r, family.k, family.j)
    coloring = decode_model(result.model, meta, bases=bases)
    violation = verify_free(coloring, family)
    if violation is not None:
        raise IntegrityError(
            f"decoded model admits a monochromatic tuple {violation.tuple} "
            f"in color {violation.color}; encoder and solver disagree"
        )
    cert = Certificate(
        family.d, family.j, family.k, r, family.n, coloring,
        Provenance(solver, None, wall_ms, _utc_now()),
    )
    return Colorable(cert)


class _Ascent:
    """One internal engine and one formula that grow shell by shell.

    Variables are numbered by shell (encode_shell), so the formula of [n+1]^d
    is the formula of [n]^d plus the clauses of shell n+1, and the engine that
    decided level n decides level n+1 after those clauses are added. Each
    solve starts afresh except for the clauses, level-0 facts and saved
    phases, so the last level's model seeds the next level's decisions.
    """

    def __init__(self, d: int, k: int, j: int, r: int, config: EngineConfig) -> None:
        self.d, self.k, self.j, self.r = d, k, j, r
        self.config = config
        self.n = 0
        self.bases: dict[Point, int] = {}
        self.tuples: list[SchurTuple] = []
        self.clauses: list[Clause] = []
        self.engine = cdcl.Engine(0, ())

    def _grow(self, n: int) -> None:
        d, r = self.d, self.r
        for s in range(self.n + 1, n + 1):
            points = shell_points(s, d)
            first = len(self.bases)
            for i, p in enumerate(points):
                self.bases[p] = (first + i) * (r - 1)
            shell = enumerate_shell(s, d, self.k, self.j)
            clauses = encode_shell(points, shell, self.bases, r)
            if s == 1 and self.config.symmetry_break and r >= 2:
                clauses.append((self.bases[(1,) * d] + 1,))
            self.engine.add_vars(len(points) * (r - 1))
            self.engine.add_clauses(clauses)
            self.tuples.extend(shell)
            self.clauses.extend(clauses)
        self.n = n

    def probe(self, n: int) -> ProbeOutcome:
        """probe(n, ...) for an n above every level decided so far."""
        if n <= self.n:
            raise InputError(f"ascent is at N={self.n}; cannot probe N={n}")
        self._grow(n)
        t0 = time.monotonic()
        result = sat.solve_engine(self.engine, self.clauses, self.config.budget)
        wall_ms = int((time.monotonic() - t0) * 1000)
        # Shell order rather than enumerate_tuples' order; the same tuples.
        family = TupleFamily(n, self.d, self.k, self.j, tuple(self.tuples))
        return _outcome(result, sat.INTERNAL_SOLVER_NAME, wall_ms, family, self.r,
                        self.bases)


class _ProbeRunner:
    """Bookkeeping for a search: runs probes, records statuses, appends
    ledger rows, and persists certificates."""

    def __init__(
        self,
        d: int,
        k: int,
        j: int,
        r: int,
        config: EngineConfig,
        cert_dir: str | Path | None,
        ledger_path: str | Path | None,
        progress: Callable[[int, str], None] | None,
    ) -> None:
        self.d, self.k, self.j, self.r = d, k, j, r
        self.config = config
        self.cert_dir = Path(cert_dir) if cert_dir else None
        self.ledger_path = Path(ledger_path) if ledger_path else None
        self.progress = progress
        self.statuses: list[tuple[int, str]] = []
        self.best_cert: Certificate | None = None
        self.ascent: _Ascent | None = None

    def run(self, n: int) -> ProbeOutcome:
        t0 = time.monotonic()
        outcome = self._probe(n)
        wall_ms = int((time.monotonic() - t0) * 1000)
        if isinstance(outcome, Colorable):
            status, solver = "colorable", outcome.certificate.provenance.solver
            if self.best_cert is None or outcome.certificate.n > self.best_cert.n:
                self.best_cert = outcome.certificate
            if self.cert_dir is not None:
                save_certificate(outcome.certificate, self.cert_dir)
        elif isinstance(outcome, NotColorable):
            status, solver = "not-colorable", outcome.record.solver
        else:
            status, solver = f"unknown: {outcome.reason}", ""
        self.statuses.append((n, status))
        if self.ledger_path is not None:
            append_ledger_row(
                self.ledger_path,
                {
                    "d": self.d, "j": self.j, "k": self.k, "r": self.r, "n": n,
                    "outcome": status, "solver": solver, "wall_ms": wall_ms,
                },
            )
        if self.progress is not None:
            self.progress(n, status)
        return outcome

    def _probe(self, n: int) -> ProbeOutcome:
        """Levels above the ascent's go to the shared engine; every other
        level (descents, the external engine) and the escalation after an
        Unknown use the per-level probe."""
        config = self.config
        if config.engine != "internal" or (self.ascent is not None and n <= self.ascent.n):
            return probe(n, self.d, self.k, self.j, self.r, config)
        if self.ascent is None:
            self.ascent = _Ascent(self.d, self.k, self.j, self.r, config)
        outcome = self.ascent.probe(n)
        if (isinstance(outcome, sat.Unknown) and config.escalate
                and config.external_command() is not None):
            external = replace(config, engine="external", escalate=False)
            fallback = probe(n, self.d, self.k, self.j, self.r, external)
            if not isinstance(fallback, sat.Unknown):
                return fallback
        return outcome

    def inconclusive(self) -> Inconclusive:
        return Inconclusive(tuple(self.statuses))

    def descend_to_boundary(self, refuted: NotColorable) -> SearchOutcome:
        """Walk downward from a refuted level until a colorable one is found.
        Needed when the very first probe is NotColorable: the exact value may
        sit below the requested starting point."""
        m = refuted.record.n - 1
        while m >= 1:
            outcome = self.run(m)
            if isinstance(outcome, Colorable):
                return Exact(m + 1, outcome.certificate, refuted.record)
            if isinstance(outcome, sat.Unknown):
                return self.inconclusive()
            refuted = outcome
            m -= 1
        raise IntegrityError("[1]^d has an empty tuple family and must be colorable")


def find_schur_number(
    d: int,
    k: int,
    j: int,
    r: int,
    *,
    n_start: int = 2,
    n_max: int | None = None,
    config: EngineConfig | None = None,
    cert_dir: str | Path | None = None,
    ledger_path: str | Path | None = None,
    progress: Callable[[int, str], None] | None = None,
) -> SearchOutcome:
    """Determine the modified Schur number exactly, or bound it.

    Linear ascent from n_start, proving every level on the way.
    The first NotColorable level is the exact value; if the very first probe
    refutes, the walk descends to locate the boundary, so Exact outcomes always
    carry a verified certificate at value-1 and a refutation at value.
    LowerBound(v) means every level through v was proven colorable (the number
    is >= v+1). Any Unknown halts the search as Inconclusive; an Unknown is
    never converted into a bound. With the internal engine, every level above
    the ones decided so far is decided by one shared engine whose formula
    grows shell by shell; each level's model is still checked, decoded and
    verified against the level's whole family.
    """
    if n_start < 1:
        raise InputError(f"n_start must be >= 1, got {n_start}")
    if n_max is not None and n_max < n_start:
        raise InputError(f"n_max={n_max} below n_start={n_start}")
    runner = _ProbeRunner(d, k, j, r, config or EngineConfig(),
                          cert_dir, ledger_path, progress)
    n = n_start
    while n_max is None or n <= n_max:
        outcome = runner.run(n)
        if isinstance(outcome, Colorable):
            n += 1
            continue
        if isinstance(outcome, sat.Unknown):
            return runner.inconclusive()
        if runner.best_cert is not None and runner.best_cert.n == n - 1:
            return Exact(n, runner.best_cert, outcome.record)
        return runner.descend_to_boundary(outcome)
    assert runner.best_cert is not None
    return LowerBound(runner.best_cert.n, runner.best_cert)


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
    """Re-verify a certificate from scratch: recompute the tuple family from
    the stored parameters and check freeness. Returns None when valid, else
    the first violating tuple. Stored provenance is never trusted."""
    family = enumerate_tuples(cert.n, cert.d, cert.k, cert.j)
    return verify_free(cert.coloring, family)


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
    """Write the certificate JSON into the directory; returns the path.

    The file is written under a temporary name in the same directory and then
    renamed over the target, so a crash or a failed write never leaves a
    partial certificate behind (a previous one at the same path survives)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / certificate_filename(cert)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(certificate_to_json(cert), indent=1) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_certificate(path: str | Path) -> Certificate:
    """Parse a certificate file. Structural problems raise ParseError; use
    verify_certificate to judge whether the coloring is actually free."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read certificate {path}: {e}") from None
    try:
        if doc["schema_version"] != CERT_SCHEMA_VERSION:
            raise ParseError(
                f"unsupported certificate schema_version {doc['schema_version']!r}"
            )
        params = doc["params"]
        prov = doc.get("provenance", {})
        coloring = Coloring(
            int(params["n"]), int(params["d"]), int(params["r"]),
            tuple(int(c) for c in doc["colors"]),
        )
        return Certificate(
            d=int(params["d"]),
            j=int(params["j"]),
            k=int(params["k"]),
            r=int(params["r"]),
            n=int(params["n"]),
            coloring=coloring,
            provenance=Provenance(
                solver=str(prov.get("solver", "?")),
                seed=prov.get("seed"),
                wall_ms=int(prov.get("wall_ms", 0)),
                created=str(prov.get("created", "?")),
            ),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
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

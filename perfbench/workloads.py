"""The benchmark workloads: parameters, input set-up, one timed pass each,
and the checks on every answer.

A pass has two timed phases. ``answer`` covers the calls a user makes to get
the answer; ``verify`` covers the re-check of what they returned with the
package's public verification calls. The benchmark's own checks of every
answer run after them, untimed. Every check counts toward
``Checks.attempted``; a check that does not hold counts toward
``Checks.failures``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, ContextManager

import schurlat
from schurlat import solver_cli

SpanFactory = Callable[[str], ContextManager]
ANSWER_ROOT = "bench.answer"
VERIFY_ROOT = "bench.verify"


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


Interval = tuple[float, float]


@dataclass(frozen=True)
class PassTimes:
    """perf_counter start and end of the timed phases of one pass."""

    answer: Interval
    final_probe: Interval
    verify: Interval


# -- search workloads ---------------------------------------------------------

@dataclass(frozen=True)
class SearchSpec:
    """find_schur_number(d, k, j, r, n_max=...) with the default engine config;
    the answer must be ``expect`` with ``value`` after ``probes`` probes."""

    d: int
    k: int
    j: int
    r: int
    n_max: int | None
    expect: str
    value: int
    probes: int

    def setup(self, seed: int, out: Path) -> None:
        # The inputs are the fixed parameters; the seed does not change them.
        pass

    def load(self, inputs: Path) -> SearchSpec:
        return self

    def run_pass(self, loaded: SearchSpec, work: Path, span: SpanFactory,
                 checks: Checks) -> PassTimes:
        return _search_pass(loaded, work, span, checks)


def _search_pass(spec: SearchSpec, work: Path, span: SpanFactory, checks: Checks) -> PassTimes:
    cert_dir = work / "certificates"
    marks: list[float] = []
    with span(ANSWER_ROOT):
        t0 = time.perf_counter()
        outcome = schurlat.find_schur_number(
            spec.d, spec.k, spec.j, spec.r,
            n_max=spec.n_max,
            cert_dir=cert_dir,
            ledger_path=cert_dir / "results.csv",
            progress=lambda n, status: marks.append(time.perf_counter()),
        )
        t1 = time.perf_counter()
    name = type(outcome).__name__
    checks.check(name == spec.expect and getattr(outcome, "value", None) == spec.value,
                 f"answer {name} {getattr(outcome, 'value', '')}, expected "
                 f"{spec.expect} {spec.value}")
    checks.check(len(marks) == spec.probes,
                 f"{len(marks)} probes, expected {spec.probes}")
    final_probe = (marks[-2] if len(marks) > 1 else t0, marks[-1])

    top = spec.value - 1 if spec.expect == "Exact" else spec.value
    with span(VERIFY_ROOT):
        t2 = time.perf_counter()
        levels = []
        for path in sorted(cert_dir.glob("*.cert.json")):
            cert = schurlat.load_certificate(path)
            levels.append(cert.n)
            violation = schurlat.verify_certificate(cert)
            checks.check(violation is None and (cert.d, cert.k, cert.j, cert.r)
                         == (spec.d, spec.k, spec.j, spec.r),
                         f"certificate {path.name} does not verify")
        t3 = time.perf_counter()
    checks.check(sorted(levels) == list(range(2, top + 1)),
                 f"certificates for N={sorted(levels)}, expected 2..{top}")
    with (cert_dir / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = "not-colorable" if spec.expect == "Exact" else "colorable"
    checks.check(len(rows) == spec.probes and rows[-1]["outcome"] == last,
                 f"ledger has {len(rows)} rows ending in "
                 f"{rows[-1]['outcome'] if rows else None!r}")
    shutil.rmtree(cert_dir)
    return PassTimes((t0, t1), final_probe, (t2, t3))


# -- the DIMACS re-check workload -----------------------------------------------

@dataclass(frozen=True)
class Instance:
    d: int
    k: int
    r: int
    n: int
    sat: bool


@dataclass(frozen=True)
class DimacsSpec:
    """Shuffled DIMACS files for ``instances``, decided by the schurlat-solve
    entry point, then witness extraction from random colorings; ``colorings``
    lists (d, r, k, count) batches."""

    instances: tuple[Instance, ...]
    colorings: tuple[tuple[int, int, int, int], ...]

    def setup(self, seed: int, out: Path) -> None:
        _dimacs_setup(self, seed, out)

    def load(self, inputs: Path) -> DimacsInputs:
        return _dimacs_load(inputs)

    def run_pass(self, loaded: DimacsInputs, work: Path, span: SpanFactory,
                 checks: Checks) -> PassTimes:
        return _dimacs_pass(loaded, span, checks)


@dataclass
class CnfInput:
    path: Path
    expect_code: int
    num_clauses: int


@dataclass
class DimacsInputs:
    files: list[CnfInput]
    largest: CnfInput
    colorings: list[tuple[schurlat.Coloring, int]]


def _dimacs_setup(spec: DimacsSpec, seed: int, out: Path) -> None:
    """Encode every instance, shuffle clause and literal order with the seed,
    write the DIMACS files, and draw the random colorings."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for inst in spec.instances:
        formula = schurlat.encode(inst.n, inst.d, inst.k, min(inst.d, inst.k - 1), inst.r)
        clauses = [rng.sample(c, len(c)) for c in formula.clauses]
        rng.shuffle(clauses)
        name = f"d{inst.d}_k{inst.k}_r{inst.r}_N{inst.n}.cnf"
        lines = [f"p cnf {formula.num_vars} {len(clauses)}\n"]
        lines.extend(" ".join(map(str, c)) + " 0\n" for c in clauses)
        (out / name).write_text("".join(lines))
        files.append({"name": name, "expect_code": 10 if inst.sat else 20,
                      "clauses": len(clauses)})
    colorings = []
    for d, r, k, count in spec.colorings:
        n = schurlat.ramsey_number(r, k).lower ** d - 1
        for i in range(count):
            name = f"coloring_d{d}_r{r}_k{k}_{i}.bin"
            (out / name).write_bytes(bytes(rng.choices(range(1, r + 1), k=n**d)))
            colorings.append({"name": name, "n": n, "d": d, "r": r, "k": k})
    (out / "manifest.json").write_text(
        json.dumps({"seed": seed, "files": files, "colorings": colorings}) + "\n")


def falsified_clause(path: Path, positive: set[int]) -> tuple[int, ...] | None:
    """The first clause of the DIMACS file at ``path`` that the assignment
    making exactly the variables in ``positive`` true falsifies, or None.
    Reads the file line by line and keeps no clause list."""
    current: list[int] = []
    with path.open() as fh:
        for line in fh:
            if line.startswith(("c", "p")):
                continue
            for tok in line.split():
                lit = int(tok)
                if lit:
                    current.append(lit)
                    continue
                if not any((abs(x) in positive) == (x > 0) for x in current):
                    return tuple(current)
                current = []
    return None


def _dimacs_load(inputs: Path) -> DimacsInputs:
    manifest = json.loads((inputs / "manifest.json").read_text())
    files = [CnfInput(inputs / f["name"], f["expect_code"], f["clauses"])
             for f in manifest["files"]]
    colorings = [
        (schurlat.Coloring(c["n"], c["d"], c["r"], tuple((inputs / c["name"]).read_bytes())),
         c["k"])
        for c in manifest["colorings"]
    ]
    largest = max(files, key=lambda f: f.num_clauses)
    return DimacsInputs(files, largest, colorings)


def model_from_output(text: str) -> tuple[str | None, set[int]]:
    """The status and the positive literals of the v-lines; variables the
    v-lines leave out are false."""
    status, positive = None, set()
    for line in text.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v "):
            positive.update(lit for lit in map(int, line[2:].split()) if lit > 0)
    return status, positive


def _rank(vectors: list[tuple[int, ...]]) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_witness(chi: schurlat.Coloring, k: int, w) -> bool:
    def color(p: tuple[int, ...]) -> int | None:
        if len(p) != chi.d or not all(1 <= c <= chi.n for c in p):
            return None
        idx = 0
        for c in p:
            idx = idx * chi.n + (c - 1)
        return chi.colors[idx]

    points = list(w.summands) + [w.total]
    return (
        len(w.summands) == k - 1
        and all(color(p) == w.color for p in points)
        and tuple(map(sum, zip(*w.summands))) == tuple(w.total)
        and _rank(list(w.summands[:chi.d])) == chi.d
    )


def _dimacs_pass(inputs: DimacsInputs, span: SpanFactory, checks: Checks) -> PassTimes:
    outputs = []
    with span(ANSWER_ROOT):
        t0 = time.perf_counter()
        for f in inputs.files:
            buf = io.StringIO()
            ts = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = solver_cli.main([str(f.path)])
            if f is inputs.largest:
                final_probe = (ts, time.perf_counter())
            outputs.append((f, code, buf.getvalue()))
        witnesses = [schurlat.extract_schur_witness(chi, k) for chi, k in inputs.colorings]
        t1 = time.perf_counter()

    # The user's re-check with the package's own tools: re-read each file
    # that came back SAT and evaluate the printed model against it.
    with span(VERIFY_ROOT):
        t2 = time.perf_counter()
        for f, code, text in outputs:
            if code != 10:
                continue
            formula = schurlat.read_dimacs(f.path.read_bytes())
            result = schurlat.parse_solver_output(text, formula.num_vars)
            checks.check(isinstance(result, schurlat.Sat)
                         and schurlat.check_model(formula, result.model),
                         f"{f.path.name}: check_model rejects the printed model")
        t3 = time.perf_counter()

    # The benchmark's own checks, independent of the package.
    for f, code, text in outputs:
        status, positive = model_from_output(text)
        if not checks.check(code == f.expect_code,
                            f"{f.path.name}: exit code {code}, expected {f.expect_code}"):
            continue
        if code == 20:
            checks.check(status == "UNSATISFIABLE", f"{f.path.name}: status {status!r}")
            continue
        checks.check(status == "SATISFIABLE" and falsified_clause(f.path, positive) is None,
                     f"{f.path.name}: printed model does not satisfy the formula")
    for (chi, k), w in zip(inputs.colorings, witnesses):
        checks.check(_check_witness(chi, k, w),
                     f"witness {w.summands} -> {w.total} fails its checks")
    return PassTimes((t0, t1), final_probe, (t2, t3))


# -- the registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    full: SearchSpec | DimacsSpec
    smoke: SearchSpec | DimacsSpec


WORKLOADS = {
    w.name: w
    for w in (
        # Solve-bound: most time is the CDCL refutation of N=18.
        Workload(
            "exact-d2r3",
            SearchSpec(2, 3, 2, 3, None, "Exact", 18, 17),
            SearchSpec(2, 3, 2, 2, None, "Exact", 7, 6),
        ),
        # Rebuild-bound: no conflicts; enumeration, encoding and engine
        # construction for every N dominate.
        Workload(
            "ascent-d2r4",
            SearchSpec(2, 3, 2, 4, 24, "LowerBound", 24, 23),
            SearchSpec(2, 3, 2, 3, 8, "LowerBound", 8, 7),
        ),
        # External input: unordered DIMACS through read_dimacs and the
        # engine's sort/dedup, then witness extraction.
        Workload(
            "dimacs-check",
            DimacsSpec(
                (Instance(2, 3, 4, 26, True), Instance(1, 4, 3, 43, False),
                 Instance(2, 3, 3, 14, True), Instance(1, 3, 3, 14, False)),
                ((1, 3, 3, 8), (2, 2, 3, 8), (2, 2, 4, 4)),
            ),
            DimacsSpec(
                (Instance(1, 3, 2, 4, True), Instance(1, 3, 2, 5, False)),
                ((1, 2, 3, 2), (2, 2, 3, 2)),
            ),
        ),
    )
}

"""CNF compilation of coloring-avoidance problems, and model decoding.

One function builds every clause: encode_points numbers the points it is
handed in that order, after the points already numbered, when it is called,
and returns an iterator that builds their clauses as it is read. It gives
the variable "p has color m" (1 <= m <= r-1) the number

    var(p, m) = bases[p] + m,    bases[p] = (position of p) * (r - 1).

A point has color r exactly when all of its r-1 variables are false. A
numbering is therefore just the order in which points are handed over:

- encode (and every file `schurlat encode` writes) hands over [N]^d in
  row-major order, so position = rm(p) - 1 with rm(p) = 1 + sum_t (p_t - 1) *
  N^(d-t), the numbering var_index and var_point_color describe;
- a search hands over one shell at a time, points ordered by their largest
  coordinate and row-major within a shell, so the numbering does not depend
  on N and the formula for N+1 is the formula for N plus the clauses of one
  shell. Every level a search or probe decides uses that numbering, including
  the temporary DIMACS file handed to an external solver. For d = 1 the two
  orders agree. A search streams each shell's clauses from the family walk
  into its engine, so it never holds a shell's tuples or clauses at once;
  encode collects the clauses into its formula.

encode alone names its parameters, in the formula's comment
"schurlat N=<n> d=<d> k=<k> j=<j> r=<r>", which write_dimacs prints as the
first line of the file; a search's formulas and read_dimacs's carry none.

Clause emission order is fixed so byte-identical DIMACS output is reproducible:
at-most-one-color clauses first (points in the order given, color pairs
lexicographic), then per-tuple clauses in family order, each tuple
contributing its r-1 negative clauses (color 1 .. r-1) followed by one
positive clause, then, under color_precedence, the color-precedence units of
the points handed over (point order, then color order). A search always
emits them; `schurlat encode` only under --symmetry-break.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, IntegrityError, shown
from .lattice import (
    Coloring,
    Point,
    _check_box,
    _check_coordinates,
    _points,
    _power_at_most,
    box_points,
    point_from_index,
    point_index,
    shell_points,
)

Clause = tuple[int, ...]


@dataclass(frozen=True)
class CnfFormula:
    """Numbered boolean variables plus clauses (signed variable tuples).

    The empty clause is permitted: it arises only in the degenerate r=1
    encoding of a non-empty tuple family, where the formula is trivially
    unsatisfiable (a 1-coloring cannot avoid anything). A clause may hold a
    literal and its negation, as DIMACS allows; such a clause is always true.
    A comment is one line of ASCII, which write_dimacs prints as a "c" line.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    comment: str | None = None

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise InputError("num_vars must be >= 0")
        text = self.comment
        if text is not None and (len(text.splitlines()) > 1 or not text.isascii()):
            raise InputError(f"comment {shown(text)} is not one line of ASCII")
        n = self.num_vars
        values = set(itertools.chain.from_iterable(self.clauses))
        if values and (0 in values or min(values) < -n or max(values) > n):
            # Name the first bad literal in clause order.
            for clause in self.clauses:
                for lit in clause:
                    if lit == 0 or abs(lit) > n:
                        raise InputError(f"literal {shown(lit)} outside [1, {shown(n)}]")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def var_index(p: Point, m: int, n: int, d: int, r: int) -> int:
    """DIMACS variable number of "point p has color m" in the row-major
    numbering of [n]^d with r colors."""
    _check_box(n, d)
    if not 1 <= m <= r - 1:
        raise InputError(f"color index m={shown(m)} outside [1, {shown(r - 1)}]")
    if len(p) != d:
        raise InputError(f"point {shown(p)} is not {shown(d)}-dimensional")
    return (point_index(p, n) - 1) * (r - 1) + m


def var_point_color(v: int, n: int, d: int, r: int) -> tuple[Point, int]:
    """Inverse of var_index. Like point_from_index, the range check forms no
    power of n above v * n."""
    _check_box(n, d)
    if r >= 2 and v >= 1:
        pm, m = divmod(v - 1, r - 1)
        size = _power_at_most(n, d, pm + 1)
        if size is None or pm < size:
            return point_from_index(pm + 1, n, d), m + 1
    raise InputError(f"variable {shown(v)} outside [1, ({shown(r)} - 1) * "
                     f"{shown(n)}^{shown(d)}]")


def precedence_points(n: int, d: int, r: int) -> list[Point]:
    """p_1, ..., p_{r-1}: the first r-1 points of [n]^d in shell order (shell
    1, then shell 2, and so on, row-major within a shell), fewer when [n]^d
    has fewer points. Color precedence gives p_i one of the last i colors
    r-i+1, ..., r: the units not phi_m(p_i) for m = 1 .. r-i, so (1,...,1)
    has color r.

    The units keep a formula satisfiable exactly when it was before. Relabel
    the colors of any free coloring in order of first appearance along shell
    order: the first color seen becomes r, the next r-1, and so on. A color
    permutation keeps a coloring free, because the tuple family does not
    depend on the colors. The first i points of shell order show at most i
    colors, so after relabelling p_i has one of the last i colors and every
    unit holds. A search therefore refutes the color-reduced formula, and
    that refutation is one of the whole formula.

    The shell order is the search's numbering order and does not depend on
    n, so the units of [n]^d are those of every larger box that lie in
    [n]^d; they favor color r, which the engine's saved phases (all false
    at first) already pick for an undecided point."""
    shells = (p for s in range(1, n + 1) for p in shell_points(s, d))
    return list(itertools.islice(shells, r - 1))


def encode_points(
    points: Sequence[Point],
    point_sets: Iterable[Sequence[Point]],
    bases: dict[Point, int],
    r: int,
    *,
    color_precedence: bool = False,
) -> Iterator[Clause]:
    """The one clause builder. Numbers the given points after those already in
    bases (var(p, m) = bases[p] + m, bases[p] = position * (r-1)) when it is
    called, and returns an iterator over their clauses: their
    at-most-one-color clauses, then r clauses per tuple, then, when asked,
    the color-precedence units (see precedence_points) of the points it
    numbered, in the order the points are handed over.

    point_sets is read only as the iterator is, _BATCH tuples at a time, so
    with a lazy walk (lattice._points) no shell's tuples or clauses are held
    at once. Every point of a tuple must be numbered by the time its clauses
    are pulled; the numbering is done before the first clause is, so a
    caller can size its variables from bases first.

    A tuple is handed over as its distinct points P, in order: its summands
    with repeats dropped, then its total, which is SchurTuple's
    distinct_points(). encode and a search both get these from lattice's
    family walk and build no SchurTuple.

    Distinctness: for each point and each color pair i < m <= r-1, the
    2-clause (not phi_i(p) or not phi_m(p)); none for r <= 2. Tuples: for
    each point set P, one clause (or over p in P of not phi_i(p)) for each i
    in [r-1], plus one positive clause (or over i, p of phi_i(p)) forbidding
    "all of P has color r". The units come last, so that an engine adding
    this call's clauses at level 0 keeps the tuple clauses whole; with r = 1
    there are none.

    Each numbered point's r-1 positive and r-1 negative literals are built
    once per call; a tuple's negative clauses are those tuples zipped over
    its points and its positive clause is their concatenation, so clauses
    share literal objects instead of each allocating its own.
    """
    for p in points:
        bases[p] = len(bases) * (r - 1)
    colors = range(1, r)
    pos = {p: tuple(b + i for i in colors) for p, b in bases.items()}
    neg = {p: tuple(-(b + i) for i in colors) for p, b in bases.items()}

    def batches() -> Iterator[Iterable[Clause]]:
        # A shell's tuple clauses come in lists of _BATCH tuples' clauses, so
        # a reader steps through them in C and resumes this generator once
        # per batch, not once per clause.
        for p in points:
            yield itertools.combinations(neg[p], 2)
        tuples = iter(point_sets)
        while True:
            clauses: list[Clause] = []
            for distinct in itertools.islice(tuples, _BATCH):
                clauses.extend(zip(*[neg[p] for p in distinct]))
                clauses.append(tuple(itertools.chain.from_iterable([pos[p] for p in distinct])))
            if not clauses:
                break
            yield clauses
        if color_precedence and points:
            first = precedence_points(max(map(max, points)), len(points[0]), r)
            place = {p: i for i, p in enumerate(first, 1)}
            for p in points:
                if p in place:
                    yield [(lit,) for lit in neg[p][:r - place[p]]]

    return itertools.chain.from_iterable(batches())


# The tuples whose clauses encode_points builds into one list.
_BATCH = 256


def encode(
    n: int,
    d: int,
    k: int,
    j: int,
    r: int,
    *,
    color_precedence: bool = False,
) -> CnfFormula:
    """Compile "some r-coloring of [n]^d avoids every j-nondegenerate Schur
    k-tuple" to CNF in row-major numbering. Satisfiable iff such a free
    coloring exists.

    color_precedence appends the color-precedence units (see
    precedence_points), so the formula is the one a search decides,
    renumbered; it is NOT part of the default encoding, and it needs r >= 2.
    Golden files cover the default only. A box whose points hold more than
    SIZE_CEILING coordinates in all is refused (SizeError) before any point
    is built.
    """
    if r < 1:
        raise InputError(f"need r >= 1, got r={shown(r)}")
    if color_precedence and r < 2:
        raise InputError("symmetry breaking needs r >= 2 (no variables otherwise)")
    _check_coordinates(n, d, shell=False)
    point_sets = _points(box_points(n, d), d, k, j)
    clauses = encode_points(list(box_points(n, d)), point_sets, {}, r,
                            color_precedence=color_precedence)
    return CnfFormula((r - 1) * n**d, tuple(clauses),
                      f"schurlat N={n} d={d} k={k} j={j} r={r}")


def decode_model(
    assignment: Mapping[int, bool],
    n: int,
    d: int,
    r: int,
    *,
    bases: Mapping[Point, int] | None = None,
) -> Coloring:
    """Read a satisfying assignment back into a row-major coloring: the color
    of p is the unique m with phi_m(p) true, or r if all are false.

    bases gives each point's variable offset when the assignment uses a
    search's shell numbering (see encode_points) instead of row-major. An n,
    d or r below 1 is refused (InputError), as box_points and Coloring do."""
    colors = []
    for pm, p in enumerate(box_points(n, d)):
        base = pm * (r - 1) if bases is None else bases[p]
        color = r
        for m in range(1, r):
            try:
                value = assignment[base + m]
            except KeyError:
                raise InputError(f"assignment missing variable {base + m}") from None
            if value:
                if color != r:
                    raise IntegrityError(
                        f"point {p} has two colors ({color} and {m}); "
                        f"distinctness violated"
                    )
                color = m
        colors.append(color)
    return Coloring(n, d, r, tuple(colors))


def coloring_to_assignment(coloring: Coloring) -> dict[int, bool]:
    """The assignment phi_m(p) := (coloring(p) == m) in row-major numbering;
    inverse of decode_model."""
    r = coloring.r
    out: dict[int, bool] = {}
    for pm, color in enumerate(coloring.colors):
        base = pm * (r - 1)
        for m in range(1, r):
            out[base + m] = color == m
    return out

"""CNF compilation of coloring-avoidance problems, and model decoding.

One function builds every clause: encode_points numbers the points it is
handed in that order, after the points already numbered, giving the variable
"p has color m" (1 <= m <= r-1) the number

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
  orders agree.

Clause emission order is fixed so byte-identical DIMACS output is reproducible:
at-most-one-color clauses first (points in the order given, color pairs
lexicographic), then per-tuple clauses in family order, each tuple
contributing its r-1 negative clauses (color 1 .. r-1) followed by one
positive clause, then the optional symmetry-breaking unit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputError, IntegrityError, shown
from .lattice import (
    Coloring,
    Point,
    SchurTuple,
    box_points,
    enumerate_tuples,
    point_from_index,
    point_index,
)

Clause = tuple[int, ...]


@dataclass(frozen=True)
class EncodingMeta:
    """The (N, d, r) variable-mapping parameters, plus (k, j) provenance."""

    n: int
    d: int
    r: int
    k: int | None = None
    j: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1 or self.r < 1:
            raise InputError(f"bad encoding parameters n={shown(self.n)} "
                             f"d={shown(self.d)} r={shown(self.r)}")

    @property
    def num_points(self) -> int:
        return self.n**self.d

    @property
    def num_vars(self) -> int:
        return (self.r - 1) * self.num_points


@dataclass(frozen=True)
class CnfFormula:
    """Numbered boolean variables plus clauses (signed variable tuples).

    The empty clause is permitted: it arises only in the degenerate r=1
    encoding of a non-empty tuple family, where the formula is trivially
    unsatisfiable (a 1-coloring cannot avoid anything). A clause may hold a
    literal and its negation, as DIMACS allows; such a clause is always true.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    meta: EncodingMeta | None = None

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise InputError("num_vars must be >= 0")
        n = self.num_vars
        values = set(itertools.chain.from_iterable(self.clauses))
        if values and (0 in values or min(values) < -n or max(values) > n):
            # Name the first bad literal in clause order.
            for clause in self.clauses:
                for lit in clause:
                    if lit == 0 or abs(lit) > n:
                        raise InputError(f"literal {lit} outside [1, {n}]")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def var_index(p: Point, m: int, meta: EncodingMeta) -> int:
    """DIMACS variable number of "point p has color m"."""
    if not 1 <= m <= meta.r - 1:
        raise InputError(f"color index m={m} outside [1, {meta.r - 1}]")
    if len(p) != meta.d:
        raise InputError(f"point {p} is not {meta.d}-dimensional")
    return (point_index(p, meta.n) - 1) * (meta.r - 1) + m


def var_point_color(v: int, meta: EncodingMeta) -> tuple[Point, int]:
    """Inverse of var_index."""
    if not 1 <= v <= meta.num_vars:
        raise InputError(f"variable {v} outside [1, {meta.num_vars}]")
    pm, m = divmod(v - 1, meta.r - 1)
    return point_from_index(pm + 1, meta.n, meta.d), m + 1


def encode_points(
    points: Sequence[Point],
    tuples: Iterable[SchurTuple],
    bases: dict[Point, int],
    r: int,
    *,
    fix_first_point_color: bool = False,
) -> list[Clause]:
    """The one clause builder. Numbers the given points after those already in
    bases (var(p, m) = bases[p] + m, bases[p] = position * (r-1)), then emits
    their at-most-one-color clauses, then r clauses per tuple, then, when asked
    and (1,...,1) is among the points, the unit phi_1((1,...,1)).

    Distinctness: for each point and each color pair i < m <= r-1, the
    2-clause (not phi_i(p) or not phi_m(p)); none for r <= 2. Tuples: for a
    tuple with distinct point set P, one clause (or over p in P of not
    phi_i(p)) for each i in [r-1], plus one positive clause (or over i, p of
    phi_i(p)) forbidding "all of P has color r". Every point of a tuple must
    be numbered by then. The unit is a sound symmetry-breaking extension
    (colors are interchangeable) and needs r >= 2.

    Each numbered point's r-1 positive and r-1 negative literals are built
    once per call; a tuple's negative clauses are those tuples zipped over
    its points and its positive clause is their concatenation, so clauses
    share literal objects instead of each allocating its own.
    """
    if fix_first_point_color and r < 2:
        raise InputError("symmetry breaking needs r >= 2 (no variables otherwise)")
    for p in points:
        bases[p] = len(bases) * (r - 1)
    colors = range(1, r)
    pos = {p: tuple(b + i for i in colors) for p, b in bases.items()}
    neg = {p: tuple(-(b + i) for i in colors) for p, b in bases.items()}
    clauses: list[Clause] = []
    for p in points:
        clauses.extend(itertools.combinations(neg[p], 2))
    for t in tuples:
        distinct = t.distinct_points()
        clauses.extend(zip(*[neg[p] for p in distinct]))
        clauses.append(tuple(itertools.chain.from_iterable([pos[p] for p in distinct])))
    if fix_first_point_color and points:
        origin = (1,) * len(points[0])
        if origin in points:
            clauses.append((pos[origin][0],))
    return clauses


def encode(
    n: int,
    d: int,
    k: int,
    j: int,
    r: int,
    *,
    fix_first_point_color: bool = False,
) -> CnfFormula:
    """Compile "some r-coloring of [n]^d avoids every j-nondegenerate Schur
    k-tuple" to CNF in row-major numbering. Satisfiable iff such a free
    coloring exists.

    fix_first_point_color appends the unit clause phi_1((1,...,1)) — a sound
    symmetry-breaking extension (colors are interchangeable), NOT part of the
    default encoding; golden files cover the default only.
    """
    if r < 1:
        raise InputError(f"need r >= 1, got r={r}")
    tuples = enumerate_tuples(n, d, k, j)
    meta = EncodingMeta(n, d, r, k, j)
    clauses = encode_points(list(box_points(n, d)), tuples, {}, r,
                            fix_first_point_color=fix_first_point_color)
    return CnfFormula(meta.num_vars, tuple(clauses), meta)


def decode_model(
    assignment: Mapping[int, bool],
    meta: EncodingMeta,
    *,
    bases: Mapping[Point, int] | None = None,
) -> Coloring:
    """Read a satisfying assignment back into a row-major coloring: the color
    of p is the unique m with phi_m(p) true, or r if all are false.

    bases gives each point's variable offset when the assignment uses a
    search's shell numbering (see encode_points) instead of row-major."""
    r = meta.r
    colors = []
    for pm, p in enumerate(box_points(meta.n, meta.d)):
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
    return Coloring(meta.n, meta.d, meta.r, tuple(colors))


def coloring_to_assignment(coloring: Coloring, meta: EncodingMeta) -> dict[int, bool]:
    """The assignment phi_m(p) := (coloring(p) == m); inverse of decode_model."""
    if (coloring.n, coloring.d, coloring.r) != (meta.n, meta.d, meta.r):
        raise InputError("coloring does not match encoding parameters")
    out: dict[int, bool] = {}
    for pm, color in enumerate(coloring.colors):
        base = pm * (meta.r - 1)
        for m in range(1, meta.r):
            out[base + m] = color == m
    return out

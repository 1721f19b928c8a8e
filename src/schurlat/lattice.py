"""Lattice domain types, exact integer linear algebra, and the Schur tuple family.

Points of the box [N]^d are plain tuples of ints, each coordinate in [1, N].
All arithmetic is exact (Python integers); no floating point is used anywhere.

The row-major point indexing convention shared by every module lives here:
``point_index`` maps a point to its 1-based position when the box is listed
in lexicographic order (last coordinate varying fastest).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, shown

Point = tuple[int, ...]


def box_points(n: int, d: int) -> Iterator[Point]:
    """All points of [n]^d in row-major (lexicographic) order."""
    if n < 1 or d < 1:
        raise InputError(f"box requires n >= 1 and d >= 1, got n={n} d={d}")
    return itertools.product(range(1, n + 1), repeat=d)


def point_index(p: Point, n: int) -> int:
    """1-based row-major index of p in [n]^d; the last coordinate varies fastest."""
    idx = 0
    for c in p:
        if not 1 <= c <= n:
            raise InputError(f"coordinate {c} of {p} outside [1, {n}]")
        idx = idx * n + (c - 1)
    return idx + 1


def point_from_index(idx: int, n: int, d: int) -> Point:
    """Inverse of point_index."""
    if not 1 <= idx <= n**d:
        raise InputError(f"index {idx} outside [1, {n}^{d}]")
    rem = idx - 1
    coords = []
    for _ in range(d):
        rem, c = divmod(rem, n)
        coords.append(c + 1)
    return tuple(reversed(coords))


def vector_sum(points: Sequence[Point]) -> Point:
    return tuple(map(sum, zip(*points)))


# -- exact linear algebra ----------------------------------------------------

def _bareiss(vectors: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of a list of integer vectors: their
    rank over the rationals and the last pivot, signed by the row swaps.

    Every intermediate value is an exact integer. For a square matrix of full
    rank the signed last pivot is the determinant. The empty list gives (0, 1).
    """
    if not vectors:
        return 0, 1
    dim = len(vectors[0])
    if dim < 1:
        raise InputError("vectors must have dimension >= 1")
    for v in vectors:
        if len(v) != dim:
            raise InputError("vectors have mismatched dimensions")
    m = list(map(list, vectors))
    rows = len(m)
    r = 0
    prev = 1
    sign = 1
    for c in range(dim):
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        pivot_row = m[r]
        pivot = pivot_row[c]
        for i in range(r + 1, rows):
            row = m[i]
            lead = row[c]
            for cc in range(c + 1, dim):
                row[cc] = (row[cc] * pivot - lead * pivot_row[cc]) // prev
            row[c] = 0
        prev = pivot
        r += 1
        if r == rows:
            break
    return r, sign * prev


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a list of integer vectors, by Bareiss
    elimination. The empty list has rank 0."""
    return _bareiss(vectors)[0]


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix via Bareiss elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("matrix is not square")
    r, pivot = _bareiss(matrix)
    return pivot if r == n else 0


def is_j_nondegenerate(summands: Sequence[Point], j: int) -> bool:
    """True iff the summands contain j linearly independent vectors.

    Equivalent to rank(summands) >= j, which holds iff some j-element subset
    is independent; subsets never need to be enumerated.
    """
    if not summands:
        raise InputError("summands must be non-empty")
    d = len(summands[0])
    if not 1 <= j <= min(d, len(summands)):
        raise InputError(
            f"j={j} outside [1, min(d={d}, {len(summands)} summands)]"
        )
    return rank(summands) >= j


# -- domain types ------------------------------------------------------------

@dataclass(frozen=True)
class SchurTuple:
    """A canonical solution instance: sorted summands plus their componentwise sum."""

    summands: tuple[Point, ...]
    total: Point

    def __post_init__(self) -> None:
        summands = self.summands
        if vector_sum(summands) != self.total:
            raise InputError(f"summands {summands} do not sum to {self.total}")
        if any(map(operator.gt, summands, summands[1:])):
            raise InputError("summands must be sorted lexicographically")

    def distinct_points(self) -> tuple[Point, ...]:
        return tuple(sorted({*self.summands, self.total}))


@dataclass(frozen=True)
class Coloring:
    """A total assignment [n]^d -> {1, ..., r}, stored row-major."""

    n: int
    d: int
    r: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1 or self.r < 1:
            raise InputError(f"bad coloring parameters n={shown(self.n)} "
                             f"d={shown(self.d)} r={shown(self.r)}")
        size = len(self.colors)
        # With n >= 2, d > size.bit_length() means n**d > size: no power is built.
        if self.n > 1 and self.d > size.bit_length() or size != self.n**self.d:
            raise InputError(
                f"coloring has {size} entries, expected {shown(self.n)}^{shown(self.d)}"
            )
        bad = next((c for c in self.colors if not 1 <= c <= self.r), None)
        if bad is not None:
            raise InputError(f"color {shown(bad)} outside [1, {shown(self.r)}]")

    def color_of(self, p: Point) -> int:
        return self.colors[point_index(p, self.n) - 1]

    @classmethod
    def from_function(cls, n: int, d: int, r: int, fn: Callable[[Point], int]) -> "Coloring":
        return cls(n, d, r, tuple(fn(p) for p in box_points(n, d)))

    @classmethod
    def constant(cls, n: int, d: int, r: int, color: int = 1) -> "Coloring":
        return cls(n, d, r, (color,) * n**d)


@dataclass(frozen=True)
class Violation:
    """A monochromatic tuple found in a coloring, with the shared color."""

    tuple: SchurTuple
    color: int


# -- the tuple family --------------------------------------------------------

def shell_points(s: int, d: int) -> list[Point]:
    """The points of [s]^d whose largest coordinate is s, in row-major order.

    Shell s is what [s-1]^d gains to become [s]^d; shell 1 is the single
    point (1, ..., 1). The shells 1..n partition [n]^d.
    """
    return [p for p in box_points(s, d) if max(p) == s]


def _check_family_params(d: int, k: int, j: int) -> None:
    if k < 3:
        raise InputError(f"need k >= 3, got k={shown(k)}")
    if not 1 <= j <= min(d, k - 1):
        raise InputError(f"j={shown(j)} outside [1, min(d={shown(d)}, "
                         f"k-1={shown(k - 1)})]")


def _split_total(
    total: Point, k: int, j: int, found: list[SchurTuple],
    color_of: Mapping[Point, int] | None = None,
) -> None:
    """Append the j-nondegenerate tuples with this total to found, in summand order.

    The total is split into k-1 non-decreasing summands, smallest summand
    first, so the work is proportional to the tuples found rather than to the
    box. Given color_of, only summands of the total's color are tried, so
    only monochromatic tuples are built. The recursion is the module-level
    _split, not a closure that refers to itself, so a call leaves no
    reference cycle behind for the cyclic garbage collector.
    """
    if min(total) < k - 1:
        return
    color = color_of[total] if color_of is not None else None
    _split(found, total, (), total, k - 1, j, color_of, color)


def _split(
    found: list[SchurTuple], total: Point, chosen: tuple[Point, ...], rest: Point,
    m: int, j: int, color_of: Mapping[Point, int] | None, color: int | None,
) -> None:
    """Split rest into m >= 2 summands, each lexicographically >= the last of
    chosen, and append the tuples chosen + summands that pass the color and
    rank tests. The last two summands are found in one loop."""
    last = chosen[-1] if chosen else None
    # Each of the m summands left is at least 1 per coordinate, and the m-1
    # after x are lexicographically >= x, so m * x[0] <= rest[0].
    ranges = [range(1, c - m + 2) for c in rest]
    ranges[0] = range(last[0] if last else 1, rest[0] // m + 1)
    for x in itertools.product(*ranges):
        if last is not None and x < last:
            continue
        if color is not None and color_of[x] != color:
            continue
        y = tuple(map(operator.sub, rest, x))
        if m > 2:
            _split(found, total, (*chosen, x), y, m - 1, j, color_of, color)
        elif y >= x and (color is None or color_of[y] == color):
            summands = (*chosen, x, y)
            if rank(summands) >= j:
                found.append(SchurTuple(summands, total))


def _family(totals: Iterable[Point], d: int, k: int, j: int) -> tuple[SchurTuple, ...]:
    """The j-nondegenerate Schur k-tuples whose total is one of totals, in the
    order of the totals and then of the summands."""
    _check_family_params(d, k, j)
    found: list[SchurTuple] = []
    for total in totals:
        _split_total(total, k, j, found)
    return tuple(found)


def enumerate_shell(s: int, d: int, k: int, j: int) -> tuple[SchurTuple, ...]:
    """The j-nondegenerate Schur k-tuples whose total lies in shell s.

    A summand is dominated by the total, so these are exactly the tuples of
    [s]^d that are not tuples of [s-1]^d: the family of [n]^d is the disjoint
    union of the shells 1..n. Order: lexicographic on (total, summands).
    """
    return _family(shell_points(s, d), d, k, j)


def enumerate_tuples(n: int, d: int, k: int, j: int) -> tuple[SchurTuple, ...]:
    """Enumerate every canonical j-nondegenerate Schur k-tuple in [n]^d.

    A tuple is a non-decreasing multiset of k-1 summand points whose
    componentwise sum stays inside the box and whose summands have rank >= j.
    Repeated summands (e.g. x + x = z) are permitted.
    Output order is deterministic: lexicographic on (total, summands), which
    is the order of the row-major walk over the totals.
    """
    return _family(box_points(n, d), d, k, j)


def verify_free(coloring: Coloring, tuples: Iterable[SchurTuple]) -> Violation | None:
    """Return None if no tuple is monochromatic under the coloring, else the
    first violating tuple (in the order given) with its color. A tuple with a
    point outside the coloring's box raises InputError."""
    color_of = dict(zip(box_points(coloring.n, coloring.d), coloring.colors))
    try:
        for t in tuples:
            c0 = color_of[t.summands[0]]
            if color_of[t.total] != c0:
                continue
            if all(color_of[p] == c0 for p in t.summands[1:]):
                return Violation(t, c0)
    except KeyError as e:
        raise InputError(
            f"tuple point {e.args[0]} outside [{coloring.n}]^{coloring.d}"
        ) from None
    return None


def first_violation(coloring: Coloring, k: int, j: int) -> Violation | None:
    """What verify_free(coloring, enumerate_tuples(n, d, k, j)) returns, for
    the coloring's box [n]^d, without building the family.

    Each total, in row-major order, is split only into summands of its own
    color, so a tuple is built only when it is monochromatic and a free
    coloring builds none. Family order is the order of the totals and then of
    the summands, so the first tuple found is the first violation.

    Every coordinate of a total is at least k-1, so a box with n < k-1 has
    no tuple: it is free whatever its d, and no point is built.
    """
    _check_family_params(coloring.d, k, j)
    if coloring.n < k - 1:
        return None
    color_of = dict(zip(box_points(coloring.n, coloring.d), coloring.colors))
    for total, color in color_of.items():
        found: list[SchurTuple] = []
        _split_total(total, k, j, found, color_of)
        if found:
            return Violation(found[0], color)
    return None


# -- dimension lifting (monotonicity in d) -----------------------------------

def induced_coloring(chi: Coloring) -> Coloring:
    """Restrict a coloring of [n]^(d+1) to [n]^d by duplicating the last coordinate:
    the induced color of (n_1, ..., n_d) is chi(n_1, ..., n_d, n_d)."""
    if chi.d < 2:
        raise InputError("induced coloring needs dimension >= 2")
    return Coloring.from_function(
        chi.n, chi.d - 1, chi.r, lambda p: chi.color_of(p + (p[-1],))
    )


def lift_solution(
    summands: Sequence[Point], total: Point
) -> tuple[tuple[Point, ...], Point]:
    """Lift a solution of the Schur equation from dimension d to d+1 by the
    map x -> (x_1, ..., x_d, x_d). Preserves the equation and the rank."""
    if vector_sum(summands) != total:
        raise InputError(f"summands {tuple(summands)} do not sum to {total}")
    lifted = tuple(p + (p[-1],) for p in summands)
    return lifted, total + (total[-1],)

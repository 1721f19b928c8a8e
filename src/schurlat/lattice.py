"""Lattice domain types, exact integer linear algebra, and the Schur tuple family.

Points of the box [N]^d are plain tuples of ints, each coordinate in [1, N].
All arithmetic is exact (Python integers); no floating point is used anywhere.

The row-major point indexing convention shared by every module lives here:
``point_index`` maps a point to its 1-based position when the box is listed
in lexicographic order (last coordinate varying fastest).

One splitter (_split) defines the tuple family, and one lazy walk (_family)
splits the totals one at a time and yields (summands, total) pairs. Only
enumerate_tuples, and first_violation for the violation it returns, build
SchurTuple, which re-checks the sum and the order. encode and a search read
each tuple as its distinct points (_points), as the clauses are built, and
build no SchurTuple. The splitter's rank test (_rank_at_least) runs Bareiss
elimination only for j >= 3.

first_violation, which checks every certificate and every model a search
finds, decides k = 3 up to d = 5 by one row-major scan of sums over
color-class bitsets (_sum_violation), not by the splitter, so a fault in the
family the formula was built from cannot make a wrong coloring pass; k >= 4,
d >= 6 and a box too large for the bitsets take the walk.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, SizeError, shown

Point = tuple[int, ...]
# brute_force_oracle tries at most this many colorings, `schurlat witness
# --random-seed` and Coloring.constant color at most this many points,
# render_ppm draws at most this many pixels, and the points of a shell a
# search grows, or of a box encode numbers, hold at most this many
# coordinates in all.
SIZE_CEILING = 1 << 24


def _power_at_most(base: int, exp: int, cap: int) -> int | None:
    """base**exp for base >= 1, exp >= 0 when it is at most cap, else None;
    no partial product exceeds cap * base."""
    if base == 1:
        return 1
    value = 1
    for _ in range(exp):
        value *= base
        if value > cap:
            return None
    return value


def box_points(n: int, d: int) -> Iterator[Point]:
    """All points of [n]^d in row-major (lexicographic) order."""
    _check_box(n, d)
    return itertools.product(range(1, n + 1), repeat=d)


def _check_box(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise InputError(f"box requires n >= 1 and d >= 1, "
                         f"got n={shown(n)} d={shown(d)}")


def _check_coordinates(n: int, d: int, *, shell: bool) -> None:
    """Refuse, with SizeError, the points of [n]^d, or with shell those of its
    shell n, when they hold more than SIZE_CEILING coordinates in all: d * n^d
    or d * (n^d - (n-1)^d). A shell has at least n^(d-1) points, so no power
    above SIZE_CEILING * n is formed."""
    _check_box(n, d)
    low = _power_at_most(n, d - 1, SIZE_CEILING)
    npoints = None if low is None else n**d - (n - 1)**d if shell else low * n
    if npoints is None or d * npoints > SIZE_CEILING:
        what = (f"shell {shown(n)} of " if shell else "") + f"[{shown(n)}]^{shown(d)}"
        raise SizeError(f"the points of {what} hold more than {SIZE_CEILING} "
                        f"coordinates")


def point_index(p: Point, n: int) -> int:
    """1-based row-major index of p in [n]^d; the last coordinate varies fastest."""
    idx = 0
    for c in p:
        if not 1 <= c <= n:
            raise InputError(
                f"coordinate {shown(c)} of {shown(p)} outside [1, {shown(n)}]")
        idx = idx * n + (c - 1)
    return idx + 1


def point_from_index(idx: int, n: int, d: int) -> Point:
    """Inverse of point_index. The range check forms no power of n above
    idx * n (_power_at_most), so a refusal costs nothing however large d is."""
    _check_box(n, d)
    size = _power_at_most(n, d, idx) if idx >= 1 else 0
    if size is not None and not 1 <= idx <= size:
        raise InputError(f"index {shown(idx)} outside [1, {shown(n)}^{shown(d)}]")
    return tuple(c + 1 for c in _point_of(idx - 1, n, d))


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
            f"j={shown(j)} outside [1, min(d={d}, {len(summands)} summands)]"
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
            raise InputError(f"summands {shown(summands)} do not sum to "
                             f"{shown(self.total)}")
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
        if _power_at_most(self.n, self.d, size) != size:
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
        """Every point colored `color`. More than SIZE_CEILING points is
        refused (SizeError) before the colors are built; for n or d below 1
        no color is built, and the constructor refuses the parameters."""
        size = _power_at_most(n, d, SIZE_CEILING) if min(n, d) >= 1 else 0
        if size is None:
            raise SizeError(f"[{shown(n)}]^{shown(d)} has more than {SIZE_CEILING} points")
        return cls(n, d, r, (color,) * size)


@dataclass(frozen=True)
class Violation:
    """A monochromatic tuple found in a coloring, with the shared color."""

    tuple: SchurTuple
    color: int


# -- the tuple family --------------------------------------------------------

def shell_points(s: int, d: int) -> list[Point]:
    """The points of [s]^d whose largest coordinate is s, in row-major order.

    Shell s is what [s-1]^d gains to become [s]^d; shell 1 is the single
    point (1, ..., 1). The shells 1..n partition [n]^d. A shell whose points
    hold more than SIZE_CEILING coordinates in all is refused (SizeError).
    """
    _check_coordinates(s, d, shell=True)
    return [p for p in box_points(s, d) if max(p) == s]


def _family_floor(d: int, k: int, j: int) -> int:
    """Check (d, k, j) and return the largest n whose family in [n]^d is empty.
    Each of the k-1 summands is >= 1 per coordinate, so a total's are >= k-1,
    and (k-1, ..., k-1) is only the sum of k-1 copies of (1, ..., 1), which
    have rank 1: the family starts at n = k-1 for j = 1, at n = k for j >= 2."""
    if k < 3:
        raise InputError(f"need k >= 3, got k={shown(k)}")
    if not 1 <= j <= min(d, k - 1):
        raise InputError(f"j={shown(j)} outside [1, min(d={shown(d)}, "
                         f"k-1={shown(k - 1)})]")
    return k - 2 if j == 1 else k - 1


def _split(
    found: list[tuple[Point, ...]], chosen: tuple[Point, ...], rest: Point,
    m: int, j: int, color_of: Mapping[Point, int] | None, color: int | None,
) -> None:
    """Split rest into m >= 2 summands, each lexicographically >= the last of
    chosen, and append the summand tuples chosen + summands that pass the
    color and rank tests. The last two summands are found in one loop. The
    recursion is module-level, not a closure that refers to itself, so a call
    leaves no reference cycle behind (test_splitting_leaves_no_cyclic_garbage).
    """
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
            _split(found, (*chosen, x), y, m - 1, j, color_of, color)
        elif y >= x and (color is None or color_of[y] == color):
            summands = (*chosen, x, y)
            if _rank_at_least(summands, j):
                found.append(summands)


def _rank_at_least(summands: Sequence[Point], j: int) -> bool:
    """rank(summands) >= j, for summands whose coordinates are all >= 1.

    One nonzero vector has rank 1, so j = 1 always holds. For j = 2 the
    first summand u is a nonzero vector with u[0] as a pivot, and v is
    parallel to u iff every 2x2 minor u[0] * v[i] - u[i] * v[0] is zero; so
    the rank is >= 2 iff one minor of one later summand is nonzero. Only
    j >= 3 runs Bareiss elimination.
    """
    if j == 1:
        return True
    if j == 2:
        u = summands[0]
        u0 = u[0]
        for v in summands[1:]:
            v0 = v[0]
            for ui, vi in zip(u, v):
                if u0 * vi != ui * v0:
                    return True
        return False
    return rank(summands) >= j


def _family(totals: Iterable[Point], k: int, j: int, color_of: Mapping[Point, int] | None = None
            ) -> Iterator[tuple[tuple[Point, ...], Point]]:
    """Yield, one total at a time, the (summands, total) pairs of the
    j-nondegenerate Schur k-tuples whose total is one of totals, in the order
    of the totals and then of the summands; callers check (d, k, j). Each
    total is split into k-1 non-decreasing summands, smallest first, so the
    work is proportional to the tuples found, not to the box; given color_of,
    only into summands of the total's color."""
    for total in totals:
        found: list[tuple[Point, ...]] = []
        color = None if color_of is None else color_of[total]
        _split(found, (), total, k - 1, j, color_of, color)
        yield from zip(found, itertools.repeat(total))


def _points(totals: Iterable[Point], d: int, k: int, j: int) -> Iterator[tuple[Point, ...]]:
    """Check (d, k, j) at once, then yield each tuple of _family(totals) as
    its distinct points: its summands without repeats, then its total. That
    is SchurTuple.distinct_points(), since the total's first coordinate
    exceeds every summand's, but no SchurTuple is built."""
    _family_floor(d, k, j)
    return ((*dict.fromkeys(summands), total) for summands, total in _family(totals, k, j))


def enumerate_shell(s: int, d: int, k: int, j: int) -> list[tuple[Point, ...]]:
    """The _points of the tuples whose total lies in shell s.

    A summand is dominated by the total, so these are exactly the tuples of
    [s]^d that are not tuples of [s-1]^d: the family of [n]^d is the disjoint
    union of the shells 1..n. Order: that of enumerate_tuples, lexicographic
    on (total, summands). A search reads the same walk lazily and keeps no
    such list; this one is the reference the tests compare shells against.
    """
    return list(_points(shell_points(s, d), d, k, j))


def enumerate_tuples(n: int, d: int, k: int, j: int) -> tuple[SchurTuple, ...]:
    """Enumerate every canonical j-nondegenerate Schur k-tuple in [n]^d.

    A tuple is a non-decreasing multiset of k-1 summand points whose
    componentwise sum stays inside the box and whose summands have rank >= j.
    Repeated summands (e.g. x + x = z) are permitted.
    Output order is deterministic: lexicographic on (total, summands), which
    is the order of the row-major walk over the totals.
    """
    totals = box_points(n, d)
    _family_floor(d, k, j)
    return tuple(itertools.starmap(SchurTuple, _family(totals, k, j)))


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
        raise InputError(f"tuple point {shown(e.args[0])} outside "
                         f"[{shown(coloring.n)}]^{shown(coloring.d)}") from None
    return None


# The sum test's ints hold at most (2n+1)^d bits; a box with more takes the
# family walk, so no int of the test grows past this many bits (128 KiB).
_SUM_TEST_BITS = 1 << 20


def first_violation(coloring: Coloring, k: int, j: int) -> Violation | None:
    """What verify_free(coloring, enumerate_tuples(n, d, k, j)) returns, for
    the coloring's box [n]^d, without building the family.

    For k = 3 the sum test (_sum_violation) decides, without the splitter,
    when d <= 5 and its ints stay within _SUM_TEST_BITS bits. Those ints
    hold (2n+1)^d bits for n^d points, over 2^d bits a point, so from d = 6
    on the walk is the faster. Otherwise _family splits each total, in
    row-major order, only into summands of its own color, and family order
    is the order of the totals and then of the summands, so the first tuple
    found is the first violation. Either way a SchurTuple is built only for
    a monochromatic tuple, and a free coloring builds none.

    A box no larger than the family's floor (_family_floor) has no tuple: it
    is free whatever its d, and no point is built.
    """
    n, d = coloring.n, coloring.d
    if n <= _family_floor(d, k, j):
        return None
    if k == 3 and d <= 5 and _power_at_most(2 * n + 1, d, _SUM_TEST_BITS) is not None:
        return _sum_violation(coloring, j)
    color_of = dict(zip(box_points(n, d), coloring.colors))
    for summands, total in _family(color_of, k, j, color_of):
        return Violation(SchurTuple(summands, total), color_of[total])
    return None


def _sum_violation(coloring: Coloring, j: int) -> Violation | None:
    """first_violation for k = 3 (j = 1 or 2), by sums of bitsets.

    A point p is the bit e(p) = sum_i p_i (2n+1)^(d-1-i): its coordinates
    are the digits of e(p) in base 2n+1. Two points' coordinates add up to
    at most 2n, so e(x) + e(y) = e(x + y) with no carry, and e keeps
    row-major order. Color class c is the int B_c with the bits of its
    points, and (B_c << e(x)) & B_c holds the totals x + y of every y with
    x, y and x + y all of color c. For j = 2 a total is skipped when its y
    is parallel to x: for g = gcd(x), when e(y) = m e(x) / g for an m with
    m max(x) / g <= n. No point is zero, so those are all that rank < 2
    excludes. The least total found is the first in family order, and the
    least x that reaches it is the first of its summands: the x that reach
    a total t come in pairs x, t - x, so the least is at most t - x.

    The points x are taken once, in row-major order, until e(x) + e(1, ..., 1)
    passes the least total found. No SchurTuple is built unless a tuple is
    monochromatic.
    """
    n, d, colors = coloring.n, coloring.d, coloring.colors
    base = 2 * n + 1
    codes = [0]  # e(p) of every point, row-major
    for _ in range(d):
        codes = [code * base + c for code in codes for c in range(1, n + 1)]
    rows: dict[int, bytearray] = {}
    for code, color in zip(codes, colors):
        row = rows.get(color)
        if row is None:
            row = rows[color] = bytearray(codes[-1] // 8 + 1)
        row[code >> 3] |= 1 << (code & 7)
    classes = {color: int.from_bytes(row, "little") for color, row in rows.items()}
    least, found = codes[-1] + 1, None  # no total is past e(n, ..., n)
    for x, e, color in zip(box_points(n, d), codes, colors):
        if e + codes[0] > least:
            break
        b = classes[color]
        hits = (b << e) & b
        while hits:
            t = (hits & -hits).bit_length() - 1
            if t >= least:
                break
            if j == 2:
                g = math.gcd(*x)
                m, rest = divmod(t - e, e // g)
                if not rest and m * max(x) // g <= n:
                    hits &= hits - 1
                    continue
            least, found = t, (x, color)
            break
    if found is None:
        return None
    x, color = found
    total = _point_of(least, base, d)
    return Violation(SchurTuple((x, tuple(map(operator.sub, total, x))), total), color)


def _point_of(code: int, base: int, d: int) -> Point:
    """The point whose coordinates are the d digits of code in base."""
    coords = []
    for _ in range(d):
        code, c = divmod(code, base)
        coords.append(c)
    return tuple(reversed(coords))


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
        raise InputError(f"summands {shown(tuple(summands))} do not sum to "
                         f"{shown(total)}")
    lifted = tuple(p + (p[-1],) for p in summands)
    return lifted, total + (total[-1],)

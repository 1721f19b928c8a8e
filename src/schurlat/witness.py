"""Constructive witness extraction: from any r-coloring of a large enough box,
produce a monochromatic nondegenerate solution of x_1 + ... + x_(k-1) = x_k.

The construction places the points y_i = (i, i^2, ..., i^d) on M = R_r(k)
vertices, colors edge {i, j} by the lattice color of y_j - y_i, finds a
monochromatic k-clique (one must exist by definition of the Ramsey number),
and reads the solution off the telescoping differences. Independence of the
first d summands is a Vandermonde determinant fact, checked exactly on every
extraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .bounds import ramsey_number
from .errors import InputError, IntegrityError, shown
from .lattice import Coloring, Point, det, rank, vector_sum


@dataclass(frozen=True)
class EdgeColoredGraph:
    """A complete graph on vertices 1..m with a total edge coloring in [1, r]."""

    m: int
    edge_color: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InputError(f"need at least one vertex, got m={shown(self.m)}")
        for i, j in itertools.combinations(range(1, self.m + 1), 2):
            if (i, j) not in self.edge_color:
                raise InputError(f"edge color missing for {{{i}, {j}}}")

    def color(self, i: int, j: int) -> int:
        return self.edge_color[(i, j) if i < j else (j, i)]


@dataclass(frozen=True)
class SchurWitness:
    """A monochromatic solution extracted from a coloring, plus the clique
    vertices it came from. The first d summands are linearly independent."""

    clique: tuple[int, ...]
    summands: tuple[Point, ...]
    total: Point
    color: int


def vandermonde_points(m: int, d: int) -> list[Point]:
    """The points y_i = (i, i^2, ..., i^d) for i = 1..m. Every pairwise
    difference y_j - y_i (i < j) has all coordinates in [1, m^d - 1]."""
    if m < 2:
        raise InputError(f"need m >= 2, got {shown(m)}")
    if d < 1:
        raise InputError(f"need d >= 1, got {shown(d)}")
    return [tuple(i**t for t in range(1, d + 1)) for i in range(1, m + 1)]


def guarantee(d: int, r: int, k: int, n: int | None = None,
              table=None) -> tuple[int, int]:
    """The construction's guarantee, stated once: every r-coloring of [n]^d
    with k >= d+1 and n >= R_r(k)^d - 1 holds a monochromatic solution of
    x_1 + ... + x_(k-1) = x_k whose first d summands are independent.

    Returns (m, n): m = R_r(k), the vertex count of the Ramsey graph, and the
    box size n, which defaults to the threshold m^d - 1. Refuses k < d+1, an
    R_r(k) that is not known exactly (the threshold would be a guess), and an
    n below the threshold."""
    if k < d + 1:
        raise InputError(f"need k >= d+1 = {shown(d + 1)}, got k={shown(k)}")
    entry = ramsey_number(r, k, table)
    if not entry.is_exact:
        raise InputError(
            f"Ramsey number R_{r}({k}) is not exactly known (only in "
            f"[{entry.lower}, {entry.upper}]); cannot pick a sound threshold"
        )
    m = entry.lower
    threshold = m**d - 1
    if n is not None and n < threshold:
        raise InputError(f"box [{shown(n)}]^{shown(d)} below the guarantee threshold "
                         f"[{shown(threshold)}]^{shown(d)}")
    return m, threshold if n is None else n


def graph_from_lattice_coloring(chi: Coloring, m: int, d: int) -> EdgeColoredGraph:
    """Color edge {i, j} (i < j) of the complete graph on m vertices with the
    lattice color of y_j - y_i. A box too small to hold every difference is
    an InputError from chi.color_of."""
    if chi.d != d:
        raise InputError(f"coloring has dimension {shown(chi.d)}, expected {shown(d)}")
    ys = vandermonde_points(m, d)
    edges = {}
    for i, j in itertools.combinations(range(1, m + 1), 2):
        diff = tuple(a - b for a, b in zip(ys[j - 1], ys[i - 1]))
        edges[(i, j)] = chi.color_of(diff)
    return EdgeColoredGraph(m, edges)


def find_monochromatic_clique(g: EdgeColoredGraph, k: int) -> tuple[int, ...] | None:
    """First k vertices (lexicographically) whose edges all share one color,
    or None. Exhaustive over all vertex subsets."""
    if k < 2:
        raise InputError(f"need k >= 2, got {shown(k)}")
    for verts in itertools.combinations(range(1, g.m + 1), k):
        pairs = itertools.combinations(verts, 2)
        c0 = g.edge_color[next(pairs)]
        if all(g.edge_color[e] == c0 for e in pairs):
            return verts
    return None


def extract_schur_witness(chi: Coloring, k: int = 3, *, table=None) -> SchurWitness:
    """Extract a monochromatic solution with independent first-d summands from
    any coloring the guarantee covers (see guarantee, which refuses the rest
    rather than guessing). A missing clique after that means the Ramsey table
    itself is wrong, and is reported as an integrity error.
    """
    d, r = chi.d, chi.r
    m, _ = guarantee(d, r, k, chi.n, table)
    graph = graph_from_lattice_coloring(chi, m, d)
    clique = find_monochromatic_clique(graph, k)
    if clique is None:
        raise IntegrityError(
            f"no monochromatic K_{k} in a {r}-colored K_{m}; the Ramsey table "
            f"entry R_{r}({k}) = {m} must be wrong"
        )
    ys = vandermonde_points(m, d)
    summands = tuple(
        tuple(a - b for a, b in zip(ys[clique[t + 1] - 1], ys[clique[t] - 1]))
        for t in range(k - 1)
    )
    total = tuple(a - b for a, b in zip(ys[clique[-1] - 1], ys[clique[0] - 1]))
    color = graph.color(clique[0], clique[-1])

    points = summands + (total,)
    if any(chi.color_of(p) != color for p in points):
        raise IntegrityError("extracted witness is not monochromatic")
    if vector_sum(summands) != total:
        raise IntegrityError("extracted witness fails the telescoping identity")
    if rank(summands[:d]) != d:
        raise IntegrityError("first d summands of the witness are dependent")
    return SchurWitness(clique, summands, total, color)


def difference_matrix(indices: tuple[int, ...] | list[int]) -> list[list[int]]:
    """The d x d matrix with rows y_(i_(t+1)) - y_(i_t) for d = len(indices)-1;
    its determinant equals the full (d+1) x (d+1) Vandermonde determinant."""
    if len(indices) < 2:
        raise InputError("need at least two indices")
    if any(indices[t] >= indices[t + 1] for t in range(len(indices) - 1)):
        raise InputError(f"indices must be strictly increasing, got {shown(indices)}")
    if indices[0] < 1:
        raise InputError(f"indices must be positive, got {shown(indices)}")
    d = len(indices) - 1
    return [
        [indices[t + 1] ** e - indices[t] ** e for e in range(1, d + 1)]
        for t in range(d)
    ]


def vandermonde_product(indices: tuple[int, ...] | list[int]) -> int:
    """The closed-form Vandermonde value: product of (i_l - i_j) over j < l."""
    return math.prod(
        indices[l] - indices[j]
        for j in range(len(indices))
        for l in range(j + 1, len(indices))
    )


def vandermonde_det(indices: tuple[int, ...] | list[int]) -> int:
    """Determinant of the difference matrix, which is positive for strictly
    increasing indices. Computed by the closed-form product; under __debug__
    the exact-elimination determinant is computed as well and must agree."""
    matrix = difference_matrix(indices)
    value = vandermonde_product(indices)
    if __debug__:
        eliminated = det(matrix)
        if eliminated != value:
            raise IntegrityError(
                f"determinant cross-check failed for {indices}: elimination "
                f"gives {eliminated}, product formula gives {value}"
            )
    return value

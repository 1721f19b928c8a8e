"""Ramsey-graph witness extraction and the Vandermonde determinant identity."""

import itertools
import random

import pytest

from conftest import oracle_det
from schurlat.errors import InputError, IntegrityError
from schurlat.lattice import Coloring, det, rank, vector_sum
from schurlat.witness import (
    EdgeColoredGraph,
    difference_matrix,
    extract_schur_witness,
    find_monochromatic_clique,
    graph_from_lattice_coloring,
    guarantee,
    vandermonde_det,
    vandermonde_points,
    vandermonde_product,
)


def random_coloring(n, d, r, seed) -> Coloring:
    rng = random.Random(seed)
    return Coloring(n, d, r, tuple(rng.randint(1, r) for _ in range(n**d)))


def complete_graph(m, color_fn) -> EdgeColoredGraph:
    return EdgeColoredGraph(
        m,
        {(i, j): color_fn(i, j) for i, j in itertools.combinations(range(1, m + 1), 2)},
    )


class TestVandermondePoints:
    def test_squares_in_dimension_two(self):
        assert vandermonde_points(3, 2) == [(1, 1), (2, 4), (3, 9)]

    def test_one_dimensional(self):
        assert vandermonde_points(2, 1) == [(1,), (2,)]

    def test_difference_coordinates_stay_in_box(self):
        ys = vandermonde_points(6, 2)
        assert tuple(a - b for a, b in zip(ys[5], ys[0])) == (5, 35)
        bound = 6**2 - 1
        for i, j in itertools.combinations(range(6), 2):
            diff = tuple(a - b for a, b in zip(ys[j], ys[i]))
            assert all(1 <= c <= bound for c in diff)

    def test_validation(self):
        with pytest.raises(InputError):
            vandermonde_points(1, 2)
        with pytest.raises(InputError):
            vandermonde_points(3, 0)


class TestGraphFromLatticeColoring:
    def test_constant_coloring_gives_one_color(self):
        g = graph_from_lattice_coloring(Coloring.constant(35, 2, 2), 6, 2)
        assert set(g.edge_color.values()) == {1}

    def test_edge_color_is_difference_color(self):
        chi = Coloring.from_function(8, 1, 2, lambda p: p[0] % 2 + 1)
        g = graph_from_lattice_coloring(chi, 3, 1)
        assert g.edge_color[(1, 3)] == chi.color_of((2,))
        assert g.edge_color[(1, 2)] == chi.color_of((1,))

    def test_box_too_small(self):
        with pytest.raises(InputError):
            graph_from_lattice_coloring(Coloring.constant(34, 2, 2), 6, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            graph_from_lattice_coloring(Coloring.constant(35, 1, 2), 6, 2)


class TestFindMonochromaticClique:
    def test_constant_k6(self):
        g = complete_graph(6, lambda i, j: 1)
        assert find_monochromatic_clique(g, 3) == (1, 2, 3)

    def test_pentagon_pentagram_has_no_triangle(self):
        # classical R(3,3) > 5 witness: cycle edges color 1, diagonals color 2
        g = complete_graph(5, lambda i, j: 1 if (j - i) in (1, 4) else 2)
        assert find_monochromatic_clique(g, 3) is None

    def test_every_two_colored_k6_has_a_triangle(self):
        for seed in range(60):
            rng = random.Random(seed)
            g = complete_graph(6, lambda i, j: rng.randint(1, 2))
            clique = find_monochromatic_clique(g, 3)
            assert clique is not None
            colors = {g.edge_color[e] for e in itertools.combinations(clique, 2)}
            assert len(colors) == 1

    def test_k_larger_than_graph(self):
        g = complete_graph(3, lambda i, j: 1)
        assert find_monochromatic_clique(g, 4) is None

    def test_k_validation(self):
        g = complete_graph(3, lambda i, j: 1)
        with pytest.raises(InputError):
            find_monochromatic_clique(g, 1)

    def test_graph_totality_validation(self):
        with pytest.raises(InputError):
            EdgeColoredGraph(3, {(1, 2): 1, (1, 3): 1})  # (2,3) missing
        with pytest.raises(InputError, match="at least one vertex"):
            EdgeColoredGraph(0, {})


def check_witness(w, chi):
    assert {chi.color_of(p) for p in w.summands + (w.total,)} == {w.color}
    assert vector_sum(w.summands) == w.total
    assert rank(w.summands[: chi.d]) == chi.d
    assert all(1 <= c <= chi.n for p in w.summands + (w.total,) for c in p)


class TestExtractSchurWitness:
    def test_constant_coloring_two_dimensional(self):
        chi = Coloring.constant(35, 2, 2)
        w = extract_schur_witness(chi, 3)
        check_witness(w, chi)

    def test_seeded_random_colorings(self):
        for seed in range(100):
            chi = random_coloring(35, 2, 2, seed)
            check_witness(extract_schur_witness(chi, 3), chi)

    def test_classical_one_dimensional_case(self):
        # [5] forces a monochromatic Schur triple for every 2-coloring; try the
        # extremal coloring that is free on [4]
        chi = Coloring.from_function(5, 1, 2, lambda p: 1 if p[0] in (1, 4) else 2)
        w = extract_schur_witness(chi, 3)
        check_witness(w, chi)

    def test_three_colors_uses_ramsey_17(self):
        chi = random_coloring(17**1 - 1, 1, 3, 4)
        w = extract_schur_witness(chi, 3)
        check_witness(w, chi)

    def test_box_below_threshold_refused(self):
        with pytest.raises(InputError):
            extract_schur_witness(Coloring.constant(34, 2, 2), 3)

    def test_inexact_ramsey_refused(self):
        with pytest.raises(InputError) as err:
            extract_schur_witness(Coloring.constant(60**2 - 1, 2, 4), 3)
        assert "not" in str(err.value) or "[51, 62]" in str(err.value)

    def test_guarantee_defaults_to_the_threshold(self):
        assert guarantee(2, 2, 3) == (6, 35)
        assert guarantee(1, 3, 3, 20) == (17, 20)
        with pytest.raises(InputError, match="threshold"):
            guarantee(2, 2, 3, 34)

    def test_k_must_exceed_dimension(self):
        with pytest.raises(InputError):
            extract_schur_witness(Coloring.constant(35, 3, 2), 3)

    def test_wrong_ramsey_entry_is_integrity_error(self):
        # a fake table claiming R_2(3) = 5 is refuted by the pentagon coloring
        from schurlat.bounds import RamseyEntry

        fake = {(2, 3): RamseyEntry(2, 3, 5, 5, "wrong on purpose")}

        def color(p):
            # edge {i,j} of K5 gets the color of j-i: cycle distances 1,4 -> 1
            return 1 if p[0] in (1, 4) else 2

        chi = Coloring.from_function(24, 1, 2, color)
        with pytest.raises(IntegrityError):
            extract_schur_witness(chi, 3, table=fake)


class TestVandermondeDet:
    def test_spec_values(self):
        assert difference_matrix((1, 2, 3)) == [[1, 3], [1, 5]]
        assert vandermonde_det((1, 2, 3)) == 2
        assert vandermonde_det((1, 2)) == 1
        assert vandermonde_det((2, 4, 5)) == 6

    def test_validation(self):
        with pytest.raises(InputError):
            vandermonde_det((3, 2))
        with pytest.raises(InputError):
            vandermonde_det((2, 2, 3))
        with pytest.raises(InputError):
            vandermonde_det((5,))
        with pytest.raises(InputError):
            vandermonde_det((0, 1))

    def test_elimination_equals_product_formula(self):
        rng = random.Random(60133)
        for _ in range(200):
            d = rng.randint(1, 5)
            start = rng.randint(1, 30)
            idx = [start]
            for _ in range(d):
                idx.append(idx[-1] + rng.randint(1, 6))
            indices = tuple(idx)
            eliminated = det(difference_matrix(indices))
            assert eliminated == vandermonde_product(indices) == vandermonde_det(indices)
            assert eliminated > 0

    def test_matches_full_vandermonde_matrix_determinant(self):
        # the (d+1)x(d+1) matrix with rows (1, i, i^2, ...) has the same
        # determinant as the difference matrix
        for indices in [(1, 2, 3), (2, 4, 5), (1, 3, 4, 7)]:
            d = len(indices) - 1
            full = [[i**e for e in range(d + 1)] for i in indices]
            assert oracle_det(full) == vandermonde_det(indices)

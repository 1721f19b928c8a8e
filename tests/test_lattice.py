"""Lattice types, exact linear algebra, tuple enumeration, and lifting."""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    as_tuples,
    oracle_det,
    oracle_rank,
    oracle_subset_independent,
    oracle_tuple_family,
)
from schurlat.errors import InputError
from schurlat.lattice import (
    Coloring,
    SchurTuple,
    box_points,
    det,
    enumerate_shell,
    enumerate_tuples,
    first_violation,
    induced_coloring,
    is_j_nondegenerate,
    lift_solution,
    point_from_index,
    point_index,
    rank,
    shell_points,
    vector_sum,
    verify_free,
)

# strategy for small integer vectors of shared dimension
_vector_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * d),
        min_size=0,
        max_size=5,
    )
)


class TestPointIndex:
    def test_row_major_order_matches_lex_enumeration(self):
        for n, d in [(3, 2), (2, 3), (5, 1)]:
            pts = list(box_points(n, d))
            assert [point_index(p, n) for p in pts] == list(range(1, n**d + 1))
            for idx, p in enumerate(pts, start=1):
                assert point_from_index(idx, n, d) == p

    def test_out_of_range_coordinate(self):
        with pytest.raises(InputError):
            point_index((0, 1), 3)
        with pytest.raises(InputError):
            point_index((1, 4), 3)


class TestRank:
    def test_empty_set(self):
        assert rank([]) == 0

    def test_scalar_multiples(self):
        assert rank([(1, 2), (2, 4)]) == 1

    def test_two_by_two_determinant_one(self):
        assert rank([(1, 1), (1, 2)]) == 2

    def test_mismatched_dimensions(self):
        with pytest.raises(InputError):
            rank([(1, 2), (1, 2, 3)])

    def test_zero_dimension_vectors(self):
        with pytest.raises(InputError):
            rank([(), ()])

    def test_against_sympy_on_random_matrices(self):
        rng = random.Random(20817)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            vs = [
                tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
            ]
            assert rank(vs) == oracle_rank(vs)

    @settings(max_examples=60, deadline=None)
    @given(_vector_lists, st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_negation(self, vectors, rnd):
        base = rank(vectors)
        shuffled = list(vectors)
        rnd.shuffle(shuffled)
        assert rank(shuffled) == base
        negated = [tuple(-c for c in v) for v in vectors]
        assert rank(negated) == base


class TestDet:
    def test_known_values(self):
        assert det([[1, 3], [1, 5]]) == 2
        assert det([[2]]) == 2
        assert det([]) == 1
        assert det([[1, 0], [0, 1]]) == 1

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_not_square(self):
        with pytest.raises(InputError):
            det([[1, 2], [3]])

    def test_against_leibniz_expansion(self):
        rng = random.Random(4242)
        for _ in range(80):
            n = rng.randint(1, 4)
            m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
            assert det(m) == oracle_det(m)


class TestIsJNondegenerate:
    def test_identical_vectors_fail_j2(self):
        assert is_j_nondegenerate([(1, 1), (1, 1)], 2) is False

    def test_independent_pair(self):
        assert is_j_nondegenerate([(1, 1), (1, 2)], 2) is True

    def test_single_nonzero_vector(self):
        assert is_j_nondegenerate([(1, 1)], 1) is True

    def test_j_out_of_range(self):
        with pytest.raises(InputError):
            is_j_nondegenerate([(1, 1), (1, 2)], 3)
        with pytest.raises(InputError):
            is_j_nondegenerate([(1, 1)], 0)
        with pytest.raises(InputError):
            is_j_nondegenerate([], 1)

    def test_equivalent_to_subset_search(self):
        rng = random.Random(91)
        for _ in range(120):
            d = rng.randint(1, 4)
            count = rng.randint(1, 5)
            summands = [
                tuple(rng.randint(1, 5) for _ in range(d)) for _ in range(count)
            ]
            j = rng.randint(1, min(d, count))
            assert is_j_nondegenerate(summands, j) == oracle_subset_independent(
                summands, j
            )


class TestSchurTuple:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(InputError):
            SchurTuple(((1, 1), (1, 2)), (9, 9))

    def test_unsorted_summands_rejected(self):
        with pytest.raises(InputError):
            SchurTuple(((1, 2), (1, 1)), (2, 3))

    def test_distinct_points_dedups(self):
        t = SchurTuple(((1, 1), (1, 1)), (2, 2))
        assert t.distinct_points() == ((1, 1), (2, 2))


class TestEnumerateTuples:
    def test_two_box_j2_is_empty(self):
        assert len(enumerate_tuples(2, 2, 3, 2)) == 0

    def test_two_box_j1_single_tuple(self):
        fam = enumerate_tuples(2, 2, 3, 1)
        assert as_tuples(fam) == [(((1, 1), (1, 1)), (2, 2))]

    def test_three_box_j2_exactly_three(self):
        fam = enumerate_tuples(3, 2, 3, 2)
        assert as_tuples(fam) == [
            (((1, 1), (1, 2)), (2, 3)),
            (((1, 1), (2, 1)), (3, 2)),
            (((1, 2), (2, 1)), (3, 3)),
        ]

    @pytest.mark.parametrize(
        "n,d,k,j",
        [
            (4, 1, 3, 1),
            (6, 1, 3, 1),
            (5, 1, 4, 1),
            (3, 2, 3, 1),
            (3, 2, 3, 2),
            (4, 2, 3, 2),
            (2, 3, 3, 2),
            (3, 2, 4, 2),
        ],
    )
    def test_matches_unpruned_oracle(self, n, d, k, j):
        assert as_tuples(enumerate_tuples(n, d, k, j)) == oracle_tuple_family(n, d, k, j)

    def test_monotone_in_n(self):
        for n in range(2, 6):
            small = set(as_tuples(enumerate_tuples(n, 2, 3, 2)))
            large = set(as_tuples(enumerate_tuples(n + 1, 2, 3, 2)))
            assert small <= large

    def test_deterministic_canonical_order(self):
        fam = enumerate_tuples(5, 2, 3, 2)
        keys = [(t.total, t.summands) for t in fam]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            enumerate_tuples(3, 2, 2, 1)  # k too small
        with pytest.raises(InputError):
            enumerate_tuples(3, 2, 3, 3)  # j > min(d, k-1)
        with pytest.raises(InputError):
            enumerate_tuples(0, 2, 3, 1)
        with pytest.raises(InputError, match="box requires"):
            enumerate_tuples(0, 2, 3, 2)


class TestShells:
    def test_shell_points_partition_the_box(self):
        for n, d in [(5, 1), (4, 2), (3, 3)]:
            shells = [shell_points(s, d) for s in range(1, n + 1)]
            assert shell_points(1, d) == [(1,) * d]
            for s, pts in enumerate(shells, start=1):
                assert pts == sorted(pts)
                assert all(max(p) == s for p in pts)
                assert len(pts) == s**d - (s - 1) ** d
            assert sorted(p for pts in shells for p in pts) == list(box_points(n, d))

    @pytest.mark.parametrize(
        "n, d, k, j",
        [(6, 1, 3, 1), (5, 1, 4, 1), (4, 2, 3, 1), (4, 2, 3, 2), (3, 2, 4, 2),
         (3, 3, 3, 2)],
    )
    def test_shells_partition_the_family(self, n, d, k, j):
        shells = [enumerate_shell(s, d, k, j) for s in range(1, n + 1)]
        for s, shell in enumerate(shells, start=1):
            assert all(max(t.total) == s for t in shell)
            keys = [(t.total, t.summands) for t in shell]
            assert keys == sorted(keys)
        union = [(t.summands, t.total) for shell in shells for t in shell]
        assert len(set(union)) == len(union)  # disjoint
        family = as_tuples(enumerate_tuples(n, d, k, j))
        assert sorted(union, key=lambda pair: (pair[1], pair[0])) == family
        assert family == oracle_tuple_family(n, d, k, j)

    def test_splitting_leaves_no_cyclic_garbage(self):
        # Enumeration and certificate checks run once per level; reference
        # cycles left by the splitter would make the cyclic GC collect them.
        rng = random.Random(7)
        coloring = Coloring(12, 2, 3, tuple(rng.randint(1, 3) for _ in range(144)))
        gc.collect()
        gc.disable()
        try:
            assert enumerate_shell(12, 2, 3, 2)
            assert first_violation(coloring, 3, 2) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shell_validation(self):
        with pytest.raises(InputError):
            enumerate_shell(0, 2, 3, 1)
        with pytest.raises(InputError, match="box requires"):
            enumerate_shell(0, 2, 3, 2)
        with pytest.raises(InputError):
            enumerate_shell(3, 2, 2, 1)
        with pytest.raises(InputError):
            enumerate_shell(3, 2, 3, 3)


def free_three_box() -> Coloring:
    """[3]^2 colored 1 at (1,1) and (3,3), else 2; free for j=2 by hand check."""
    return Coloring.from_function(
        3, 2, 2, lambda p: 1 if p in ((1, 1), (3, 3)) else 2
    )


class TestVerifyFree:
    def test_constant_coloring_first_violation(self):
        fam = enumerate_tuples(3, 2, 3, 2)
        violation = verify_free(Coloring.constant(3, 2, 2), fam)
        assert violation is not None
        assert violation.tuple.summands == ((1, 1), (1, 2))
        assert violation.tuple.total == (2, 3)
        assert violation.color == 1

    def test_hand_built_free_coloring(self):
        fam = enumerate_tuples(3, 2, 3, 2)
        assert verify_free(free_three_box(), fam) is None

    def test_empty_family_always_free(self):
        fam = enumerate_tuples(2, 2, 3, 2)
        assert verify_free(Coloring.constant(2, 2, 2), fam) is None

    def test_tuple_outside_the_box(self):
        stray = (SchurTuple(((1,), (2,)), (3,)),)
        with pytest.raises(InputError):
            verify_free(Coloring.constant(2, 1, 2), stray)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            verify_free(Coloring.constant(3, 1, 2), enumerate_tuples(3, 2, 3, 2))

    def test_restriction_of_free_coloring_stays_free(self):
        chi = free_three_box()
        restricted = Coloring.from_function(2, 2, 2, chi.color_of)
        assert verify_free(restricted, enumerate_tuples(2, 2, 3, 2)) is None


class TestColoring:
    def test_validation(self):
        with pytest.raises(InputError):
            Coloring(2, 2, 2, (1, 2, 1))  # wrong length
        with pytest.raises(InputError):
            Coloring(2, 1, 2, (1, 3))  # color out of range
        # 3**10**7 has 4.8 million digits; the length test never builds it.
        with pytest.raises(InputError, match=r"expected 3\^10000000"):
            Coloring(3, 10**7, 1, (1,))

    def test_color_of_row_major(self):
        chi = Coloring(2, 2, 4, (1, 2, 3, 4))
        assert chi.color_of((1, 1)) == 1
        assert chi.color_of((1, 2)) == 2
        assert chi.color_of((2, 1)) == 3
        assert chi.color_of((2, 2)) == 4


class TestInducedColoring:
    def test_constant_stays_constant(self):
        chi = Coloring.constant(3, 3, 2, color=2)
        induced = induced_coloring(chi)
        assert induced.d == 2 and set(induced.colors) == {2}

    def test_last_coordinate_coloring(self):
        chi = Coloring.from_function(2, 3, 2, lambda p: p[-1])
        induced = induced_coloring(chi)
        for a, b in itertools.product((1, 2), repeat=2):
            assert induced.color_of((a, b)) == b

    def test_all_ones_point(self):
        chi = Coloring.from_function(2, 3, 8, lambda p: point_index(p, 2))
        assert induced_coloring(chi).color_of((1, 1)) == chi.color_of((1, 1, 1))

    def test_needs_dimension_two(self):
        with pytest.raises(InputError):
            induced_coloring(Coloring.constant(3, 1, 2))


class TestLiftSolution:
    def test_spec_pair(self):
        lifted, total = lift_solution([(1, 2), (2, 1)], (3, 3))
        assert lifted == ((1, 2, 2), (2, 1, 1))
        assert total == (3, 3, 3)
        assert rank(lifted) == 2

    def test_one_dimensional(self):
        lifted, total = lift_solution([(2,), (3,)], (5,))
        assert lifted == ((2, 2), (3, 3))
        assert total == (5, 5)

    def test_rejects_non_solution(self):
        with pytest.raises(InputError):
            lift_solution([(1, 2), (2, 1)], (4, 4))

    def test_preserves_equation_and_rank(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.randint(1, 3)
            count = rng.randint(2, 4)
            summands = [
                tuple(rng.randint(1, 4) for _ in range(d)) for _ in range(count)
            ]
            total = vector_sum(summands)
            lifted, lifted_total = lift_solution(summands, total)
            assert vector_sum(lifted) == lifted_total
            assert rank(lifted) >= rank(summands)

    def test_violations_of_induced_coloring_lift(self):
        # any monochromatic tuple found in the induced coloring corresponds to
        # a monochromatic lifted solution of at least the same rank upstairs
        rng = random.Random(11)
        fam = enumerate_tuples(3, 2, 3, 1)
        for _ in range(20):
            chi = Coloring(3, 3, 2, tuple(rng.randint(1, 2) for _ in range(27)))
            induced = induced_coloring(chi)
            violation = verify_free(induced, fam)
            if violation is None:
                continue
            t = violation.tuple
            lifted, lifted_total = lift_solution(t.summands, t.total)
            colors = {chi.color_of(p) for p in lifted} | {chi.color_of(lifted_total)}
            assert colors == {violation.color}
            assert rank(lifted) >= 1

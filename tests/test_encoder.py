"""CNF compilation: variable numbering, clause shapes, counts, and decoding."""

import hashlib
import itertools
import random

import pytest

from conftest import make_tuple, oracle_truth_table_sat
from schurlat.encoder import (
    CnfFormula,
    EncodingMeta,
    coloring_to_assignment,
    decode_model,
    encode,
    encode_points,
    var_index,
    var_point_color,
)
from schurlat.errors import InputError, IntegrityError
from schurlat.lattice import (
    Coloring,
    box_points,
    enumerate_tuples,
    verify_free,
)
from schurlat.sat import check_model, write_dimacs


class TestVarIndex:
    def test_first_point_first_variable(self):
        assert var_index((1, 1), 1, EncodingMeta(6, 2, 2)) == 1

    def test_last_point_of_six_box(self):
        assert var_index((6, 6), 1, EncodingMeta(6, 2, 2)) == 36

    def test_second_color_of_first_point(self):
        assert var_index((1, 1), 2, EncodingMeta(17, 2, 3)) == 2

    def test_bijection_round_trip(self):
        meta = EncodingMeta(3, 2, 3)
        seen = set()
        for p in box_points(3, 2):
            for m in (1, 2):
                v = var_index(p, m, meta)
                assert var_point_color(v, meta) == (p, m)
                seen.add(v)
        assert seen == set(range(1, meta.num_vars + 1))

    def test_range_errors(self):
        meta = EncodingMeta(3, 2, 3)
        with pytest.raises(InputError):
            var_index((1, 1), 3, meta)  # m > r-1
        with pytest.raises(InputError):
            var_index((4, 1), 1, meta)
        with pytest.raises(InputError):
            var_index((1,), 1, meta)  # wrong dimension
        with pytest.raises(InputError):
            var_index((1,), 1, EncodingMeta(3, 1, 1))  # r=1 has no variables


def distinctness(n, d, r):
    """The clauses encode_points emits for [n]^d, row-major, with no tuples."""
    return encode_points(list(box_points(n, d)), (), {}, r)


def tuple_clauses(n, d, tuples, r):
    """The clauses encode_points emits for the tuples of [n]^d, row-major."""
    clauses = encode_points(list(box_points(n, d)), tuples, {}, r)
    return clauses[len(distinctness(n, d, r)):]


class TestDistinctness:
    def test_two_colors_no_clauses(self):
        assert distinctness(4, 2, 2) == []

    def test_three_colors_two_points(self):
        assert distinctness(2, 1, 3) == [(-1, -2), (-3, -4)]

    def test_four_colors_one_point(self):
        clauses = distinctness(1, 1, 4)
        assert clauses == [(-1, -2), (-1, -3), (-2, -3)]

    def test_count_formula(self):
        for n, d, r in [(2, 2, 3), (3, 1, 4), (2, 1, 5)]:
            clauses = distinctness(n, d, r)
            assert len(clauses) == n**d * (r - 1) * (r - 2) // 2


class TestTupleClauses:
    def test_two_colors_three_distinct_points(self):
        t = make_tuple([(1, 1), (1, 2)], (2, 3))
        meta = EncodingMeta(3, 2, 2)
        a, b, c = (var_index(p, 1, meta) for p in t.distinct_points())
        assert tuple_clauses(3, 2, [t], 2) == [(-a, -b, -c), (a, b, c)]

    def test_three_colors_three_distinct_points(self):
        t = make_tuple([(1, 1), (1, 2)], (2, 3))
        clauses = tuple_clauses(3, 2, [t], 3)
        assert len(clauses) == 3
        assert all(len(cl) == 3 and all(l < 0 for l in cl) for cl in clauses[:2])
        assert len(clauses[2]) == 6 and all(l > 0 for l in clauses[2])

    def test_duplicate_points_are_merged(self):
        t = make_tuple([(1,), (1,)], (2,))
        assert tuple_clauses(2, 1, [t], 2) == [(-1, -2), (1, 2)]

    def test_empty_family(self):
        assert tuple_clauses(2, 2, [], 2) == []


class TestEncode:
    def test_trivially_satisfiable_two_box(self):
        f = encode(2, 2, 3, 2, 2)
        assert f.num_vars == 4 and f.num_clauses == 0

    def test_three_box_counts(self):
        f = encode(3, 2, 3, 2, 2)
        assert f.num_vars == 9 and f.num_clauses == 6

    def test_clause_count_formula_randomized(self):
        rng = random.Random(1009)
        for _ in range(50):
            n = rng.randint(1, 5)
            d = rng.randint(1, 2)
            k = rng.randint(3, 4)
            j = rng.randint(1, min(d, k - 1))
            r = rng.randint(1, 4)
            family = enumerate_tuples(n, d, k, j)
            f = encode(n, d, k, j, r)
            expected = n**d * (r - 1) * (r - 2) // 2 + r * len(family)
            assert f.num_clauses == expected
            assert f.num_vars == (r - 1) * n**d

    def test_one_color_nonempty_family_gets_empty_clause(self):
        f = encode(2, 1, 3, 1, 1)
        assert f.num_vars == 0
        assert () in f.clauses

    def test_symmetry_break_appends_unit(self):
        f = encode(3, 2, 3, 2, 2, fix_first_point_color=True)
        assert f.clauses[-1] == (1,)
        with pytest.raises(InputError):
            encode(2, 1, 3, 1, 1, fix_first_point_color=True)

    @pytest.mark.parametrize("n, d, k, j, r, sym, digest", [
        (9, 1, 3, 1, 2, False,
         "8875bc3888e5c29975384583bc072fa73bc3f0db2d1c78d08dee59bae0c23281"),
        (6, 2, 3, 2, 3, True,
         "49f010311a7cc92b33bec8238dfba0d123586a2a82996ae11921d0dd66c35ec9"),
        (5, 2, 4, 2, 4, False,
         "ea1faed0818ea5c1dc3a8f5aabe15d39d5bd053a9fd493d5edbdf6879c4c44e2"),
        (4, 3, 4, 3, 3, False,
         "58c4d1b4be4260ee1edcc5d36714237eaf8eebb5981f0cf87ba1ea795053e53c"),
        (4, 3, 3, 2, 2, True,
         "338e4dda6825134760d9cca9efbb3ee7b889577a35e27e77f677778d1500e03b"),
    ], ids=["d1-k3-r2", "d2-k3-r3-sym", "d2-k4-r4", "d3-k4-r3", "d3-k3-r2-sym"])
    def test_dimacs_bytes_are_pinned(self, n, d, k, j, r, sym, digest):
        # Clause order and literal order fix the bytes, and the engine's
        # counters depend on both; a pure speed change keeps these digests.
        f = encode(n, d, k, j, r, fix_first_point_color=sym)
        assert hashlib.sha256(write_dimacs(f)).hexdigest() == digest

    def test_round_trip_soundness_small(self):
        # every satisfying assignment decodes to a coloring the family accepts
        for n, d, k, j, r in [(3, 2, 3, 2, 2), (4, 1, 3, 1, 2), (5, 1, 3, 1, 3)]:
            family = enumerate_tuples(n, d, k, j)
            f = encode(n, d, k, j, r)
            model = oracle_truth_table_sat(f.num_vars, f.clauses)
            assert model is not None
            coloring = decode_model(model, f.meta)
            assert verify_free(coloring, family) is None

    def test_completeness_free_colorings_satisfy(self):
        # chi free  =>  phi_m(p) := (chi(p) == m) satisfies the formula
        n, d, k, j, r = 3, 2, 3, 2, 2
        family = enumerate_tuples(n, d, k, j)
        f = encode(n, d, k, j, r)
        found = 0
        for colors in itertools.product((1, 2), repeat=9):
            chi = Coloring(n, d, r, colors)
            if verify_free(chi, family) is None:
                assert check_model(f, coloring_to_assignment(chi, f.meta))
                found += 1
            else:
                assert not check_model(f, coloring_to_assignment(chi, f.meta))
        assert found > 0


class TestCnfFormula:
    def test_literal_range_validation(self):
        with pytest.raises(InputError):
            CnfFormula(2, ((1, 3),))
        with pytest.raises(InputError):
            CnfFormula(2, ((0,),))

    def test_opposite_literals_accepted(self):
        # DIMACS allows a clause to hold a literal and its negation; it is
        # always true, so only the other clause decides the formula.
        f = CnfFormula(2, ((1, -1), (2,)))
        assert f.num_clauses == 2
        for v1, v2 in itertools.product((False, True), repeat=2):
            assert check_model(f, {1: v1, 2: v2}) is v2

    def test_empty_clause_permitted(self):
        f = CnfFormula(0, ((),))
        assert f.num_clauses == 1


class TestDecodeModel:
    def test_single_true_variable(self):
        meta = EncodingMeta(1, 1, 2)
        assert decode_model({1: True}, meta).color_of((1,)) == 1

    def test_second_color(self):
        meta = EncodingMeta(1, 1, 3)
        assert decode_model({1: False, 2: True}, meta).color_of((1,)) == 2

    def test_all_false_means_last_color(self):
        meta = EncodingMeta(1, 1, 3)
        assert decode_model({1: False, 2: False}, meta).color_of((1,)) == 3

    def test_two_true_variables_is_integrity_error(self):
        meta = EncodingMeta(1, 1, 3)
        with pytest.raises(IntegrityError):
            decode_model({1: True, 2: True}, meta)

    def test_partial_assignment_rejected(self):
        meta = EncodingMeta(2, 1, 2)
        with pytest.raises(InputError):
            decode_model({1: True}, meta)

    def test_inverse_of_coloring_to_assignment(self):
        meta = EncodingMeta(2, 2, 3)
        rng = random.Random(3)
        for _ in range(20):
            chi = Coloring(2, 2, 3, tuple(rng.randint(1, 3) for _ in range(4)))
            assert decode_model(coloring_to_assignment(chi, meta), meta) == chi

"""CNF compilation: variable numbering, clause shapes, counts, and decoding."""

import hashlib
import itertools
import random
import time

import pytest

from conftest import make_tuple, oracle_truth_table_sat
from schurlat.encoder import (
    CnfFormula,
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
    SchurTuple,
    box_points,
    enumerate_shell,
    enumerate_tuples,
    verify_free,
)
from schurlat.sat import check_model, write_dimacs


class TestVarIndex:
    def test_first_point_first_variable(self):
        assert var_index((1, 1), 1, 6, 2, 2) == 1

    def test_last_point_of_six_box(self):
        assert var_index((6, 6), 1, 6, 2, 2) == 36

    def test_second_color_of_first_point(self):
        assert var_index((1, 1), 2, 17, 2, 3) == 2

    def test_bijection_round_trip(self):
        seen = set()
        for p in box_points(3, 2):
            for m in (1, 2):
                v = var_index(p, m, 3, 2, 3)
                assert var_point_color(v, 3, 2, 3) == (p, m)
                seen.add(v)
        assert seen == set(range(1, 19))

    def test_range_errors(self):
        with pytest.raises(InputError):
            var_index((1, 1), 3, 3, 2, 3)  # m > r-1
        with pytest.raises(InputError):
            var_index((4, 1), 1, 3, 2, 3)
        with pytest.raises(InputError):
            var_index((1,), 1, 3, 2, 3)  # wrong dimension
        with pytest.raises(InputError):
            var_index((1,), 1, 3, 1, 1)  # r=1 has no variables
        for v in (0, 19):
            with pytest.raises(InputError, match=f"variable {v} outside"):
                var_point_color(v, 3, 2, 3)

    @pytest.mark.parametrize("n, d, r, last", [(1, 5, 3, 2), (10, 9, 2, 10**9)])
    def test_last_variable(self, n, d, r, last):
        assert var_point_color(last, n, d, r) == ((n,) * d, r - 1)
        with pytest.raises(InputError, match=f"variable {last + 1} outside"):
            var_point_color(last + 1, n, d, r)

    def test_refusal_forms_no_power_of_the_box(self):
        # 10**(10**7) takes seconds to form; the check stops at 10.
        t0 = time.monotonic()
        with pytest.raises(InputError, match="variable 0 outside"):
            var_point_color(0, 10, 10**7, 2)
        assert time.monotonic() - t0 < 0.1

    @pytest.mark.parametrize("n, d, r", [(0, 2, 3), (3, 0, 3), (3, 2, 0)])
    def test_bad_meta_parameters(self, n, d, r):
        with pytest.raises(InputError, match="box requires|bad coloring parameters"):
            decode_model({}, n, d, r)
        with pytest.raises(InputError):
            var_index((1,) * d, 1, n, d, r)
        with pytest.raises(InputError):
            var_point_color(1, n, d, r)


def distinctness(n, d, r):
    """The clauses encode_points emits for [n]^d, row-major, with no tuples."""
    return list(encode_points(list(box_points(n, d)), (), {}, r))


def tuple_clauses(n, d, tuples, r):
    """The clauses encode_points emits for the tuples of [n]^d, row-major."""
    point_sets = [t.distinct_points() for t in tuples]
    clauses = list(encode_points(list(box_points(n, d)), point_sets, {}, r))
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
        a, b, c = (var_index(p, 1, 3, 2, 2) for p in t.distinct_points())
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
        # Color precedence: (1,1), variable 1 at r=2, has color 2; at r=3,
        # (1,1) has color 3 and (1,2), variables 3 and 4, color 2 or 3.
        f = encode(3, 2, 3, 2, 2, color_precedence=True)
        assert f.clauses[-1] == (-1,)
        assert f.clauses[:-1] == encode(3, 2, 3, 2, 2).clauses
        f = encode(3, 2, 3, 2, 3, color_precedence=True)
        assert f.clauses[-3:] == ((-1,), (-2,), (-3,))
        assert f.clauses[:-3] == encode(3, 2, 3, 2, 3).clauses
        with pytest.raises(InputError):
            encode(2, 1, 3, 1, 1, color_precedence=True)

    def test_no_colors_refused(self):
        with pytest.raises(InputError, match="need r >= 1"):
            encode(2, 1, 3, 1, 0)

    @pytest.mark.parametrize("n, d, k, j, r, sym, digest", [
        (9, 1, 3, 1, 2, False,
         "8875bc3888e5c29975384583bc072fa73bc3f0db2d1c78d08dee59bae0c23281"),
        (6, 2, 3, 2, 3, True,
         "9900bf29e11638ef2c72d04b0eb19e76d78ee3136e6cc2d061d14ed7718456ab"),
        (5, 2, 4, 2, 4, False,
         "ea1faed0818ea5c1dc3a8f5aabe15d39d5bd053a9fd493d5edbdf6879c4c44e2"),
        (4, 3, 4, 3, 3, False,
         "58c4d1b4be4260ee1edcc5d36714237eaf8eebb5981f0cf87ba1ea795053e53c"),
        (4, 3, 3, 2, 2, True,
         "6ad1f47475a1071c450f26b9988353c0b2dbf38808ef7bba4d71bcb1c779275b"),
        # The color-precedence units of these two reach shell 3; at d = 2
        # its first point (1, 3) comes before (2, 1) in row-major order.
        (9, 1, 3, 1, 4, True,
         "a5230435897e9b84a6b89dbba77a8640cf75773c0f404016bbc42efa749cc41e"),
        (4, 2, 3, 2, 6, True,
         "89a3b25c74c302640d05b922f179238be6866a984ee247b35aaea7c2dde0bad8"),
    ], ids=["d1-k3-r2", "d2-k3-r3-sym", "d2-k4-r4", "d3-k4-r3", "d3-k3-r2-sym",
            "d1-k3-r4-sym", "d2-k3-r6-sym"])
    def test_dimacs_bytes_are_pinned(self, n, d, k, j, r, sym, digest):
        # Clause order and literal order fix the bytes, and the engine's
        # counters depend on both; a pure speed change keeps these digests.
        f = encode(n, d, k, j, r, color_precedence=sym)
        assert hashlib.sha256(write_dimacs(f)).hexdigest() == digest

    def test_encode_builds_no_schur_tuple(self, monkeypatch):
        # encode reads the family as point lists, as a search does.
        def refuse(self):
            raise AssertionError("a SchurTuple was built")

        monkeypatch.setattr(SchurTuple, "__post_init__", refuse)
        f = encode(6, 2, 3, 2, 3, color_precedence=True)
        assert hashlib.sha256(write_dimacs(f)).hexdigest() == (
            "9900bf29e11638ef2c72d04b0eb19e76d78ee3136e6cc2d061d14ed7718456ab")
        assert enumerate_shell(6, 2, 3, 2)

    def test_round_trip_soundness_small(self):
        # every satisfying assignment decodes to a coloring the family accepts
        for n, d, k, j, r in [(3, 2, 3, 2, 2), (4, 1, 3, 1, 2), (5, 1, 3, 1, 3)]:
            family = enumerate_tuples(n, d, k, j)
            f = encode(n, d, k, j, r)
            model = oracle_truth_table_sat(f.num_vars, f.clauses)
            assert model is not None
            coloring = decode_model(model, n, d, r)
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
                assert check_model(f, coloring_to_assignment(chi))
                found += 1
            else:
                assert not check_model(f, coloring_to_assignment(chi))
        assert found > 0


class TestCnfFormula:
    def test_literal_range_validation(self):
        with pytest.raises(InputError):
            CnfFormula(2, ((1, 3),))
        with pytest.raises(InputError):
            CnfFormula(2, ((0,),))
        with pytest.raises(InputError, match="num_vars must be >= 0"):
            CnfFormula(-1, ())

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

    @pytest.mark.parametrize("comment", ["a\nb", "a\x0bb", "N=\xe9"],
                             ids=["newline", "vertical-tab", "non-ascii"])
    def test_comment_that_is_not_one_ascii_line_refused(self, comment):
        # write_dimacs would print a second line where read_dimacs reads
        # clauses, or fail to encode the text as ASCII
        with pytest.raises(InputError, match="not one line of ASCII"):
            CnfFormula(1, ((1,),), comment)


class TestDecodeModel:
    def test_single_true_variable(self):
        assert decode_model({1: True}, 1, 1, 2).color_of((1,)) == 1

    def test_second_color(self):
        assert decode_model({1: False, 2: True}, 1, 1, 3).color_of((1,)) == 2

    def test_all_false_means_last_color(self):
        assert decode_model({1: False, 2: False}, 1, 1, 3).color_of((1,)) == 3

    def test_two_true_variables_is_integrity_error(self):
        with pytest.raises(IntegrityError):
            decode_model({1: True, 2: True}, 1, 1, 3)

    def test_partial_assignment_rejected(self):
        with pytest.raises(InputError):
            decode_model({1: True}, 2, 1, 2)

    def test_inverse_of_coloring_to_assignment(self):
        rng = random.Random(3)
        for _ in range(20):
            chi = Coloring(2, 2, 3, tuple(rng.randint(1, 3) for _ in range(4)))
            assert decode_model(coloring_to_assignment(chi), 2, 2, 3) == chi

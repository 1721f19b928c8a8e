"""Probe loop, search outcomes, certificates, oracle, and the results ledger."""

import csv
import gc
import hashlib
import itertools
import json
import os
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from schurlat import bounds, cdcl, cli, lattice, render, sat, search, solver_cli, witness
from schurlat.bounds import SchurUpperBound, ramsey_number
from schurlat.encoder import (
    CnfFormula,
    coloring_to_assignment,
    decode_model,
    encode,
    var_index,
    var_point_color,
)
from schurlat.errors import (
    InputError,
    IntegrityError,
    NotTabulatedError,
    ParseError,
    RenderError,
    SizeError,
)
from schurlat.lattice import (
    Coloring,
    SchurTuple,
    box_points,
    enumerate_tuples,
    verify_free,
)
from schurlat.sat import Budget, Sat, Unknown, check_model, solve_internal, write_dimacs
from schurlat.search import (
    Certificate,
    Exact,
    Inconclusive,
    LowerBound,
    Provenance,
    UnsatRecord,
    _Box,
    brute_force_oracle,
    certificate_filename,
    find_schur_number,
    load_certificate,
    probe,
    save_certificate,
    verify_certificate,
)


def make_cert(n, d, j, k, r, coloring=None) -> Certificate:
    coloring = coloring or Coloring.constant(n, d, r)
    return Certificate(coloring, k, j, Provenance("test", 0, "2026-01-01T00:00:00Z"))


class TestProbe:
    def test_empty_family_is_trivially_colorable(self):
        out = probe(2, 2, 3, 2, 5)
        assert isinstance(out, Certificate)
        assert verify_certificate(out) is None

    def test_figure_one_size_is_colorable(self):
        out = probe(6, 2, 3, 2, 2)
        assert isinstance(out, Certificate)
        assert (out.n, out.d, out.r) == (6, 2, 2)
        assert verify_certificate(out) is None

    def test_seven_box_is_not_colorable(self):
        out = probe(7, 2, 3, 2, 2)
        assert isinstance(out, UnsatRecord)
        assert out.n == 7

    def test_monotone_refutation(self):
        assert isinstance(probe(5, 1, 3, 1, 2), UnsatRecord)
        assert isinstance(probe(6, 1, 3, 1, 2), UnsatRecord)

    def test_unknown_propagates(self):
        out = probe(14, 1, 3, 1, 3, budget=Budget(conflicts=1))
        assert isinstance(out, Unknown)

    def test_escalation_to_external_answers(self, internal_solver_cmd):
        out = probe(5, 1, 3, 1, 2, budget=Budget(conflicts=1),
                    solver_command=tuple(internal_solver_cmd))
        assert isinstance(out, UnsatRecord)
        assert out.solver.startswith("external:")

    @pytest.mark.parametrize("n, r, word", [
        (0, 2, "^need n >= 1, got n=0$"),
        (-1, 2, "^need n >= 1, got n=-1$"),
        (3, 0, "r >= 1"),
    ], ids=["n=0", "n=-1", "r=0"])
    def test_bad_parameters(self, n, r, word):
        with pytest.raises(InputError, match=word):
            probe(n, 1, 3, 1, r)

    def test_symmetry_break_still_verifies(self):
        # Color precedence is always on: the origin takes the last color.
        out = probe(6, 2, 3, 2, 2)
        assert isinstance(out, Certificate)
        assert out.coloring.color_of((1, 1)) == 2
        assert verify_certificate(out) is None


class TestModelChecks:
    """A search's model becomes a certificate only after _Box.decide has
    decoded it and checked it against the lattice: at most one color per
    point, no monochromatic tuple of the box's family and color precedence
    on the first r-1 points of shell order. solve_internal, and so schurlat-solve,
    check their models against their own formula instead."""

    @pytest.fixture
    def all_false_models(self, monkeypatch):
        solve = cdcl.Engine.solve

        def all_false(engine, *args):
            result = solve(engine, *args)
            if isinstance(result, Sat):
                return Sat(dict.fromkeys(result.model, False))
            return result

        monkeypatch.setattr(cdcl.Engine, "solve", all_false)

    def test_model_that_fails_the_formula(self, all_false_models):
        with pytest.raises(IntegrityError, match="monochromatic tuple"):
            probe(4, 1, 3, 1, 2)

    def test_search_exits_5(self, all_false_models, tmp_path, capsys):
        code = cli.main(["search", "--d", "1", "--k", "3", "--r", "2",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_INTEGRITY
        assert "monochromatic tuple" in capsys.readouterr().err

    def test_solve_internal_checks_its_formula(self, all_false_models):
        with pytest.raises(IntegrityError, match="model that fails the formula"):
            solve_internal(encode(4, 1, 3, 1, 2))

    def test_schurlat_solve_checks_its_formula(self, all_false_models, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_bytes(write_dimacs(encode(4, 1, 3, 1, 2)))
        assert solver_cli.main([str(path)]) == cli.EXIT_INTEGRITY
        out = capsys.readouterr().out
        assert "c integrity error: " in out
        assert "model that fails the formula" in out
        assert out.rstrip().endswith("s UNKNOWN")
        assert "\nv " not in out

    def test_decoded_model_admits_a_tuple(self, monkeypatch):
        # Without the next-to-last clause of shell 5, (not x_2 or not x_3 or
        # not x_5), the engine must color 2, 3 and 5 alike: with 1 in color 2,
        # the rest forces 2 and 3 into color 1, 4 into color 2 and 5 into
        # color 1. The engine's own clauses lack it too.
        encode_points = search.encode_points

        def drop_from_shell_5(points, *args, **kwargs):
            clauses = list(encode_points(points, *args, **kwargs))
            return clauses[:-2] + clauses[-1:] if points == [(5,)] else clauses

        monkeypatch.setattr(search, "encode_points", drop_from_shell_5)
        t = SchurTuple(((2,), (3,)), (5,))
        with pytest.raises(IntegrityError, match=re.escape(f"monochromatic tuple {t}")):
            probe(5, 1, 3, 1, 2)


class TestShellFormula:
    @pytest.mark.parametrize("n, d, k, j, r, sym", [
        (6, 2, 3, 2, 3, False),
        (7, 2, 3, 2, 2, True),
        (5, 2, 4, 2, 3, False),
        (4, 3, 4, 3, 2, False),
        (4, 3, 4, 3, 3, True),
        (9, 1, 3, 1, 3, True),
    ])
    def test_box_formula_is_encode_renumbered(self, n, d, k, j, r, sym):
        # The search's formula of [n]^d, renamed from shell to row-major
        # numbering, is the clause multiset encode writes with the
        # color-precedence units (sym); without them (not sym), it is the
        # default encoding plus the units of the rule: the i-th point of shell
        # order, sorted here by largest coordinate and then row-major, loses
        # its first r-i colors.
        box = _Box(d, k, j, r)
        box._grow(n)
        rename = {base + m: var_index(p, m, n, d, r)
                  for p, base in box.bases.items() for m in range(1, r)}

        def multiset(clauses):
            return Counter(tuple(sorted(c)) for c in clauses)

        formula = box.formula()
        renamed = [[rename[l] if l > 0 else -rename[-l] for l in c] for c in formula.clauses]
        assert box.engine.n == formula.num_vars == (r - 1) * n**d
        expected = list(encode(n, d, k, j, r, color_precedence=sym).clauses)
        if not sym:
            shell_order = sorted(box_points(n, d), key=lambda p: (max(p), p))
            expected += [(-var_index(p, m, n, d, r),)
                         for i, p in enumerate(shell_order[:r - 1], 1)
                         for m in range(1, r - i + 1)]
        assert multiset(renamed) == multiset(expected)

    @pytest.mark.parametrize("d, k, j, r, n, count, digest", [
        (2, 3, 2, 3, 12, 6465,
         "ae650028bf3a3afe44bce20a917bb49c84566f8bd63b62d72d5f0685085e2444"),
        (2, 3, 2, 4, 14, 16770,
         "5905a1322d0d1eed8b724e1b637ee841f89fb30ef63e0d97a099c679d601cc80"),
    ], ids=["d2-r3-n12", "d2-r4-n14"])
    def test_box_clause_order_is_pinned(self, d, k, j, r, n, count, digest, monkeypatch):
        # The shell-numbered clauses in the order the engine receives them,
        # literal order included, which the engine's counters depend on; the
        # rebuilt formula hands them over in the same order.
        received = []
        add_clauses = cdcl.Engine.add_clauses

        def record(engine, clauses):
            clauses = list(clauses)  # a stream is read once
            received.extend(clauses)
            add_clauses(engine, clauses)

        monkeypatch.setattr(cdcl.Engine, "add_clauses", record)
        box = _Box(d, k, j, r)
        box._grow(n)
        clauses = box.formula().clauses
        assert list(clauses) == received
        text = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
        assert len(clauses) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_box_keeps_no_clause_list(self):
        # The engine's clause lists are the box's one copy of the formula:
        # grown to N=14, d2 r4 holds 70,308 stored literals and the box
        # retains about 30 bytes per literal, each clause an exact-size list.
        # Storing the over-allocated list sorted returns gives about 34, and a
        # second copy of the clauses as tuples adds about 20 more.
        tracemalloc.start()
        try:
            box = _Box(2, 3, 2, 4)
            box._grow(14)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        literals = sum(map(len, box.engine.clauses))
        assert literals == 70308
        assert retained / literals < 32

    def test_growth_holds_no_shell(self):
        # Each shell streams from the family walk into the engine, so growth
        # peaks at about 1.09 times what the box retains (d3 k4 r2, N=8).
        # Building a shell's tuple and clause lists before the engine copies
        # them peaks at about 1.73 times.
        tracemalloc.start()
        try:
            box = _Box(3, 4, 2, 2)
            tracemalloc.reset_peak()
            box._grow(8)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * retained

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_growth_leaves_the_collector_as_it_found_it(self, monkeypatch, enabled):
        encode_points = search.encode_points
        seen = []

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return encode_points(*args, **kwargs)

        def failing(*args, **kwargs):
            raise RuntimeError("encoding failed")

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            box = _Box(2, 3, 2, 3)
            monkeypatch.setattr(search, "encode_points", recording)
            box._grow(5)
            assert seen == [False] * 5  # paused while the shells are built
            assert gc.isenabled() is enabled
            monkeypatch.setattr(search, "encode_points", failing)
            with pytest.raises(RuntimeError, match="encoding failed"):
                box._grow(6)
            assert gc.isenabled() is enabled
            assert box.n == 5
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestLatticeChecksCoverTheFormula:
    """_Box.decide checks a model against the lattice, never against the
    clauses. Over every assignment of some tiny boxes, it returns a
    certificate exactly when check_model accepts the assignment on the box's
    formula, and raises IntegrityError on every other assignment.
    satisfying counts, by brute force, the free colorings of the box that
    keep color precedence (the i-th point of shell order has one of the last
    i colors)."""

    @pytest.mark.parametrize("d, k, j, r, n, satisfying", [
        (1, 3, 1, 2, 4, 1),  # of 2 free colorings
        (1, 3, 1, 3, 5, 11),  # of 66
        (2, 3, 2, 2, 3, 104),  # of 208
        (2, 3, 1, 3, 2, 12),  # of 54
        (1, 4, 1, 3, 5, 26),  # of 132
        (1, 3, 1, 4, 4, 8),  # of 132
    ])
    def test_decide_accepts_exactly_the_models(self, d, k, j, r, n, satisfying,
                                               monkeypatch):
        box = _Box(d, k, j, r)
        box._grow(n)
        formula = box.formula()
        assignment: list[bool] = []
        monkeypatch.setattr(cdcl.Engine, "solve",
                            lambda engine, *args: Sat(dict(enumerate(assignment, 1))))
        accepted = 0
        for bits in itertools.product((False, True), repeat=formula.num_vars):
            assignment[:] = bits
            box = _Box(d, k, j, r)
            if check_model(formula, dict(enumerate(bits, 1))):
                assert isinstance(box.decide(n)[0], Certificate)
                accepted += 1
            else:
                with pytest.raises(IntegrityError):
                    box.decide(n)
        assert accepted == satisfying


class TestColorPrecedence:
    """The units of encoder.precedence_points keep the formula satisfiable
    exactly when it was: relabelling the colors of any free coloring in order
    of first appearance along shell order (the first color seen becomes r,
    the next r-1, ...) keeps it free and satisfies every unit."""

    @pytest.mark.parametrize("n, d, k, j, r", [
        *[(n, 1, 3, 1, 3) for n in range(1, 6)],
        *[(n, 2, 3, 2, r) for r in (2, 3) for n in range(1, 4)],
    ])
    def test_relabelled_free_colorings_keep_the_units(self, n, d, k, j, r):
        family = enumerate_tuples(n, d, k, j)
        formula = encode(n, d, k, j, r, color_precedence=True)
        shell_order = sorted(box_points(n, d), key=lambda p: (max(p), p))
        free = 0
        for colors in itertools.product(range(1, r + 1), repeat=n**d):
            coloring = Coloring(n, d, r, colors)
            if verify_free(coloring, family) is not None:
                continue
            free += 1
            relabel: dict[int, int] = {}
            for p in shell_order:
                relabel.setdefault(coloring.color_of(p), r - len(relabel))
            relabelled = Coloring(n, d, r, tuple(relabel[c] for c in colors))
            assert verify_free(relabelled, family) is None
            assert check_model(formula, coloring_to_assignment(relabelled))
        assert free > 0

    @pytest.mark.parametrize("n, d, k, j, r, colors, point", [
        (4, 1, 3, 1, 2, (1, 2, 2, 1), (1,)),
        (4, 1, 3, 1, 3, (3, 1, 1, 2), (2,)),
        (3, 2, 3, 2, 2, (1, 1, 1, 1, 1, 2, 1, 2, 2), (1, 1)),
    ])
    def test_decide_refuses_a_model_that_breaks_the_rule(self, n, d, k, j, r, colors,
                                                          point, monkeypatch):
        # The coloring is free, so color precedence is the one check it fails.
        coloring = Coloring(n, d, r, colors)
        assert verify_certificate(make_cert(n, d, j, k, r, coloring)) is None
        box = _Box(d, k, j, r)
        monkeypatch.setattr(cdcl.Engine, "solve", lambda engine, *args: Sat({
            box.bases[p] + m: coloring.color_of(p) == m
            for p in box_points(n, d) for m in range(1, r)}))
        with pytest.raises(IntegrityError, match=re.escape(f"gives {point} color 1,")):
            box.decide(n)


class TestBruteForceOracle:
    def test_three_box_colorable(self):
        chi = brute_force_oracle(3, 2, 3, 2, 2)
        assert chi is not None
        assert verify_free(chi, enumerate_tuples(3, 2, 3, 2)) is None

    def test_classical_five_not_colorable(self):
        assert brute_force_oracle(5, 1, 3, 1, 2) is None

    def test_classical_four_colorable(self):
        chi = brute_force_oracle(4, 1, 3, 1, 2)
        assert chi is not None
        assert verify_free(chi, enumerate_tuples(4, 1, 3, 1)) is None

    def test_ceiling_refusal(self):
        with pytest.raises(SizeError):
            brute_force_oracle(5, 2, 3, 2, 2)  # 2^25 colorings

    @pytest.mark.parametrize("n, d, r", [(100, 2, 3), (2, 10**18, 2), (10**18, 1, 1)],
                             ids=["3^10000-colorings", "hostile-d", "hostile-n"])
    def test_size_refused_before_the_count_is_built(self, n, d, r):
        # 3^10000 has 4,772 digits, too many to format; nothing that large is built.
        with pytest.raises(SizeError, match=f"more than {search.SIZE_CEILING} points"):
            brute_force_oracle(n, d, 3, 1, r)

    @pytest.mark.parametrize("n, d, r", [(0, 1, 2), (3, 0, 2), (3, 1, 0)])
    def test_bad_parameters(self, n, d, r):
        with pytest.raises(InputError, match="need n, d, r >= 1"):
            brute_force_oracle(n, d, 3, 1, r)

    def test_box_without_a_tuple_builds_no_point(self):
        # The one point of [1]^(10**18) would have 10**18 coordinates.
        chi = brute_force_oracle(1, 10**18, 3, 1, 2)
        assert (chi.n, chi.d, chi.r, chi.colors) == (1, 10**18, 2, (1,))

    @pytest.mark.parametrize("n, d, k, j, r", [(2, 2, 4, 2, 3), (3, 1, 5, 1, 2)])
    def test_box_without_a_tuple_gets_the_all_one_coloring(self, n, d, k, j, r):
        # Every coloring is free, and all-1 comes first in lexicographic order.
        assert brute_force_oracle(n, d, k, j, r) == Coloring.constant(n, d, r)


BIG = 10**5000


@pytest.mark.parametrize("call, error", [
    (lambda: brute_force_oracle(BIG, 1, 3, 1, 2), SizeError),
    (lambda: Coloring(BIG, 1, 2, (1,)), InputError),
    (lambda: Coloring(2, BIG, 2, (1,)), InputError),
    (lambda: decode_model({}, -BIG, 1, 2), InputError),
    (lambda: lattice.point_from_index(0, BIG, 1), InputError),
    (lambda: lattice.point_index((BIG,), 2), InputError),
    (lambda: next(lattice.box_points(-BIG, 1)), InputError),
    (lambda: lattice.is_j_nondegenerate([(1,)], BIG), InputError),
    (lambda: bounds.ramsey_number(2, BIG), NotTabulatedError),
    (lambda: bounds.schur_upper_bound(1, 1, 2, BIG), NotTabulatedError),
    (lambda: encode(3, 1, 3, 1, -BIG), InputError),
    (lambda: var_index((1,), BIG, 2, 1, 2), InputError),
    (lambda: probe(3, 1, 3, 1, -BIG), InputError),
    (lambda: find_schur_number(1, 3, 1, 2, n_max=-BIG), InputError),
    (lambda: witness.guarantee(BIG, 2, 3), InputError),
    (lambda: witness.guarantee(1999, 1, 2000, 5), InputError),
    (lambda: var_point_color(0, 10, 5000, 2), InputError),
    (lambda: witness.find_monochromatic_clique(
        witness.EdgeColoredGraph(2, {(1, 2): 1}), -BIG), InputError),
    (lambda: witness.vandermonde_points(-BIG, 1), InputError),
    (lambda: witness.vandermonde_points(3, -BIG), InputError),
    (lambda: witness.EdgeColoredGraph(-BIG, {}), InputError),
    (lambda: witness.difference_matrix((BIG, 1)), InputError),
    (lambda: witness.graph_from_lattice_coloring(Coloring(1, BIG, 2, (1,)), 6, 2),
     InputError),
    (lambda: SchurTuple(((BIG,),), (1,)), InputError),
    (lambda: lattice.lift_solution(((BIG,),), (1,)), InputError),
    (lambda: render.render_ascii(Coloring(1, BIG, 2, (1,))), RenderError),
    (lambda: bounds.schur_3k_formula(-BIG), InputError),
    (lambda: bounds.RamseyEntry(2, 3, BIG, 1, "s"), InputError),
    (lambda: verify_free(Coloring.constant(2, 1, 2),
                         [SchurTuple(((1,), (BIG,)), (BIG + 1,))]), InputError),
    (lambda: CnfFormula(1, ((BIG,),)), InputError),
    (lambda: cdcl.Engine(1, [[BIG]]), InputError),
    (lambda: cdcl.Engine(1, []).add_clauses([[1, -BIG]]), InputError),
], ids=["oracle-n", "coloring-n", "coloring-d", "decode-n", "point-from-index-n",
        "point-index-coordinate", "box-points-n", "nondegenerate-j", "ramsey-k",
        "schur-upper-bound-k", "encode-r", "var-index-m", "probe-r", "search-n-max",
        "guarantee-d", "guarantee-threshold", "var-point-color-num-vars",
        "clique-k", "vandermonde-m", "vandermonde-d", "graph-m",
        "difference-matrix-indices", "lattice-graph-d", "schur-tuple-summands",
        "lift-summands", "render-ascii-d", "schur-3k-k", "ramsey-entry-lower",
        "verify-free-point", "cnf-literal", "engine-literal", "add-clauses-literal"])
def test_refusal_of_a_huge_integer_does_not_format_it(call, error):
    # str() refuses an integer of more than 4,300 digits with a bare
    # ValueError; the refusal must stay the documented type.
    with pytest.raises(error):
        call()


class TestFindSchurNumber:
    def test_one_color_degenerate(self):
        out = find_schur_number(1, 3, 1, 1)
        assert isinstance(out, Exact) and out.value == 2
        assert out.witness.n == 1
        assert out.refutation.n == 2

    def test_classical_two_colors(self, tmp_path):
        out = find_schur_number(
            1, 3, 1, 2, cert_dir=tmp_path, ledger_path=tmp_path / "ledger.csv"
        )
        assert isinstance(out, Exact) and out.value == 5
        assert out.witness.n == 4
        assert verify_certificate(out.witness) is None
        assert out.refutation.n == 5
        # certificates for N=1..4 on disk, ledger has one row per probe
        names = sorted(p.name for p in tmp_path.glob("*.cert.json"))
        assert names == [f"S_d1_j1_k3_r2_N{n}.cert.json" for n in (1, 2, 3, 4)]
        with (tmp_path / "ledger.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5"]
        assert rows[-1]["outcome"] == "not-colorable"

    def test_empty_ledger_gets_the_header(self, tmp_path):
        # A search killed right after creating its ledger leaves it empty.
        ledger = tmp_path / "ledger.csv"
        ledger.touch()
        find_schur_number(1, 3, 1, 2, ledger_path=ledger)
        with ledger.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5"]

    @pytest.mark.parametrize("d, k, j, r, n_max", [(2, 3, 2, 3, 17), (1, 3, 1, 2, None)])
    def test_certificates_and_refutation_record_the_ledger_time(
            self, tmp_path, d, k, j, r, n_max):
        # A level has one clock: its certificate or refutation and its ledger
        # row hold the same wall time.
        ledger = tmp_path / "ledger.csv"
        out = find_schur_number(d, k, j, r, n_max=n_max, cert_dir=tmp_path,
                                ledger_path=ledger)
        with ledger.open() as fh:
            rows = {int(row["n"]): int(row["wall_ms"]) for row in csv.DictReader(fh)}
        certs = [load_certificate(p) for p in tmp_path.glob("*.cert.json")]
        assert sorted(c.n for c in certs) == sorted(rows)[:len(certs)]
        for cert in certs:
            assert cert.provenance.wall_ms == rows[cert.n]
        if isinstance(out, Exact):
            assert out.refutation.wall_ms == rows[out.value]
        else:
            assert isinstance(out, LowerBound) and len(certs) == len(rows) == 16

    def test_n_max_gives_lower_bound(self):
        out = find_schur_number(2, 3, 2, 2, n_max=3)
        assert isinstance(out, LowerBound) and out.value == 3
        assert out.witness.n == 3
        assert verify_certificate(out.witness) is None

    def test_unknown_halts_as_inconclusive(self):
        out = find_schur_number(1, 3, 1, 3, budget=Budget(conflicts=1))
        assert isinstance(out, Inconclusive)
        assert out.statuses[-1][1].startswith("unknown")

    def test_exported_solver_is_not_read(self, tmp_path, monkeypatch):
        # Only the CLI reads $SCHUR_SOLVER. The library has no external engine
        # to escalate to, so the first Unknown ends the search, on record.
        monkeypatch.setenv("SCHUR_SOLVER", "kissat '-q")
        ledger = tmp_path / "results.csv"
        out = find_schur_number(1, 3, 1, 3, budget=Budget(conflicts=1),
                                cert_dir=tmp_path, ledger_path=ledger)
        assert isinstance(out, Inconclusive)
        assert out.statuses[-1] == (10, "unknown: internal solver budget exhausted "
                                        "(1 conflicts) after 1 conflicts, 4 decisions, "
                                        "0 deletion rounds")
        with ledger.open(newline="") as fh:
            rows = [(int(row["n"]), row["outcome"]) for row in csv.DictReader(fh)]
        assert rows == list(out.statuses)
        assert len(list(tmp_path.glob("*.cert.json"))) == 9

    def test_dimension_lifting_never_increases_value(self):
        d1 = find_schur_number(1, 3, 1, 2)
        d2 = find_schur_number(2, 3, 1, 2)
        assert isinstance(d1, Exact) and isinstance(d2, Exact)
        assert d2.value <= d1.value
        assert d2.value == 5

    def test_matches_known_value_registry(self):
        from schurlat.bounds import known_schur_numbers

        known = known_schur_numbers()
        for r in (1, 2):
            out = find_schur_number(1, 3, 1, r)
            assert isinstance(out, Exact) and out.value == known[r]

    def test_repeated_searches_return_identical_witnesses(self):
        a = find_schur_number(1, 3, 1, 2)
        b = find_schur_number(1, 3, 1, 2)
        assert isinstance(a, Exact) and isinstance(b, Exact)
        assert a.witness.coloring == b.witness.coloring

    def test_progress_callback_sees_every_level(self):
        seen = []
        out = find_schur_number(1, 3, 1, 2, progress=lambda n, s: seen.append((n, s)))
        assert isinstance(out, Exact)
        assert [n for n, _ in seen] == [1, 2, 3, 4, 5]

    def test_colorable_level_at_the_theorem_bound_is_a_fault(self, monkeypatch):
        assert _Box(2, 3, 2, 3).ceiling == 17**2 - 1
        assert _Box(1, 3, 1, 5).ceiling is None  # R_5(3) untabulated
        low = SchurUpperBound(4, ramsey_number(2, 3))
        monkeypatch.setattr(search, "schur_upper_bound", lambda d, j, r, k: low)
        # [4] is 2-colorable (the value is 5), so a bound of 4 is contradicted.
        with pytest.raises(IntegrityError, match="N=4"):
            find_schur_number(1, 3, 1, 2)

    def test_bad_ranges(self):
        with pytest.raises(InputError, match="n_max"):
            find_schur_number(1, 3, 1, 2, n_max=0)

    @pytest.mark.parametrize("d, k, j, r, floor", [(2, 3, 2, 3, 2), (3, 4, 3, 2, 3)])
    def test_box_enumerates_no_shell_to_find_its_floor(self, monkeypatch, d, k, j, r,
                                                        floor):
        def refuse(*args):
            raise AssertionError("a shell was enumerated")
        monkeypatch.setattr(search, "_points", refuse)
        assert _Box(d, k, j, r).floor == floor

    def test_shell_over_the_coordinate_ceiling_is_refused(self):
        # Shell 2 of [2]^40 has 2^40 - 1 points; none is built.
        with pytest.raises(SizeError, match="coordinates"):
            probe(2, 40, 3, 2, 2)

    @pytest.mark.parametrize("d, k, j, start", [
        (1, 3, 1, 1), (2, 3, 1, 1), (2, 3, 2, 2), (2, 4, 2, 3), (3, 4, 3, 3),
    ])
    def test_walk_starts_at_the_last_empty_family(self, d, k, j, start):
        # The largest N whose family is empty; every coloring of it is free.
        assert len(enumerate_tuples(start, d, k, j)) == 0
        assert len(enumerate_tuples(start + 1, d, k, j)) > 0
        seen = []
        find_schur_number(d, k, j, 2, n_max=start + 1,
                          progress=lambda n, status: seen.append(n))
        assert seen[0] == start

    def test_n_max_below_the_start(self):
        # The family of [2]^2 with k=4 is empty, so the walk starts at n_max.
        seen = []
        out = find_schur_number(2, 4, 2, 2, n_max=2,
                                progress=lambda n, status: seen.append(n))
        assert isinstance(out, LowerBound) and out.value == 2
        assert seen == [2]
        assert verify_certificate(out.witness) is None

    def test_refuted_first_level_is_a_fault(self, tmp_path):
        # The first level's family is empty, so a solver that refutes it lies.
        liar = tmp_path / "liar.py"
        liar.write_text("print('s UNSATISFIABLE')\n")
        with pytest.raises(IntegrityError, match="empty"):
            find_schur_number(2, 3, 2, 2, solver_command=(sys.executable, str(liar)),
                              ledger_path=tmp_path / "l.csv")
        assert not (tmp_path / "l.csv").exists()


class TestAscent:
    """Linear searches decide every level above the first with one engine
    whose formula grows shell by shell."""

    @pytest.mark.parametrize(
        "d, k, j, r, n_max",
        [(1, 3, 1, 2, 8), (1, 3, 1, 3, 5), (2, 3, 2, 2, 3), (2, 3, 1, 2, 3)],
    )
    def test_matches_per_level_probes_and_oracle(self, tmp_path, d, k, j, r, n_max):
        out = find_schur_number(d, k, j, r, n_max=n_max, cert_dir=tmp_path)
        colorable = [
            isinstance(probe(n, d, k, j, r), Certificate) for n in range(1, n_max + 1)
        ]
        # The row-major formula that `schurlat encode` writes, decided on its own.
        exported = [
            isinstance(solve_internal(encode(n, d, k, j, r)), Sat)
            for n in range(1, n_max + 1)
        ]
        oracle = [
            brute_force_oracle(n, d, k, j, r) is not None for n in range(1, n_max + 1)
        ]
        assert colorable == exported == oracle
        if all(colorable):
            assert isinstance(out, LowerBound) and out.value == n_max
        else:
            assert isinstance(out, Exact) and out.value == colorable.index(False) + 1
        top = out.value if isinstance(out, LowerBound) else out.value - 1
        # The walk starts at the largest N whose family is empty.
        start = max(n for n in range(1, n_max + 1) if len(enumerate_tuples(n, d, k, j)) == 0)
        certs = sorted(tmp_path.glob("*.cert.json"))
        assert sorted(load_certificate(p).n for p in certs) == list(range(start, top + 1))
        for path in certs:
            assert verify_certificate(load_certificate(path)) is None

    def test_conflict_counts_are_pinned(self, solve_conflicts):
        # The shared engine's count at every level of the three-color search,
        # 36 in all; a change not meant to alter the search keeps them.
        assert find_schur_number(1, 3, 1, 3).value == 14
        assert solve_conflicts == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 12, 23]

    def test_plane_conflict_counts_are_pinned(self, solve_conflicts):
        # The same for d=2, where shell order differs from row-major order.
        out = find_schur_number(2, 3, 2, 3, n_max=17)
        assert isinstance(out, LowerBound) and out.value == 17
        assert solve_conflicts == [0] * 13 + [12, 70, 8]

    def test_whole_plane_search_counters_are_pinned(self, solve_stats, decision_digest):
        # The refutation of N=18 crosses the 1e100 activity rescale and runs
        # learnt-clause deletion; no level below it reaches a deletion round.
        out = find_schur_number(2, 3, 2, 3)
        assert isinstance(out, Exact) and out.value == 18
        assert [s[0] for s in solve_stats] == [0] * 13 + [12, 70, 8, 2622]
        assert all(s[4] == 0 for s in solve_stats[:-1]) and solve_stats[-1][4] >= 1
        assert solve_stats[-1] == (2622, 3187, 50371, 1624, 1)
        # Every decision of the 17 solves, in order: 4,360 literals and a 0
        # closing each of the 16 satisfiable levels.
        assert decision_digest.hexdigest() == (
            "0662fc9a2e1f6265a1ef5f0cd8b60a9fe6113510b610f2b724cc90651eb5da38")

    def test_conflict_budget_applies_per_level(self, solve_conflicts):
        per_level = solve_conflicts
        assert find_schur_number(1, 3, 1, 3).value == 14
        budget = max(per_level) + 1
        assert budget < sum(per_level)  # a whole-search budget would run out
        out = find_schur_number(1, 3, 1, 3, budget=Budget(conflicts=budget))
        assert isinstance(out, Exact) and out.value == 14

    def test_symmetry_break(self, tmp_path):
        # Color precedence is always on. With r=4 the first three points of
        # shell order, (1,1), (1,2) and (2,1), keep colors 4, 3..4 and 2..4
        # in every certificate.
        out = find_schur_number(2, 3, 2, 2)
        assert isinstance(out, Exact) and out.value == 7
        assert out.witness.coloring.color_of((1, 1)) == 2
        out = find_schur_number(2, 3, 2, 4, n_max=8, cert_dir=tmp_path)
        assert isinstance(out, LowerBound) and out.value == 8
        certs = [load_certificate(p) for p in tmp_path.glob("*.cert.json")]
        assert len(certs) == 7
        for cert in certs:
            colors = [cert.coloring.color_of(p) for p in [(1, 1), (1, 2), (2, 1)]]
            assert colors[0] == 4 and colors[1] >= 3 and colors[2] >= 2

    def test_escalation_keeps_the_search_going(self, tmp_path, internal_solver_cmd):
        # An external solver that gives up after two conflicts answers every
        # level of the three-color search but N=13 and N=14: the shared
        # engine, which holds the same formula, answers those.
        command = (*internal_solver_cmd, "--max-conflicts", "2")
        ledger = tmp_path / "ledger.csv"
        out = find_schur_number(1, 3, 1, 3, solver_command=command, ledger_path=ledger)
        assert isinstance(out, Exact) and out.value == 14
        with ledger.open() as fh:
            internal = [int(row["n"]) for row in csv.DictReader(fh)
                        if row["solver"] == "schurlat-cdcl"]
        assert internal == [13, 14]
        assert out.witness.provenance.solver == "schurlat-cdcl"
        assert out.refutation.solver == "schurlat-cdcl"
        assert verify_certificate(out.witness) is None

    def test_external_engine_search_in_the_plane(self, tmp_path, internal_solver_cmd):
        # The external solver gets the search's shell-numbered formula; its
        # models are decoded through the shell bases.
        out = find_schur_number(2, 3, 2, 2, solver_command=tuple(internal_solver_cmd),
                                cert_dir=tmp_path)
        assert isinstance(out, Exact) and out.value == 7
        assert out.refutation.solver.startswith("external:")
        certs = [load_certificate(p) for p in sorted(tmp_path.glob("*.cert.json"))]
        assert sorted(c.n for c in certs) == list(range(2, 7))
        for cert in certs:
            assert cert.provenance.solver.startswith("external:")
            assert verify_certificate(cert) is None

    def test_escalation_from_external_to_internal(self):
        # A solver that prints nothing answers Unknown; the internal engine,
        # which holds the same formula, answers instead.
        out = find_schur_number(2, 3, 2, 2, solver_command=(sys.executable, "-c", "pass"))
        assert isinstance(out, Exact) and out.value == 7
        assert out.witness.provenance.solver == "schurlat-cdcl"
        assert out.refutation.solver == "schurlat-cdcl"
        assert verify_certificate(out.witness) is None

    def test_first_engines_unknown_stands(self):
        # N=10 is the first level that needs a conflict: the silent external
        # solver and the budgeted internal engine both give up there, and the
        # level records the external engine's reason.
        out = find_schur_number(1, 3, 1, 3, budget=Budget(conflicts=1),
                                solver_command=(sys.executable, "-c", "pass"))
        assert isinstance(out, Inconclusive)
        assert out.statuses[-1] == (10, "unknown: no status line")


class TestCertificates:
    def test_round_trip(self, tmp_path):
        out = probe(4, 1, 3, 1, 2)
        assert isinstance(out, Certificate)
        path = save_certificate(out, tmp_path)
        assert path.name == certificate_filename(out)
        loaded = load_certificate(path)
        assert loaded == out

    def test_failed_write_leaves_no_partial_certificate(self, tmp_path, monkeypatch):
        cert = make_cert(2, 2, 2, 3, 2)
        path = save_certificate(cert, tmp_path)
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            save_certificate(make_cert(2, 2, 2, 3, 2, Coloring(2, 2, 2, (1, 2, 2, 1))),
                             tmp_path)
        with pytest.raises(OSError, match="disk full"):
            save_certificate(make_cert(3, 2, 2, 3, 2), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == before

    def test_schema_fields(self, tmp_path):
        cert = make_cert(2, 2, 2, 3, 2)
        path = save_certificate(cert, tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["params"] == {"d": 2, "j": 2, "k": 3, "r": 2, "n": 2}
        assert doc["colors"] == [1, 1, 1, 1]
        assert set(doc["provenance"]) == {"solver", "seed", "wall_ms", "created"}

    def test_certificate_bytes_are_pinned(self, tmp_path):
        # Schema v1: params, colors and provenance, with "seed": null.
        coloring = Coloring(5, 2, 3, tuple((i * 7) % 3 + 1 for i in range(25)))
        cert = Certificate(coloring, 3, 2,
                           Provenance("schurlat-cdcl", 12, "2026-01-01T00:00:00Z"))
        data = save_certificate(cert, tmp_path).read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "b7a465f8c2338ad40abb3539af6ace921549df05127e62b532c4a53f07a6a71b")

    def test_stored_seed_is_not_read(self, tmp_path):
        cert = probe(6, 2, 3, 2, 2)
        path = save_certificate(cert, tmp_path)
        doc = json.loads(path.read_text())
        doc["provenance"]["seed"] = 7
        path.write_text(json.dumps(doc))
        loaded = load_certificate(path)
        assert loaded == cert
        assert verify_certificate(loaded) is None

    def test_absent_provenance_keys_keep_their_defaults(self, tmp_path):
        path = save_certificate(make_cert(2, 2, 2, 3, 2), tmp_path)
        doc = json.loads(path.read_text())
        doc["provenance"] = {}
        path.write_text(json.dumps(doc))
        assert load_certificate(path).provenance == Provenance("?", 0, "?")
        del doc["provenance"]
        path.write_text(json.dumps(doc))
        assert load_certificate(path).provenance == Provenance("?", 0, "?")

    def test_verify_constant_coloring_invalid(self):
        cert = make_cert(3, 2, 2, 3, 2)
        violation = verify_certificate(cert)
        assert violation is not None
        assert violation.tuple.summands == ((1, 1), (1, 2))

    def test_verify_empty_family_valid(self):
        assert verify_certificate(make_cert(2, 2, 2, 3, 2)) is None

    def test_load_errors(self, tmp_path):
        bad = tmp_path / "bad.cert.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_certificate(bad)
        bad.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ParseError):
            load_certificate(bad)
        bad.write_text(json.dumps({
            "schema_version": 1,
            "params": {"d": 1, "j": 1, "k": 3, "r": 2, "n": 3},
            "colors": [1, 2],  # wrong length
        }))
        with pytest.raises(ParseError):
            load_certificate(bad)
        with pytest.raises(ParseError):
            load_certificate(tmp_path / "missing.cert.json")


# (n, d, k, j, r), including an empty family (2, 2, 3, 2, 3).
VERIFY_PARAMS = [
    (14, 1, 3, 1, 3), (16, 1, 3, 1, 3), (12, 1, 4, 1, 2), (6, 2, 3, 2, 2),
    (7, 2, 3, 1, 2), (9, 2, 4, 2, 3), (5, 3, 4, 3, 2), (4, 3, 3, 2, 2),
    (2, 2, 3, 2, 3),
]


def _largest_free_coloring(n, d, k, j, r):
    """The certified coloring of the largest colorable box up to [n]^d."""
    return find_schur_number(d, k, j, r, n_max=n).witness.coloring


class TestVerifyCertificate:
    @pytest.mark.parametrize("n, d, k, j, r", VERIFY_PARAMS)
    def test_agrees_with_the_whole_family(self, n, d, k, j, r):
        family = enumerate_tuples(n, d, k, j)
        free = _largest_free_coloring(n, d, k, j, r)
        rng = random.Random(n * 1000 + d * 100 + k * 10 + j)
        # The free coloring extended to [n]^d by random colors, then corrupted
        # at a few random points, and colorings that are random throughout.
        extended = [free.color_of(p) if max(p) <= free.n else rng.randint(1, r)
                    for p in box_points(n, d)]
        colorings = [extended]
        for _ in range(12):
            colors = list(extended)
            for _ in range(rng.randint(1, 3)):
                colors[rng.randrange(len(colors))] = rng.randint(1, r)
            colorings.append(colors)
        colorings += [[rng.randint(1, r) for _ in range(n**d)] for _ in range(12)]
        violations = 0
        for colors in colorings:
            coloring = Coloring(n, d, r, tuple(colors))
            expected = verify_free(coloring, family)
            assert verify_certificate(make_cert(n, d, j, k, r, coloring)) == expected
            violations += expected is not None
        assert violations > 0 or len(family) == 0

    @pytest.mark.parametrize("n, d, k, j, r", [
        (13, 1, 3, 1, 3), (6, 2, 3, 2, 2), (9, 2, 4, 2, 3), (5, 3, 4, 3, 2),
    ])
    def test_valid_certificate_builds_no_tuple(self, n, d, k, j, r, monkeypatch):
        cert = make_cert(n, d, j, k, r, _largest_free_coloring(n, d, k, j, r))

        def refuse(*args, **kwargs):
            raise AssertionError("a SchurTuple was built")

        monkeypatch.setattr(SchurTuple, "__init__", refuse)
        assert verify_certificate(cert) is None

    def test_headline_certificates_are_checked_without_the_splitter(self, monkeypatch):
        # For k = 3 the check does not use the family walk the formula was
        # built from: the certificates below Exact 5, 14, 7 and 18 and
        # LowerBound 24 verify with lattice._family refusing to run, and
        # recolored copies give the violation the whole family gives.
        certs = [find_schur_number(d, 3, j, r, n_max=n).witness for n, d, j, r in [
            (4, 1, 1, 2), (13, 1, 1, 3), (6, 2, 2, 2), (17, 2, 2, 3), (24, 2, 2, 4)]]
        rng = random.Random(24)
        recolored = []
        for cert in certs:
            colors = list(cert.coloring.colors)
            for _ in range(3):
                colors[rng.randrange(len(colors))] = rng.randint(1, cert.r)
            copy = make_cert(cert.n, cert.d, cert.j, 3, cert.r,
                             Coloring(cert.n, cert.d, cert.r, tuple(colors)))
            family = enumerate_tuples(cert.n, cert.d, 3, cert.j)
            recolored.append((copy, verify_free(copy.coloring, family)))
        assert any(expected is not None for _, expected in recolored)

        def refuse(*args, **kwargs):
            raise AssertionError("the family walk ran")

        monkeypatch.setattr(lattice, "_family", refuse)
        assert [cert.n for cert in certs] == [4, 13, 6, 17, 24]
        assert all(verify_certificate(cert) is None for cert in certs)
        for copy, expected in recolored:
            assert verify_certificate(copy) == expected

    def test_a_splitter_fault_cannot_pass_a_coloring(self, monkeypatch):
        # A family walk that drops the tuples of shell 7 drops them from the
        # formula of [7]^2, which then has free 2-colorings by its clauses;
        # the value is 7, so each is caught by the check of the model.
        family = lattice._family

        def faulty(totals, k, j, color_of=None):
            return ((summands, total) for summands, total in family(totals, k, j, color_of)
                    if max(total) != 7)

        monkeypatch.setattr(lattice, "_family", faulty)
        with pytest.raises(IntegrityError, match="monochromatic tuple"):
            probe(7, 2, 3, 2, 2)

    def test_bad_family_parameters(self):
        with pytest.raises(InputError):
            verify_certificate(make_cert(3, 1, 1, 2, 2))
        with pytest.raises(InputError):
            verify_certificate(make_cert(3, 2, 3, 3, 2))


class TestSolverOrder:
    """probe(7, 2, 3, 2, 2) is a refutation: N=7 is the d2 k3 r2 value."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        solve = cdcl.Engine.solve

        def internal(engine, budget=None):
            calls.append("internal")
            return solve(engine, budget)

        monkeypatch.setattr(cdcl.Engine, "solve", internal)
        return calls

    def external(self, monkeypatch, calls, answer):
        def solve_external(formula, command, budget=None):
            calls.append("external")
            return answer

        monkeypatch.setattr(sat, "solve_external", solve_external)

    @pytest.mark.parametrize("command", [None, ()], ids=["none", "empty"])
    def test_no_command_runs_the_internal_engine_alone(self, monkeypatch, calls, command):
        def formula(box):
            raise AssertionError("formula rebuilt with no solver named")

        monkeypatch.setattr(_Box, "formula", formula)
        self.external(monkeypatch, calls, sat.Unsat())
        out = probe(7, 2, 3, 2, 2, solver_command=command)
        assert calls == ["internal"]
        assert out == UnsatRecord(7, "schurlat-cdcl", out.wall_ms)

    def test_an_external_unknown_goes_to_the_internal_engine(self, monkeypatch, calls):
        self.external(monkeypatch, calls, Unknown("gave up"))
        out = probe(7, 2, 3, 2, 2, solver_command=("s",))
        assert calls == ["external", "internal"]
        assert out == UnsatRecord(7, "schurlat-cdcl", out.wall_ms)

    def test_an_external_answer_stands(self, monkeypatch, calls):
        self.external(monkeypatch, calls, sat.Unsat())
        out = probe(7, 2, 3, 2, 2, solver_command=("s",))
        assert calls == ["external"]
        assert out == UnsatRecord(7, "external:s", out.wall_ms)

    def test_string_solver_command_refused(self, monkeypatch, calls, tmp_path):
        # Provenance joins the argv words; a str would be split into
        # characters. It is refused before the first level, "" too.
        self.external(monkeypatch, calls, sat.Unsat())
        for command in ("python3 -m x", ""):
            with pytest.raises(InputError, match="argv words, not a str"):
                probe(7, 2, 3, 2, 2, solver_command=command)
            with pytest.raises(InputError, match="argv words, not a str"):
                find_schur_number(2, 3, 2, 2, solver_command=command, cert_dir=tmp_path,
                                  ledger_path=tmp_path / "results.csv")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

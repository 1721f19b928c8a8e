"""Command-line behavior: flags, outputs, and exit codes."""

import csv
import json
import os
import random
import shlex
import stat
import sys
import threading
import time

import pytest

from schurlat import search
from schurlat.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTEGRITY,
    EXIT_INVALID_INPUT,
    EXIT_LOWER_BOUND,
    EXIT_OK,
    main,
)
from schurlat.encoder import encode
from schurlat.lattice import Coloring
from schurlat.search import (
    Certificate,
    Provenance,
    find_schur_number,
    save_certificate,
)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def free_cert_path(tmp_path):
    cert = Certificate(
        Coloring(4, 1, 2, (1, 2, 2, 1)), 3, 1,
        Provenance("handmade", 0, "2026-01-01T00:00:00Z"),
    )
    return save_certificate(cert, tmp_path)


@pytest.fixture
def invalid_cert_path(tmp_path):
    cert = Certificate(
        Coloring.constant(3, 2, 2), 3, 2,
        Provenance("handmade", 0, "2026-01-01T00:00:00Z"),
    )
    return save_certificate(cert, tmp_path / "bad")


class TestEncode:
    def test_writes_expected_header(self, tmp_path, capsys):
        out = tmp_path / "f.cnf"
        code, _, err = run(
            ["encode", "--d", "2", "--j", "2", "--k", "3", "--r", "2",
             "--n", "3", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert "p cnf 9 6" in out.read_text()
        assert "9 variables, 6 clauses" in err

    def test_trivial_formula(self, tmp_path, capsys):
        out = tmp_path / "f.cnf"
        code, _, _ = run(
            ["encode", "--d", "2", "--k", "3", "--r", "2", "--n", "2",
             "--j", "2", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert "p cnf 4 0" in out.read_text()

    def test_stdout_default(self, capsys):
        code = main(["encode", "--d", "1", "--r", "2", "--n", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "p cnf 3" in captured.out

    def test_symmetry_break_with_one_color_exits_4(self, tmp_path, capsys):
        # With r=1 there is no variable to restrict.
        out = tmp_path / "f.cnf"
        code, _, err = run(["encode", "--d", "1", "--r", "1", "--n", "3",
                            "--symmetry-break", "--out", str(out)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert "symmetry breaking needs r >= 2" in err
        assert not out.exists()

    def test_help_describes_color_precedence(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "the i-th point of shell order" in text
        assert "one of the last i colors, so (1,...,1) has color r" in text

    def test_default_j_is_min_d_kminus1(self, tmp_path, capsys):
        out = tmp_path / "f.cnf"
        code, _, _ = run(
            ["encode", "--d", "2", "--k", "3", "--r", "2", "--n", "3",
             "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert "j=2" in out.read_text()  # metadata comment carries the default


class TestSearch:
    def test_degenerate_one_color(self, tmp_path, capsys):
        code, out, err = run(
            ["search", "--d", "1", "--j", "1", "--k", "3", "--r", "1",
             "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.startswith("Exact 2")
        # The witness is the free coloring of [1], the walk's first level.
        cert = err.split("certificate: ", 1)[1].strip()
        assert cert.endswith("S_d1_j1_k3_r1_N1.cert.json")
        code, out, _ = run(["verify", cert], capsys)
        assert code == EXIT_OK
        assert out.startswith("Valid")

    def test_classical_exact_five(self, tmp_path, capsys):
        code, out, _ = run(
            ["search", "--d", "1", "--j", "1", "--k", "3", "--r", "2",
             "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.startswith("Exact 5")
        assert (tmp_path / "S_d1_j1_k3_r2_N4.cert.json").exists()
        assert (tmp_path / "results.csv").exists()

    def test_matches_library_value(self, tmp_path, capsys):
        outcome = find_schur_number(1, 3, 1, 2)
        code, out, _ = run(
            ["search", "--d", "1", "--r", "2", "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.startswith(f"Exact {outcome.value}")

    def test_lower_bound_exit_code(self, tmp_path, capsys):
        code, out, _ = run(
            ["search", "--d", "2", "--j", "2", "--k", "3", "--r", "2",
             "--n-max", "3", "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_LOWER_BOUND
        assert out.startswith("LowerBound 3")

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        # The budget is checked every 256 conflicts: the levels below N=18
        # need fewer, and N=18 runs out.
        code, out, err = run(
            ["search", "--d", "2", "--r", "3", "--budget-s", "1e-9",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_INCONCLUSIVE
        assert out.startswith("Inconclusive")
        assert "N=18: unknown" in err

    def test_no_escalate_is_an_unknown_flag(self, tmp_path, capsys):
        # An Unknown always goes to the other engine when there is one.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "1", "--r", "2", "--no-escalate",
                  "--out", str(tmp_path)])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "--no-escalate" in capsys.readouterr().err

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        _, _, err = run(
            ["search", "--d", "1", "--r", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert "N=2: colorable" in err
        assert "N=5: not-colorable" in err

    def test_zero_budget_exits_4(self, tmp_path, capsys):
        code, _, err = run(
            ["search", "--d", "1", "--r", "2", "--budget-s", "0",
             "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "budget" in err
        assert list(tmp_path.iterdir()) == []

    def test_nan_budget_exits_4(self, tmp_path, capsys):
        # NaN is not a positive number of seconds; it must not mean "no limit".
        code, _, err = run(
            ["search", "--d", "1", "--r", "2", "--budget-s", "nan",
             "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "budget" in err
        assert list(tmp_path.iterdir()) == []

    def test_n_max_below_one_exits_4(self, tmp_path, capsys):
        code, _, err = run(
            ["search", "--d", "1", "--r", "2", "--n-max", "0",
             "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "n_max" in err
        assert list(tmp_path.iterdir()) == []

    def test_n_start_is_an_unknown_flag(self, tmp_path, capsys):
        # The walk's start is worked out from the family; it is not an option.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "1", "--r", "2", "--n-start", "3",
                  "--out", str(tmp_path)])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "--n-start" in capsys.readouterr().err

    def test_refuted_first_level_exits_5(self, tmp_path, capsys):
        # [2]^2 has an empty family, so a solver that refutes it lies.
        liar = tmp_path / "liar.py"
        liar.write_text("print('s UNSATISFIABLE')\n")
        code, _, err = run(
            ["search", "--d", "2", "--r", "2",
             "--solver-cmd", f"{sys.executable} {liar}",
             "--out", str(tmp_path / "certs"), "-q"],
            capsys,
        )
        assert code == EXIT_INTEGRITY
        assert "integrity error" in err

    def test_missing_required_flag_exits_4(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "1", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_INVALID_INPUT

    def test_engine_is_an_unknown_flag(self, tmp_path, capsys):
        # Naming a solver is what selects it; there is no engine option.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "1", "--r", "2", "--engine", "external",
                  "--out", str(tmp_path / "certs")])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "--engine" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_missing_solver_program_exits_4(self, tmp_path, capsys, monkeypatch, source):
        # The named solver decides first, so a program that is not there
        # would hand every level to the fallback unnoticed.
        missing = str(tmp_path / "no-such-solver")
        if source == "flag":
            flags = ["--solver-cmd", missing]
        else:
            flags = []
            monkeypatch.setenv("SCHUR_SOLVER", missing)
        out_dir = tmp_path / "certs"
        code, out, err = run(["search", "--d", "2", "--r", "2", *flags,
                              "--out", str(out_dir), "-q"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "not found" in err and "no-such-solver" in err
        assert not out_dir.exists()

    def test_symmetry_break_with_one_color_exits_4(self, tmp_path, capsys):
        # The search has no symmetry option: color precedence is always on.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "1", "--r", "1", "--symmetry-break",
                  "--out", str(tmp_path), "-q"])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "unrecognized arguments: --symmetry-break" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_symmetry_break_is_an_unknown_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "2", "--r", "3", "--symmetry-break",
                  "--out", str(tmp_path / "certs"), "-q"])
        assert exc.value.code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --symmetry-break" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_one_color_search_gets_no_units(self, tmp_path, capsys):
        # With r=1 there is no variable, so the search decides the default
        # encoding, renumbered (for d=1 the numberings agree).
        code, out, _ = run(["search", "--d", "1", "--r", "1",
                            "--out", str(tmp_path), "-q"], capsys)
        assert code == EXIT_OK
        assert out.startswith("Exact 2")
        box = search._Box(1, 3, 1, 1)
        box._grow(2)
        assert box.formula().clauses == encode(2, 1, 3, 1, 1).clauses

    @pytest.fixture
    def malformed_solver(self, tmp_path):
        """A solver that claims a model but prints a v-line it cannot mean."""
        script = tmp_path / "malformed.py"
        script.write_text("print('s SATISFIABLE')\nprint('v 1 x 0')\n")
        return f"{sys.executable} {script}"

    def test_unreadable_external_answer_escalates(self, tmp_path, capsys,
                                                  malformed_solver):
        out_dir = tmp_path / "certs"
        code, out, _ = run(
            ["search", "--d", "1", "--r", "2",
             "--solver-cmd", malformed_solver, "--out", str(out_dir), "-q"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.startswith("Exact 5")
        doc = json.loads((out_dir / "S_d1_j1_k3_r2_N4.cert.json").read_text())
        assert doc["provenance"]["solver"] == "schurlat-cdcl"

    def test_unbalanced_quote_in_solver_cmd_exits_4(self, tmp_path, capsys):
        code, _, err = run(
            ["search", "--d", "1", "--r", "2",
             "--solver-cmd", "kissat '-q", "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "solver command" in err

    def test_unbalanced_quote_in_solver_env_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCHUR_SOLVER", "kissat '-q")
        code, _, err = run(
            ["search", "--d", "1", "--r", "2",
             "--out", str(tmp_path), "-q"],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "solver command" in err

    @pytest.mark.parametrize("flags", [[], ["--budget-s", "1e-9"]],
                             ids=["no-budget", "budget"])
    def test_unparsable_solver_env_exits_4_before_any_level(self, tmp_path, capsys,
                                                            monkeypatch, flags):
        # $SCHUR_SOLVER is the default of --solver-cmd, so it is checked even
        # when the internal engine might never need it.
        monkeypatch.setenv("SCHUR_SOLVER", "kissat '-q")
        code, out, err = run(["search", "--d", "1", "--r", "3", *flags,
                              "--out", str(tmp_path / "certs"), "-q"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "cannot parse solver command" in err
        assert list(tmp_path.iterdir()) == []

    def test_solver_env_is_the_default_solver_cmd(self, tmp_path, capsys, monkeypatch,
                                                  internal_solver_cmd):
        monkeypatch.setenv("SCHUR_SOLVER", shlex.join(internal_solver_cmd))
        out_dir = tmp_path / "certs"
        code, out, _ = run(["search", "--d", "1", "--r", "2",
                            "--out", str(out_dir), "-q"], capsys)
        assert code == EXIT_OK
        assert out.startswith("Exact 5")
        doc = json.loads((out_dir / "S_d1_j1_k3_r2_N4.cert.json").read_text())
        assert doc["provenance"]["solver"] == "external:" + shlex.join(internal_solver_cmd)

    def test_solver_cmd_wins_over_the_env(self, tmp_path, capsys, monkeypatch,
                                          internal_solver_cmd):
        # Were the exported command the one in use, the CLI would refuse it as
        # not found (exit 4); the provenance names the flag's solver.
        monkeypatch.setenv("SCHUR_SOLVER", str(tmp_path / "no-such-solver"))
        out_dir = tmp_path / "certs"
        code, out, _ = run(["search", "--d", "1", "--r", "2",
                            "--solver-cmd", shlex.join(internal_solver_cmd),
                            "--out", str(out_dir), "-q"], capsys)
        assert code == EXIT_OK
        assert out.startswith("Exact 5")
        doc = json.loads((out_dir / "S_d1_j1_k3_r2_N4.cert.json").read_text())
        assert doc["provenance"]["solver"] == "external:" + shlex.join(internal_solver_cmd)

    def test_provenance_names_the_whole_solver_command(self, tmp_path, capsys,
                                                       internal_solver_cmd):
        # Two solvers started through one interpreter are told apart, in the
        # ledger and in the certificates.
        recorded = []
        for extra in ([], ["--max-conflicts", "1000"]):
            command = shlex.join([*internal_solver_cmd, *extra])
            out_dir = tmp_path / f"run{len(recorded)}"
            code, out, _ = run(["search", "--d", "1", "--r", "2", "--solver-cmd",
                                command, "--out", str(out_dir), "-q"], capsys)
            assert code == EXIT_OK
            assert out.startswith("Exact 5")
            with (out_dir / "results.csv").open(newline="") as fh:
                solvers = {row["solver"] for row in csv.DictReader(fh)}
            doc = json.loads((out_dir / "S_d1_j1_k3_r2_N4.cert.json").read_text())
            assert solvers == {doc["provenance"]["solver"]} == {"external:" + command}
            recorded.append(solvers)
        assert recorded[0] != recorded[1]


@pytest.mark.parametrize("args", [
    ["search", "--d", "40", "--r", "2"],  # shell 2 has 2^40 - 1 points
    ["search", "--d", "100000000", "--k", "3", "--j", "1", "--r", "2"],  # shell 1
    ["encode", "--n", "1", "--d", "100000000", "--k", "3", "--j", "1", "--r", "2"],
], ids=["search-shell-2", "search-shell-1", "encode"])
def test_points_over_the_coordinate_ceiling_exit_4_at_once(args, tmp_path, capsys):
    out = tmp_path / "out"
    t0 = time.monotonic()
    code, _, err = run([*args, "--out", str(out)], capsys)
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INVALID_INPUT
    assert err.startswith("error:") and "16777216 coordinates" in err
    assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_valid_certificate(self, free_cert_path, capsys):
        code, out, _ = run(["verify", str(free_cert_path)], capsys)
        assert code == EXIT_OK
        assert out.startswith("Valid")

    def test_invalid_certificate(self, invalid_cert_path, capsys):
        code, out, _ = run(["verify", str(invalid_cert_path)], capsys)
        assert code == EXIT_INTEGRITY
        assert out.startswith("Invalid")
        assert "color 1" in out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, _, err = run(["verify", str(bad)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert "error" in err

    def test_huge_dimension_exits_4_at_once(self, tmp_path, capsys):
        # [3]^(10^7) would need 3**10**7 colors; the file holds one.
        bad = tmp_path / "huge.cert.json"
        bad.write_text('{"schema_version": 1, "colors": [1], "params": '
                       '{"n": 3, "d": 10000000, "r": 1, "k": 3, "j": 1}}')
        t0 = time.monotonic()
        code, out, err = run(["verify", str(bad)], capsys)
        assert time.monotonic() - t0 < 1.0
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "expected 3^10000000" in err

    def test_box_too_small_for_a_tuple_is_valid_at_once(self, tmp_path, capsys):
        # [1]^(10^9) has one point, and a total needs every coordinate >= k-1
        # = 2, so it is free; no point of 10^9 coordinates is built.
        cert = tmp_path / "tiny.cert.json"
        cert.write_text('{"schema_version": 1, "colors": [1], "params": '
                        '{"n": 1, "d": 1000000000, "r": 1, "k": 3, "j": 1}}')
        t0 = time.monotonic()
        code, out, err = run(["verify", str(cert)], capsys)
        assert time.monotonic() - t0 < 1.0
        assert code == EXIT_OK
        assert out.startswith("Valid: free coloring of [1]^1000000000")

    @pytest.mark.parametrize("params, colors", [
        ({"n": 4.9}, [1, 2, 2, 1]),
        ({}, [1.9, 2.2, 2.7, 1.1]),
        ({"r": True}, [1, 1, 1, 1]),
        ({"k": "3"}, [1, 2, 2, 1]),
    ], ids=["float-n", "float-colors", "bool-r", "string-k"])
    def test_non_integer_values_exit_4(self, free_cert_path, capsys, params, colors):
        # Each file would verify as Valid if its values were coerced to int.
        doc = json.loads(free_cert_path.read_text())
        doc["params"].update(params)
        doc["colors"] = colors
        free_cert_path.write_text(json.dumps(doc))
        code, out, err = run(["verify", str(free_cert_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "integer" in err

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_non_integer_schema_version_exits_4(self, free_cert_path, capsys, version):
        text = free_cert_path.read_text().replace('"schema_version": 1',
                                                  f'"schema_version": {version}')
        free_cert_path.write_text(text)
        code, out, err = run(["verify", str(free_cert_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "schema_version must be an integer" in err

    @pytest.mark.parametrize("provenance, word", [
        ('[1, 2]', "provenance"),
        ('{"solver": "x", "wall_ms": 1e400}', "wall_ms must be an integer"),
        ('{"solver": "x", "wall_ms": "12"}', "wall_ms must be an integer"),
        ('{"solver": "x", "wall_ms": true}', "wall_ms must be an integer"),
        ('{"solver": null}', "solver must be a string"),
        ('{"solver": "x", "created": 4.5}', "created must be a string"),
    ], ids=["provenance-not-an-object", "infinite-wall-ms", "string-wall-ms",
            "bool-wall-ms", "null-solver", "number-created"])
    def test_bad_provenance_exits_4(self, free_cert_path, capsys, provenance, word):
        # json reads 1e400 as an infinite float. Coerced, "12" and true loaded
        # as the integers 12 and 1, and null and 4.5 as the strings 'None'
        # and '4.5'.
        doc = json.loads(free_cert_path.read_text())
        doc["provenance"] = "PROVENANCE"
        free_cert_path.write_text(json.dumps(doc).replace('"PROVENANCE"', provenance))
        code, out, err = run(["verify", str(free_cert_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert word in err


class TestWitness:
    def test_random_seed_mode(self, capsys):
        code, out, _ = run(
            ["witness", "--d", "1", "--k", "3", "--r", "2", "--random-seed", "7"],
            capsys,
        )
        assert code == EXIT_OK
        assert "clique vertices:" in out
        assert "vandermonde determinant" in out

    def test_coloring_mode_with_json_output(self, tmp_path, capsys):
        # a certificate big enough for extraction: constant coloring of [35]^2
        cert = Certificate(
            Coloring.constant(35, 2, 2), 3, 2,
            Provenance("handmade", 0, "2026-01-01T00:00:00Z"),
        )
        cert_path = save_certificate(cert, tmp_path)
        out_path = tmp_path / "witness.json"
        code, out, _ = run(
            ["witness", "--k", "3", "--coloring", str(cert_path),
             "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["params"] == {"d": 2, "j": 2, "k": 3, "r": 2, "n": 35}
        w = doc["witness"]
        assert len(w["clique"]) == 3
        assert [sum(c) for c in zip(*w["summands"])] == w["sum"]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_box_size_exits_4(self, capsys, n):
        code, out, err = run(
            ["witness", "--d", "1", "--r", "2", "--random-seed", "7", "--n", n],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""

    @pytest.mark.parametrize("flags, word", [
        (["--d", "3", "--k", "4"], "[5831]^3 has more than 16777216 points"),
        (["--d", "2", "--n", "4097"], "[4097]^2 has more than 16777216 points"),
        (["--d", "10000000"], "1 <= d <= 24"),  # default n: 6**10**7 - 1
        (["--d", "25", "--n", "2"], "1 <= d <= 24"),
        (["--d", "0"], "1 <= d <= 24"),
        (["--d", "-1"], "1 <= d <= 24"),
    ], ids=["default-n", "explicit-n", "absurd-d", "d-25", "d-0", "negative-d"])
    def test_box_beyond_the_ceiling_exits_4_at_once(self, capsys, flags, word):
        # R_2(4) = 18 gives [18^3 - 1]^3, 1.98e11 points, by default.
        t0 = time.monotonic()
        code, out, err = run(["witness", "--r", "2", "--random-seed", "1", *flags],
                             capsys)
        assert time.monotonic() - t0 < 1.0
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert word in err

    def test_three_color_plane_box_is_drawn(self, capsys):
        # R_3(3) = 17: [288]^2 has 82,944 points, well below the ceiling.
        code, out, _ = run(
            ["witness", "--d", "2", "--k", "3", "--r", "3", "--random-seed", "1"],
            capsys,
        )
        assert code == EXIT_OK
        assert "clique vertices:" in out

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(["witness", "--d", "1", "--r", "2"], capsys)
        assert code == EXIT_INVALID_INPUT

    def test_random_mode_needs_r(self, capsys):
        code, _, err = run(["witness", "--d", "1", "--random-seed", "3"], capsys)
        assert code == EXIT_INVALID_INPUT

    def test_j_is_an_unknown_flag(self, capsys):
        # The construction always has j = d, so there is no --j to ignore.
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--d", "2", "--k", "3", "--r", "2",
                  "--random-seed", "7", "--j", "7"])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "--j" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--r", "2"], ["--n", "4"], ["--r", "2", "--n", "4"],
                                       ["--d", "5"]],
                             ids=["r", "n", "r-and-n", "d"])
    def test_coloring_refuses_r_and_n(self, free_cert_path, capsys, flags):
        # The certificate fixes d, r and n; a flag for any would be ignored.
        code, out, err = run(["witness", "--coloring", str(free_cert_path), *flags],
                             capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "--coloring" in err

    def test_inexact_ramsey_refused(self, capsys):
        code, _, err = run(
            ["witness", "--d", "2", "--k", "3", "--r", "4", "--random-seed", "1"],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "not exactly known" in err

    @pytest.mark.parametrize("flags, word", [
        (["--d", "3", "--k", "3", "--r", "2"], "need k >= d+1 = 4, got k=3"),
        (["--d", "2", "--k", "3", "--r", "4"], "not exactly known"),
        (["--d", "2", "--k", "3", "--r", "2", "--n", "34"],
         "box [34]^2 below the guarantee threshold [35]^2"),
    ], ids=["k-below-d+1", "inexact-ramsey", "n-below-threshold"])
    def test_guarantee_is_checked_before_any_color_is_drawn(self, capsys, monkeypatch,
                                                           flags, word):
        def no_rng(*args):
            raise AssertionError("a random coloring was started")

        monkeypatch.setattr(random, "Random", no_rng)
        code, out, err = run(["witness", *flags, "--random-seed", "1"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert word in err


class TestRender:
    def test_ascii_stdout(self, free_cert_path, capsys):
        code, out, _ = run(["render", str(free_cert_path)], capsys)
        assert code == EXIT_OK
        assert out == "1221\n"

    def test_ppm_to_file(self, free_cert_path, tmp_path, capsys):
        out_path = tmp_path / "fig.ppm"
        code, _, _ = run(
            ["render", str(free_cert_path), "--format", "ppm",
             "--scale", "2", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert out_path.read_bytes().startswith(b"P6\n8 2\n255\n")

    def test_ppm_over_the_pixel_ceiling_exits_4(self, free_cert_path, tmp_path, capsys):
        # 400000x100000 pixels, refused before the image is built.
        out_path = tmp_path / "fig.ppm"
        code, out, err = run(
            ["render", str(free_cert_path), "--format", "ppm",
             "--scale", "100000", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_INVALID_INPUT
        assert "pixels" in err
        assert out == "" and not out_path.exists()

    def test_svg_to_file(self, free_cert_path, tmp_path, capsys):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(
            ["render", str(free_cert_path), "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert out_path.read_text().count("<rect") == 4

    def test_invalid_certificate_refused(self, invalid_cert_path, capsys):
        code, _, err = run(["render", str(invalid_cert_path)], capsys)
        assert code == EXIT_INTEGRITY
        assert "refusing" in err


class TestOutFiles:
    @pytest.mark.parametrize("args", [
        ["encode", "--n", "3", "--r", "2"],
        ["witness", "--r", "2", "--random-seed", "7"],
        ["render", "CERT", "--format", "ascii"],
        ["render", "CERT", "--format", "ppm"],
        ["render", "CERT", "--format", "svg"],
    ], ids=["encode", "witness", "render-ascii", "render-ppm", "render-svg"])
    def test_failed_write_leaves_the_old_file(self, args, free_cert_path, tmp_path,
                                              monkeypatch):
        out = tmp_path / "out" / "result"
        out.parent.mkdir()
        out.write_bytes(b"old")

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        args = [str(free_cert_path) if a == "CERT" else a for a in args]
        with pytest.raises(OSError, match="disk full"):
            main(args + ["--out", str(out)])
        assert [p.name for p in out.parent.iterdir()] == ["result"]
        assert out.read_bytes() == b"old"

    @pytest.mark.parametrize("args", [
        ["encode", "--n", "3", "--r", "2"],
        ["render", "CERT"],
        ["witness", "--r", "2", "--random-seed", "7"],
        ["search", "--d", "1", "--r", "2", "-q"],
    ], ids=["encode", "render", "witness", "search"])
    def test_unwritable_out_path_exits_4(self, args, free_cert_path, tmp_path, capsys):
        # The output's parent is a regular file, so nothing can be created there.
        blocker = tmp_path / "f"
        blocker.write_text("")
        args = [str(free_cert_path) if a == "CERT" else a for a in args]
        code, _, err = run(args + ["--out", str(blocker / "x")], capsys)
        assert code == EXIT_INVALID_INPUT
        assert err.startswith("error: ") and "Traceback" not in err
        assert blocker.read_text() == ""

    def test_new_file_follows_the_umask_and_a_replaced_one_keeps_its_mode(self, tmp_path):
        args = ["encode", "--n", "3", "--r", "2", "--out"]
        fresh = tmp_path / "fresh.cnf"
        kept = tmp_path / "kept.cnf"
        kept.write_text("old")
        kept.chmod(0o640)
        old_umask = os.umask(0o022)
        try:
            assert main(args + [str(fresh)]) == EXIT_OK
            assert main(args + [str(kept)]) == EXIT_OK
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_bytes() == fresh.read_bytes() != b"old"

    def test_symlink_target_is_replaced_and_fifo_written(self, tmp_path, capsys):
        main(["encode", "--n", "3", "--r", "2"])
        expected = capsys.readouterr().out
        target = tmp_path / "target.cnf"
        target.write_text("old")
        (tmp_path / "link.cnf").symlink_to(target)
        assert main(["encode", "--n", "3", "--r", "2",
                     "--out", str(tmp_path / "link.cnf")]) == EXIT_OK
        assert (tmp_path / "link.cnf").is_symlink()
        assert target.read_text() == expected

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert main(["encode", "--n", "3", "--r", "2", "--out", str(fifo)]) == EXIT_OK
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [expected]


class TestBounds:
    def test_exact_entry_output(self, capsys):
        code, out, _ = run(
            ["bounds", "--d", "2", "--j", "2", "--k", "3", "--r", "2"], capsys
        )
        assert code == EXIT_OK
        assert "R_2(3) = 6" in out
        assert "<= 35" in out

    def test_interval_entry_output(self, capsys):
        code, out, _ = run(
            ["bounds", "--d", "2", "--j", "2", "--k", "3", "--r", "4"], capsys
        )
        assert code == EXIT_OK
        assert "[51, 62]" in out
        assert "inexact" in out

    def test_classical_value_shown(self, capsys):
        code, out, _ = run(["bounds", "--d", "1", "--k", "3", "--r", "3"], capsys)
        assert code == EXIT_OK
        assert "S(3) = 14" in out

    def test_bound_too_long_to_format_is_shown_by_its_length(self, capsys):
        # 10000^10000 - 1 has 40,000 digits; str() formats at most 4,300.
        code, out, _ = run(["bounds", "--r", "1", "--k", "10000", "--d", "10000"],
                           capsys)
        assert code == EXIT_OK
        assert out.splitlines()[-1].endswith("-bit integer>")

    def test_long_bound_is_printed_in_full(self, capsys):
        code, out, _ = run(["bounds", "--r", "1", "--k", "30", "--d", "29"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[-1].endswith(f"<= {30**29 - 1}")

    def test_not_tabulated_exits_4(self, capsys):
        code, _, err = run(["bounds", "--d", "1", "--k", "3", "--r", "9"], capsys)
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("args", [["--d", "2", "--j", "3"], ["--d", "0"]],
                             ids=["j-over-k-1", "d-0"])
    def test_refused_parameters_print_nothing(self, capsys, args):
        # It printed the Ramsey line "R_2(3) = 6  [...]" before refusing j.
        code, out, err = run(["bounds", "--k", "3", "--r", "2", *args], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "outside" in err

    @pytest.mark.parametrize("field, value", [
        ("lower", "6.9"), ("r", "true"), ("k", '"3"'), ("upper", "1e400"),
        ("schema_version", "true"), ("schema_version", "1.0"),
    ], ids=["float-lower", "bool-r", "string-k", "infinite-upper",
            "bool-schema-version", "float-schema-version"])
    def test_non_integer_table_values_exit_4(self, tmp_path, capsys, field, value):
        # Coerced, 6.9 printed "R_2(3) = 6" and true made R_2(3) "not in the
        # table"; json reads 1e400 as an infinite float, which int() turned
        # into an OverflowError traceback.
        row = {"r": 2, "k": 3, "lower": 6, "upper": 6, "source": "x"}
        doc = {"schema_version": 1, "entries": [row]}
        (doc if field == "schema_version" else row)[field] = "VALUE"
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        code, out, err = run(["bounds", "--d", "2", "--k", "3", "--r", "2",
                              "--ramsey-table", str(path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("value", ["null", "7"], ids=["null-source", "number-source"])
    def test_non_string_source_exits_4(self, tmp_path, capsys, value):
        # Coerced, null printed "R_2(3) = 6  [None]" and exited 0.
        row = {"r": 2, "k": 3, "lower": 6, "upper": 6, "source": value}
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"schema_version": 1, "entries": [row]})
                        .replace(f'"{value}"', value))
        code, out, err = run(["bounds", "--d", "2", "--k", "3", "--r", "2",
                              "--ramsey-table", str(path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "source must be a string" in err


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "schurlat" in capsys.readouterr().out

    def test_unknown_command_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_INVALID_INPUT

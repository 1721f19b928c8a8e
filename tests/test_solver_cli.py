"""The bundled DIMACS solver executable: output protocol and exit codes."""

import gc
import subprocess
import sys

import pytest

from schurlat import solver_cli
from schurlat.encoder import CnfFormula, encode
from schurlat.sat import check_model, parse_solver_output, read_dimacs, write_dimacs
from schurlat.solver_cli import main


def write_cnf(tmp_path, formula):
    path = tmp_path / "f.cnf"
    path.write_bytes(write_dimacs(formula))
    return str(path)


class TestMain:
    def test_sat_exit_ten(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, CnfFormula(2, ((1, -2),)))])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        assert isinstance(parse_solver_output(out).model, dict)

    def test_unsat_exit_twenty(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, CnfFormula(1, ((1,), (-1,))))])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_unknown_on_budget(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, encode(14, 1, 3, 1, 3)), "--max-conflicts", "1"])
        assert code == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_reading_and_solving_pause_the_collector(self, tmp_path, monkeypatch, enabled):
        seen = []

        def recording(call):
            def wrapper(*args):
                seen.append(gc.isenabled())
                return call(*args)
            return wrapper

        monkeypatch.setattr(solver_cli, "read_dimacs", recording(solver_cli.read_dimacs))
        monkeypatch.setattr(solver_cli, "solve_internal",
                            recording(solver_cli.solve_internal))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main([write_cnf(tmp_path, encode(4, 1, 3, 1, 2))]) == 10
            assert seen == [False, False]
            assert gc.isenabled() is enabled
            assert main([str(tmp_path / "missing.cnf")]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_unreadable_file_is_unknown(self, tmp_path, capsys):
        code = main([str(tmp_path / "missing.cnf")])
        assert code == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_literal_out_of_range_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 5 0\n-1 0\n")
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "c error: literal 5 outside [1, 2]" in out
        assert out.rstrip().endswith("s UNKNOWN")

    @pytest.mark.parametrize("text, word", [
        ("p dnf 1 1\n1 0\n", "bad DIMACS header"),
        ("p cnf 1\n1 0\n", "bad DIMACS header"),
        ("p cnf 1 1\n1 x 0\n", "bad DIMACS clause line"),
        ("p cnf 2 1\np cnf 3 1\n3 0\n", "second DIMACS header"),
        ("1 2 0\np cnf 2 1\n", "DIMACS header after clauses"),
        ("p cnf -1 0\n", "num_vars must be >= 0"),
        ("p cnf 100000000 0\n", "DIMACS header declares more than 16777216 variables"),
    ], ids=["dnf-header", "short-header", "non-integer-literal", "second-header",
            "clauses-before-header", "negative-num-vars", "header-over-the-ceiling"])
    def test_malformed_dimacs_is_unknown(self, tmp_path, capsys, monkeypatch, text, word):
        # No engine is built: one sized by the 10^8 header would need about 64 GB.
        monkeypatch.setattr(solver_cli, "solve_internal", None)
        path = tmp_path / "f.cnf"
        path.write_text(text)
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"c error: {word}" in out
        assert out.rstrip().endswith("s UNKNOWN")

    def test_tautological_clause_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 -1 0\n2 0\n")
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 10
        result = parse_solver_output(out, num_vars=2)
        assert check_model(read_dimacs(path.read_bytes()), result.model)

    @pytest.mark.parametrize(
        "flags",
        [["--max-conflicts", "0"], ["--max-conflicts", "-3"],
         ["--budget-s", "0"], ["--budget-s", "-1.5"], ["--budget-s", "nan"]],
        ids=["conflicts-zero", "conflicts-negative", "seconds-zero", "seconds-negative",
             "seconds-nan"],
    )
    def test_non_positive_budget_is_usage_error(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main([write_cnf(tmp_path, CnfFormula(1, ((1,),)))] + flags)
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_v_lines_carry_total_model(self, tmp_path, capsys):
        code = main([write_cnf(tmp_path, CnfFormula(45, ((1, 2),)))])
        assert code == 10
        result = parse_solver_output(capsys.readouterr().out)
        assert set(result.model) == set(range(1, 46))


def test_installed_console_script_roundtrip(tmp_path):
    path = write_cnf(tmp_path, encode(4, 1, 3, 1, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "schurlat.solver_cli", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout


def test_exported_three_color_interval_is_satisfiable(tmp_path):
    # [13] is one below the classical three-color breaking point, so the
    # exported formula must come back satisfiable from the DIMACS side too
    path = write_cnf(tmp_path, encode(13, 1, 3, 1, 3))
    proc = subprocess.run(
        [sys.executable, "-m", "schurlat.solver_cli", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 10
    f = encode(13, 1, 3, 1, 3)
    result = parse_solver_output(proc.stdout, num_vars=f.num_vars)
    assert check_model(f, result.model)

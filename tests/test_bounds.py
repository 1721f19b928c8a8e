"""Ramsey table lookups, derived Schur bounds, and the known-value registries."""

import json

import pytest

from schurlat.bounds import (
    RamseyEntry,
    known_schur_numbers,
    load_ramsey_table,
    ramsey_number,
    schur_3k_formula,
    schur_upper_bound,
)
from schurlat.errors import InputError, NotTabulatedError, ParseError


class TestRamseyNumber:
    def test_one_color_is_clique_size(self):
        entry = ramsey_number(1, 5)
        assert entry.is_exact and entry.lower == 5

    def test_edge_case_identities(self):
        assert ramsey_number(7, 2).lower == 2
        assert ramsey_number(7, 1).lower == 1

    def test_triangle_two_colors(self):
        entry = ramsey_number(2, 3)
        assert entry.is_exact and entry.lower == 6

    def test_triangle_three_colors(self):
        entry = ramsey_number(3, 3)
        assert entry.is_exact and entry.lower == 17

    def test_triangle_four_colors_is_an_interval(self):
        entry = ramsey_number(4, 3)
        assert not entry.is_exact
        assert entry.lower == 51 and entry.upper == 62
        assert entry.source

    def test_two_color_k4(self):
        assert ramsey_number(2, 4).lower == 18

    def test_not_tabulated(self):
        with pytest.raises(NotTabulatedError):
            ramsey_number(5, 3)
        with pytest.raises(NotTabulatedError):
            ramsey_number(3, 4)

    def test_validation(self):
        with pytest.raises(InputError):
            ramsey_number(0, 3)

    def test_entry_ordering_validated(self):
        with pytest.raises(InputError):
            RamseyEntry(2, 3, 7, 6, "impossible")


class TestSchurUpperBound:
    def test_two_dimensional_two_colors(self):
        b = schur_upper_bound(2, 2, 2, 3)
        assert b.value == 35 and b.ramsey.is_exact

    def test_one_dimensional_matches_classical(self):
        b = schur_upper_bound(1, 1, 2, 3)
        assert b.value == 5 and b.ramsey.is_exact

    def test_depends_on_j_not_d(self):
        assert schur_upper_bound(3, 2, 2, 3).value == 35

    def test_inexact_ramsey_is_labeled(self):
        b = schur_upper_bound(2, 2, 4, 3)
        assert b.value == 62**2 - 1
        assert not b.ramsey.is_exact

    def test_j_range_validated(self):
        with pytest.raises(InputError):
            schur_upper_bound(2, 3, 2, 3)
        with pytest.raises(InputError):
            schur_upper_bound(2, 0, 2, 3)

    def test_not_tabulated_propagates(self):
        with pytest.raises(NotTabulatedError):
            schur_upper_bound(1, 1, 9, 3)


class TestFormulas:
    def test_cubic_formula_values(self):
        assert schur_3k_formula(3) == 14
        assert schur_3k_formula(4) == 43
        assert schur_3k_formula(5) == 94

    def test_cubic_formula_domain(self):
        with pytest.raises(InputError):
            schur_3k_formula(2)

    def test_known_schur_numbers(self):
        assert known_schur_numbers() == {1: 2, 2: 5, 3: 14, 4: 45, 5: 161}

    def test_formula_consistent_with_registry(self):
        assert schur_3k_formula(3) == known_schur_numbers()[3]


class TestTableLoading:
    def test_packaged_table_loads(self):
        table = load_ramsey_table()
        assert (2, 3) in table and (4, 3) in table

    def test_custom_table_override(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "comment": "test override",
            "entries": [
                {"r": 2, "k": 3, "lower": 6, "upper": 6, "source": "override"},
                {"r": 9, "k": 3, "lower": 100, "upper": 200, "source": "made up"},
            ],
        }))
        table = load_ramsey_table(path)
        assert ramsey_number(9, 3, table).upper == 200
        with pytest.raises(NotTabulatedError):
            ramsey_number(3, 3, table)  # absent from the override

    def test_malformed_table(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ParseError):
            load_ramsey_table(path)
        path.write_text(json.dumps({"schema_version": 2, "entries": []}))
        with pytest.raises(ParseError):
            load_ramsey_table(path)
        path.write_text(json.dumps({"schema_version": 1, "entries": [{"r": 2}]}))
        with pytest.raises(ParseError):
            load_ramsey_table(path)
        with pytest.raises(ParseError):
            load_ramsey_table(tmp_path / "nope.json")

"""Curated Ramsey/Schur value tables and the closed-form bounds derived from them.

Nontrivial Ramsey numbers ship as a data file with citations and are loaded,
never asserted: an entry whose lower and upper ends differ is an interval, and
everything downstream (witness thresholds, Schur upper bounds) either refuses
to use it or labels the result as a bound-of-a-bound. Only the trivial
identities R_1(k) = k, R_r(1) = 1, R_r(2) = 2 are computed in code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import InputError, NotTabulatedError, ParseError


@dataclass(frozen=True)
class RamseyEntry:
    r: int
    k: int
    lower: int
    upper: int
    source: str

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InputError(f"Ramsey entry has lower {self.lower} > upper {self.upper}")

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class SchurUpperBound:
    """R_r(k)^j - 1, labeled by whether the Ramsey value behind it is exact.
    When exact is False this is an upper bound computed from an upper bound."""

    value: int
    exact: bool
    ramsey: RamseyEntry


RamseyTable = dict[tuple[int, int], RamseyEntry]

_default_table: RamseyTable | None = None


def _json_int(value: object, what: str) -> int:
    """value itself, if it is a JSON integer; a float, a bool or a numeric
    string is not silently coerced."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_str(value: object, what: str) -> str:
    """value itself, if it is a JSON string; null or a number is not
    silently turned into text."""
    if type(value) is not str:
        raise ParseError(f"{what} must be a string, got {value!r}")
    return value


def load_ramsey_table(path: str | Path | None = None) -> RamseyTable:
    """Load a Ramsey table file (the packaged one by default). The schema
    version and every r, k, lower and upper must be JSON integers, and every
    source a JSON string."""
    if path is None:
        text = resources.files("schurlat").joinpath("data/ramsey_table.json").read_text()
    else:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ParseError(f"cannot read Ramsey table {path}: {e}") from None
    try:
        doc = json.loads(text)
        if _json_int(doc["schema_version"], "schema_version") != 1:
            raise ParseError(f"unsupported ramsey_table schema_version {doc['schema_version']!r}")
        table = {}
        for row in doc["entries"]:
            entry = RamseyEntry(
                *(_json_int(row[key], key) for key in ("r", "k", "lower", "upper")),
                _json_str(row["source"], "source"),
            )
            table[(entry.r, entry.k)] = entry
        return table
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed Ramsey table: {e}") from None


def _default() -> RamseyTable:
    global _default_table
    if _default_table is None:
        _default_table = load_ramsey_table()
    return _default_table


def ramsey_number(r: int, k: int, table: RamseyTable | None = None) -> RamseyEntry:
    """The table entry for R_r(k); trivial identities are computed directly.

    Raises NotTabulatedError for values that are neither trivial nor known —
    deciding new Ramsey numbers is emphatically not this module's job.
    """
    if r < 1 or k < 1:
        raise InputError(f"need r >= 1 and k >= 1, got r={r} k={k}")
    if k == 1:
        return RamseyEntry(r, 1, 1, 1, "trivial: a single vertex is a K_1")
    if k == 2:
        return RamseyEntry(r, 2, 2, 2, "trivial: any edge is monochromatic")
    if r == 1:
        return RamseyEntry(1, k, k, k, "trivial: one color needs K_k itself")
    entry = (table if table is not None else _default()).get((r, k))
    if entry is None:
        raise NotTabulatedError(f"R_{r}({k}) is not in the table and not trivial")
    return entry


def schur_upper_bound(
    d: int, j: int, r: int, k: int, table: RamseyTable | None = None
) -> SchurUpperBound:
    """The dimension-lifted upper bound R_r(k)^j - 1 for the modified Schur
    number with independence parameter j (the bound depends on j, not d)."""
    if not 1 <= j <= min(d, k - 1):
        raise InputError(f"j={j} outside [1, min(d={d}, k-1={k - 1})]")
    entry = ramsey_number(r, k, table)
    return SchurUpperBound(entry.upper**j - 1, entry.is_exact, entry)


def schur_3k_formula(k: int) -> int:
    """Exact 3-color generalized Schur number for k summand variables:
    k^3 - k^2 - k - 1 (valid for k >= 3)."""
    if k < 3:
        raise InputError(f"formula holds for k >= 3, got k={k}")
    return k**3 - k**2 - k - 1


def known_schur_numbers() -> dict[int, int]:
    """All classical Schur numbers ever computed, by color count."""
    return {1: 2, 2: 5, 3: 14, 4: 45, 5: 161}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
The two long searches are marked `slow`; the four-color lower-bound run is
additionally marked `stretch` and skips (never fails) on solver timeout,
since only solver speed — not correctness — is at risk there.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

import schurlat as s

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(criterion: int, status: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} {status}: {detail}")


def check(criterion: int, ok: bool, detail: str) -> None:
    report(criterion, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {criterion}: {detail}"


def timed_search(d, k, j, r, **kwargs):
    t0 = time.monotonic()
    outcome = s.find_schur_number(d, k, j, r, **kwargs)
    return outcome, time.monotonic() - t0


@pytest.fixture(scope="module")
def search_d2_r2():
    return timed_search(2, 3, 2, 2)


@pytest.fixture(scope="module")
def search_d2_r3():
    return timed_search(2, 3, 2, 3, budget=s.Budget(seconds=3600))


def run_cli_search(extra_args, tmp_path, capsys):
    from schurlat.cli import main

    code = main(["search", *extra_args, "--out", str(tmp_path), "-q"])
    return code, capsys.readouterr().out


def test_01_classical_schur_numbers(tmp_path, capsys):
    t0 = time.monotonic()
    code2, out2 = run_cli_search(
        ["--d", "1", "--j", "1", "--k", "3", "--r", "2"], tmp_path / "r2", capsys
    )
    t2 = time.monotonic() - t0
    t0 = time.monotonic()
    code3, out3 = run_cli_search(
        ["--d", "1", "--j", "1", "--k", "3", "--r", "3"], tmp_path / "r3", capsys
    )
    t3 = time.monotonic() - t0
    ok = (
        code2 == 0 and out2.startswith("Exact 5") and t2 < 60
        and code3 == 0 and out3.startswith("Exact 14") and t3 < 60
    )
    check(1, ok, f"classical two-color value: {out2.splitlines()[0]} in {t2:.1f}s; "
                 f"three-color: {out3.splitlines()[0]} in {t3:.1f}s (limit 60s each)")


def test_02_two_color_lattice_value(search_d2_r2, tmp_path, capsys):
    outcome, elapsed = search_d2_r2
    code, out = run_cli_search(
        ["--d", "2", "--j", "2", "--k", "3", "--r", "2"], tmp_path, capsys
    )
    cert = s.load_certificate(tmp_path / "S_d2_j2_k3_r2_N6.cert.json")
    ok = (
        isinstance(outcome, s.Exact)
        and outcome.value == 7
        and outcome.witness.n == 6
        and s.verify_certificate(outcome.witness) is None
        and code == 0
        and out.startswith("Exact 7")
        and s.verify_certificate(cert) is None
        and elapsed < 60
    )
    check(2, ok, f"two-color lattice value {getattr(outcome, 'value', outcome)} "
                 f"with verified certificate at N=6, {elapsed:.1f}s (limit 60s)")


@pytest.mark.slow
def test_03_three_color_lattice_value(search_d2_r3):
    outcome, elapsed = search_d2_r3
    ok = (
        isinstance(outcome, s.Exact)
        and outcome.value == 18
        and outcome.witness.n == 17
        and s.verify_certificate(outcome.witness) is None
        and elapsed < 3600
    )
    check(3, ok, f"three-color lattice value {getattr(outcome, 'value', outcome)} "
                 f"with verified certificate at N=17, {elapsed:.1f}s (limit 3600s)")


@pytest.mark.slow
@pytest.mark.stretch
def test_04_four_color_lower_bound_stretch():
    t0 = time.monotonic()
    outcome = s.find_schur_number(2, 3, 2, 4, n_max=30, budget=s.Budget(seconds=300))
    elapsed = time.monotonic() - t0
    if isinstance(outcome, s.Inconclusive) or elapsed > 600:
        report(4, "SKIP", f"non-gating stretch: {elapsed:.0f}s elapsed, "
                          f"outcome {type(outcome).__name__}")
        pytest.skip("stretch goal is non-gating; solver exceeded the 10-minute budget")
    ok = (
        isinstance(outcome, s.LowerBound)
        and outcome.value == 30
        and s.verify_certificate(outcome.witness) is None
    )
    check(4, ok, f"four-color LowerBound {getattr(outcome, 'value', outcome)} "
                 f"(so the value is >= 31) with verified certificate at N=30, "
                 f"{elapsed:.0f}s (limit 600s)")


def test_05_oracle_equivalence():
    t0 = time.monotonic()
    cases = (
        [(n, 1, 3, 1, 2) for n in range(1, 9)]
        + [(n, 1, 3, 1, 3) for n in range(1, 6)]
        + [(n, 2, 3, 2, 2) for n in range(1, 4)]
        + [(n, 2, 3, 1, 2) for n in range(1, 4)]
    )
    for n, d, k, j, r in cases:
        free = s.brute_force_oracle(n, d, k, j, r)
        probe_says = isinstance(s.probe(n, d, k, j, r), s.Certificate)
        assert (free is not None) == probe_says, (
            f"oracle and probe disagree at n={n} d={d} k={k} j={j} r={r}"
        )
    elapsed = time.monotonic() - t0
    check(5, elapsed < 120,
          f"oracle and probe agree on all {len(cases)} instances, "
          f"{elapsed:.1f}s (limit 120s)")


def test_06_witness_property_suite():
    t0 = time.monotonic()
    failures = 0
    for seed in range(1000):
        rng = random.Random(seed)
        chi = s.Coloring(35, 2, 2, tuple(rng.randint(1, 2) for _ in range(35 * 35)))
        w = s.extract_schur_witness(chi, 3)
        points = w.summands + (w.total,)
        if {chi.color_of(p) for p in points} != {w.color}:
            failures += 1
        elif sum(c[0] for c in w.summands) != w.total[0] or tuple(
            map(sum, zip(*w.summands))
        ) != w.total:
            failures += 1
        elif s.rank(w.summands[:2]) != 2:
            failures += 1
    elapsed = time.monotonic() - t0
    check(6, failures == 0 and elapsed < 60,
          f"1000 seeded 2-colorings of [35]^2, {failures} failures, "
          f"{elapsed:.1f}s (limit 60s)")


def test_07_vandermonde_identity():
    from schurlat.witness import difference_matrix, vandermonde_product

    rng = random.Random(70707)
    for _ in range(1000):
        d = rng.randint(1, 5)
        idx = [rng.randint(1, 40)]
        for _ in range(d):
            idx.append(idx[-1] + rng.randint(1, 7))
        indices = tuple(idx)
        eliminated = s.det(difference_matrix(indices))
        product = vandermonde_product(indices)
        assert eliminated == product, f"mismatch at {indices}"
        assert s.vandermonde_det(indices) == product
    check(7, True, "elimination determinant equals the product formula on "
                   "1000 random increasing tuples, d <= 5, exact equality")


@pytest.mark.slow
def test_08_bound_consistency(search_d2_r2, search_d2_r3):
    v2 = search_d2_r2[0].value
    v3 = search_d2_r3[0].value
    bound_j2 = s.schur_upper_bound(2, 2, 2, 3).value
    bound_j2_r3 = s.schur_upper_bound(2, 2, 3, 3).value
    classical = s.known_schur_numbers()[2]
    flat = s.find_schur_number(2, 3, 1, 2)
    ok = (
        v2 <= bound_j2 == 35
        and v3 <= bound_j2_r3 == 288
        and not v2 <= classical  # the j=d value exceeds the classical one
        and isinstance(flat, s.Exact)
        and flat.value <= classical == 5
    )
    check(8, ok, f"{v2} <= 35 and {v3} <= 288; NOT {v2} <= {classical}; "
                 f"lifted j=1 value {getattr(flat, 'value', flat)} <= {classical}")


@pytest.mark.slow
def test_09_cubic_formula_spot_check():
    outcome, elapsed = timed_search(1, 4, 1, 3, budget=s.Budget(seconds=1800))
    expected = s.schur_3k_formula(4)
    ok = (
        isinstance(outcome, s.Exact)
        and outcome.value == expected == 43
        and elapsed < 1800
    )
    check(9, ok, f"three-color four-variable value "
                 f"{getattr(outcome, 'value', outcome)} == formula {expected}, "
                 f"{elapsed:.1f}s (limit 1800s)")


def test_10_encoding_golden_files():
    golden = (GOLDEN_DIR / "encode_N3_d2_k3_j2_r2.cnf").read_bytes()
    produced = s.write_dimacs(s.encode(3, 2, 3, 2, 2))
    assert produced == golden, "DIMACS bytes diverge from the committed golden file"
    # the golden file itself is pinned against a hand-derived encoding
    assert golden == (
        b"c schurlat N=3 d=2 k=3 j=2 r=2\n"
        b"p cnf 9 6\n"
        b"-1 -2 -6 0\n"
        b"1 2 6 0\n"
        b"-1 -4 -8 0\n"
        b"1 4 8 0\n"
        b"-2 -4 -9 0\n"
        b"2 4 9 0\n"
    )
    rng = random.Random(210210)
    for _ in range(50):
        n = rng.randint(1, 5)
        d = rng.randint(1, 2)
        k = rng.randint(3, 4)
        j = rng.randint(1, min(d, k - 1))
        r = rng.randint(1, 4)
        family = s.enumerate_tuples(n, d, k, j)
        formula = s.encode(n, d, k, j, r)
        expected = n**d * (r - 1) * (r - 2) // 2 + r * len(family)
        assert formula.num_clauses == expected, (n, d, k, j, r)
    check(10, True, "golden DIMACS bytes match; clause-count formula holds on "
                    "50 randomized parameter tuples")


def test_11_ramsey_micro_derivation():
    t0 = time.monotonic()

    def triangle_free_two_coloring_exists(m: int) -> bool:
        edges = list(itertools.combinations(range(m), 2))
        index = {e: i for i, e in enumerate(edges)}
        triangles = [
            (index[(a, b)], index[(a, c)], index[(b, c)])
            for a, b, c in itertools.combinations(range(m), 3)
        ]
        for mask in range(1 << len(edges)):
            for e1, e2, e3 in triangles:
                if (mask >> e1 & 1) == (mask >> e2 & 1) == (mask >> e3 & 1):
                    break
            else:
                return True
        return False

    k5 = triangle_free_two_coloring_exists(5)
    k6 = triangle_free_two_coloring_exists(6)
    elapsed = time.monotonic() - t0
    entry = s.ramsey_number(2, 3)
    ok = k5 and not k6 and entry.is_exact and entry.lower == 6 and elapsed < 10
    check(11, ok, f"K_5 admits a triangle-free 2-coloring, K_6 does not, so "
                  f"R_2(3) = 6 matches the table; {elapsed:.1f}s (limit 10s)")

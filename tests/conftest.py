"""Shared test oracles, all deliberately independent of the code under test:
rank via sympy's rational elimination, determinants via the Leibniz sum,
tuple families via unpruned exhaustive enumeration, and SAT via truth tables.
"""

from __future__ import annotations

import hashlib
import itertools
import sys

import pytest
import sympy

from schurlat.lattice import SchurTuple


def oracle_rank(vectors) -> int:
    if not vectors:
        return 0
    return sympy.Matrix([list(v) for v in vectors]).rank()


def oracle_det(matrix) -> int:
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = 1
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += (-1) ** inversions * term
    return total


def oracle_subset_independent(summands, j) -> bool:
    """j-nondegeneracy by brute force over all j-element subsets."""
    return any(
        oracle_rank(subset) == j for subset in itertools.combinations(summands, j)
    )


def oracle_tuple_family(n, d, k, j):
    """Unpruned enumeration of canonical (summands, total) pairs."""
    pts = list(itertools.product(range(1, n + 1), repeat=d))
    out = []
    for summands in itertools.combinations_with_replacement(pts, k - 1):
        total = tuple(map(sum, zip(*summands)))
        if any(c > n for c in total):
            continue
        if oracle_rank(summands) >= j:
            out.append((summands, total))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


def oracle_truth_table_sat(num_vars, clauses):
    """Exhaustive SAT check; returns a model dict or None. Keep num_vars small."""
    pos_neg = []
    for clause in clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        pos_neg.append((pos, neg))
    full = (1 << num_vars) - 1
    for m in range(1 << num_vars):
        if all(m & pos or (~m & full) & neg for pos, neg in pos_neg):
            return {v: bool(m >> (v - 1) & 1) for v in range(1, num_vars + 1)}
    return None


def as_tuples(family):
    return [(t.summands, t.total) for t in family]


def make_tuple(summands, total) -> SchurTuple:
    return SchurTuple(tuple(sorted(summands)), tuple(total))


def _after_each_solve(monkeypatch, read):
    """read(engine) after every Engine.solve call, in call order."""
    from schurlat import cdcl

    readings = []
    solve = cdcl.Engine.solve

    def recording_solve(engine, *args):
        result = solve(engine, *args)
        readings.append(read(engine))
        return result

    monkeypatch.setattr(cdcl.Engine, "solve", recording_solve)
    return readings


@pytest.fixture
def solve_conflicts(monkeypatch) -> list[int]:
    """Engine.conflicts after every Engine.solve call, in call order."""
    return _after_each_solve(monkeypatch, lambda engine: engine.conflicts)


@pytest.fixture
def solve_stats(monkeypatch) -> list[tuple[int, int, int, int, int]]:
    """(conflicts, decisions, propagations, learnt clauses held, deletion
    rounds) of the engine after every Engine.solve call, in call order."""
    return _after_each_solve(monkeypatch, lambda engine: (
        engine.conflicts, engine.decisions, engine.propagations, len(engine.learnts),
        engine.reductions))


@pytest.fixture
def decision_digest(monkeypatch):
    """A sha256 over every value Engine._decide returns, in call order, each
    written as its decimal literal code and a newline; 0 marks a search that
    found every variable assigned. Read it with .hexdigest() after the run:
    a change not meant to alter the search leaves it as it is."""
    from schurlat import cdcl

    digest = hashlib.sha256()
    decide = cdcl.Engine._decide

    def recording_decide(engine):
        lit = decide(engine)
        digest.update(b"%d\n" % lit)
        return lit

    monkeypatch.setattr(cdcl.Engine, "_decide", recording_decide)
    return digest


@pytest.fixture
def internal_solver_cmd() -> list[str]:
    """The bundled DIMACS solver, invoked portably via the interpreter."""
    return [sys.executable, "-m", "schurlat.solver_cli"]

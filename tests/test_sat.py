"""Embedded solver, DIMACS round trips, and the external solver bridge."""

import random
import sys
import time
from collections import Counter

import pytest

from conftest import oracle_truth_table_sat
from schurlat import cdcl
from schurlat.encoder import CnfFormula, encode, encode_points
from schurlat.lattice import enumerate_shell, shell_points
from schurlat.errors import InputError, IntegrityError, ParseError
from schurlat.sat import (
    Budget,
    Sat,
    Unknown,
    Unsat,
    check_model,
    parse_solver_output,
    read_dimacs,
    solve_engine,
    solve_external,
    solve_internal,
    write_dimacs,
)


def random_formula(rng: random.Random) -> CnfFormula:
    num_vars = rng.randint(1, 12)
    num_clauses = rng.randint(1, 40)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(num_vars, tuple(clauses))


def messy_clauses(rng: random.Random, f: CnfFormula) -> list[tuple[int, ...]]:
    """f's clauses as a DIMACS file from elsewhere may give them: duplicate
    clauses, repeated literals, tautologies, units ahead of the clauses they
    satisfy or shorten, and now and then the empty clause."""
    clauses = list(f.clauses)
    for c in rng.sample(f.clauses, min(3, len(f.clauses))):
        clauses.append(c)
        clauses.append(c + c[:1])
    v = rng.randint(1, f.num_vars)
    clauses.append((v, -v) if rng.random() < 0.5 else (-v, rng.randint(1, f.num_vars), v))
    rng.shuffle(clauses)
    if rng.random() < 0.5:
        lit = rng.choice(rng.choice(clauses))
        clauses.insert(0, (lit if rng.random() < 0.5 else -lit,))
    if rng.random() < 0.05:
        clauses.insert(rng.randint(0, len(clauses)), ())
    return clauses


def satisfies(clauses, model) -> bool:
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def pigeonhole(holes: int) -> CnfFormula:
    """holes+1 pigeons into `holes` holes; classically unsatisfiable and a
    good stress of clause learning and deletion."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return CnfFormula(pigeons * holes, tuple(clauses))


class TestSolveInternal:
    def test_empty_clause_list_is_sat_all_false(self):
        result = solve_internal(CnfFormula(3, ()))
        assert result == Sat({1: False, 2: False, 3: False})

    def test_direct_contradiction(self):
        assert solve_internal(CnfFormula(1, ((1,), (-1,)))) == Unsat()

    def test_empty_clause_is_unsat(self):
        assert solve_internal(CnfFormula(0, ((),))) == Unsat()

    def test_agrees_with_truth_table_oracle(self):
        # Each formula through solve_internal, and a messy copy of it straight
        # into the engine's loader.
        rng = random.Random(77320)
        mess = random.Random(5077)
        for _ in range(200):
            f = random_formula(rng)
            messy = messy_clauses(mess, f)
            for clauses, result in (
                (f.clauses, solve_internal(f)),
                (messy, solve_engine(cdcl.Engine(f.num_vars, messy), messy)),
            ):
                expected = oracle_truth_table_sat(f.num_vars, clauses)
                if expected is None:
                    assert result == Unsat()
                else:
                    assert isinstance(result, Sat)
                    assert satisfies(clauses, result.model)

    def test_model_is_total(self):
        # var 3 is unconstrained but must still be assigned
        result = solve_internal(CnfFormula(3, ((1, 2),)))
        assert isinstance(result, Sat)
        assert set(result.model) == {1, 2, 3}

    def test_conflict_budget_exhaustion(self):
        f = encode(14, 1, 3, 1, 3)  # needs well over one conflict to refute
        result = solve_internal(f, Budget(conflicts=1))
        assert isinstance(result, Unknown)
        assert "budget" in result.reason
        # The reason gives the engine's counters when the budget ran out.
        engine = cdcl.Engine(f.num_vars, f.clauses)
        result = solve_engine(engine, f.clauses, Budget(conflicts=5))
        assert isinstance(result, Unknown)
        assert engine.conflicts == 5 and engine.decisions > 0
        assert result.reason.endswith(
            f"after 5 conflicts, {engine.decisions} decisions, 0 deletion rounds")

    def test_wall_clock_budget_checked_every_256_conflicts(self):
        # A conflict-heavy search meets the deadline at its 256th conflict,
        # before its 1,023rd decision.
        f = pigeonhole(8)
        engine = cdcl.Engine(f.num_vars, f.clauses)
        assert engine.solve(max_seconds=1e-9) == ("unknown", None)
        assert (engine.conflicts, engine.decisions) == (256, 382)

    def test_wall_clock_budget_checked_every_1024_decisions(self):
        # A conflict-free search meets the deadline at its 1,023rd decision.
        n = 3000
        chain = [(-v, v + 1) for v in range(1, n)]
        engine = cdcl.Engine(n, chain)
        assert engine.solve(max_seconds=1e-9) == ("unknown", None)
        assert (engine.conflicts, engine.decisions) == (0, 1023)
        engine = cdcl.Engine(n, chain)
        assert solve_engine(engine, chain, Budget(seconds=1e-9)) == Unknown(
            "internal solver budget exhausted (1e-09s) after 0 conflicts, "
            "1023 decisions, 0 deletion rounds")

    def test_deterministic_given_options(self):
        f = encode(6, 2, 3, 2, 2)
        a = solve_internal(f)
        b = solve_internal(f)
        assert a == b

    def test_budget_validation(self):
        with pytest.raises(InputError):
            Budget(seconds=0)
        with pytest.raises(InputError):
            Budget(seconds=float("nan"))
        with pytest.raises(InputError):
            Budget(conflicts=-1)

    def test_pigeonhole_is_unsat(self):
        # large enough to force restarts and learned-clause churn
        assert solve_internal(pigeonhole(6)) == Unsat()

    def test_conflict_counts_are_pinned(self, solve_conflicts):
        # The engine is deterministic; a change that is not meant to alter its
        # search must leave these counts as they are.
        assert solve_internal(encode(14, 1, 3, 1, 3)) == Unsat()
        assert solve_internal(encode(43, 1, 4, 1, 3)) == Unsat()
        assert solve_conflicts == [128, 244]

    def test_long_clauses_load_in_linear_time(self):
        # A loader that scans the clause for each literal takes seconds here.
        n = 20000
        clause = tuple(range(1, n + 1))
        negation = tuple(-v for v in clause)
        t0 = time.perf_counter()
        engine = cdcl.Engine(n, [clause, negation, clause + (-n,)])
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert engine.ok
        assert engine.clauses == [  # the tautology is dropped
            [2 * v for v in clause], [2 * v + 1 for v in clause]]

    def test_near_phase_transition_fuzz(self):
        # 3-SAT around clause/variable ratio 4.3, checked against truth tables
        rng = random.Random(430430)
        for _ in range(40):
            num_vars = rng.randint(8, 14)
            num_clauses = int(4.3 * num_vars)
            clauses = []
            for _ in range(num_clauses):
                vs = rng.sample(range(1, num_vars + 1), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
            f = CnfFormula(num_vars, tuple(clauses))
            expected = oracle_truth_table_sat(f.num_vars, f.clauses)
            result = solve_internal(f)
            if expected is None:
                assert result == Unsat()
            else:
                assert isinstance(result, Sat) and check_model(f, result.model)


def grow_to_14(engine: cdcl.Engine) -> None:
    """Add the clauses of [14]^1 beyond those of [13]^1, three colors. In one
    dimension the shell numbering is the row-major one."""
    bases = {(x,): (x - 1) * 2 for x in range(1, 14)}
    engine.add_vars(2)
    engine.add_clauses(
        encode_points(shell_points(14, 1), enumerate_shell(14, 1, 3, 1), bases, 3)
    )


class TestIncrementalEngine:
    def test_growing_matches_truth_tables(self):
        # Random formulas, and messy copies of them, fed in chunks with
        # variables added on the way; after every chunk the answer must match
        # the truth table of the prefix.
        rng = random.Random(20031)
        mess = random.Random(3120)
        for _ in range(60):
            f = random_formula(rng)
            cuts = sorted(rng.randint(0, len(f.clauses)) for _ in range(3))
            messy = messy_clauses(mess, f)
            messy_cuts = sorted(mess.randint(0, len(messy)) for _ in range(3))
            for clauses, cuts in ((f.clauses, cuts), (messy, messy_cuts)):
                engine = cdcl.Engine(0, ())
                added: list[tuple[int, ...]] = []
                for lo, hi in zip([0] + cuts, cuts + [len(clauses)]):
                    chunk = clauses[lo:hi]
                    need = max([abs(l) for c in added + list(chunk) for l in c], default=0)
                    engine.add_vars(need - engine.n)
                    engine.add_clauses(chunk)
                    added.extend(chunk)
                    expected = oracle_truth_table_sat(engine.n, added)
                    result = solve_engine(engine, added)
                    if expected is None:
                        assert result == Unsat()
                    else:
                        assert isinstance(result, Sat)
                        assert satisfies(added, result.model)

    def test_level_zero_facts_simplify_added_clauses(self):
        engine = cdcl.Engine(2, [(1,)])
        assert engine.solve()[0] == "sat"
        engine.add_clauses([(1, 2)])  # already true at level 0: not stored
        assert engine.clauses == []
        engine.add_clauses([(-1, 2)])  # -1 is false at level 0: unit 2
        assert engine.solve() == ("sat", [False, True, True])
        engine.add_clauses([(-2, -1)])  # both false: the formula is refuted
        assert engine.solve() == ("unsat", None)
        assert not engine.ok

    def test_new_variables_take_part(self):
        engine = cdcl.Engine(1, [(1,)])
        assert engine.solve() == ("sat", [False, True])
        engine.add_vars(2)
        engine.add_clauses([(-1, -2), (2, 3)])
        assert engine.solve() == ("sat", [False, True, False, True])

    def test_empty_clause_refutes(self):
        engine = cdcl.Engine(1, ())
        engine.add_clauses([()])
        assert engine.solve() == ("unsat", None)

    def test_each_solve_counts_only_its_own_conflicts(self):
        f = encode(13, 1, 3, 1, 3)
        engine = cdcl.Engine(f.num_vars, f.clauses)
        assert engine.solve()[0] == "sat"
        assert engine.conflicts > 0 and engine.learnts
        # The saved phases are the model, so the second solve needs no conflict.
        assert engine.solve()[0] == "sat"
        assert engine.conflicts == 0 and engine.learnts == []
        grow_to_14(engine)
        assert engine.solve() == ("unsat", None)
        refutation = engine.conflicts
        assert refutation > 0
        # The same refutation fits a budget of exactly its own conflicts.
        again = cdcl.Engine(f.num_vars, f.clauses)
        again.solve()
        grow_to_14(again)
        assert again.solve(max_conflicts=refutation) == ("unsat", None)
        assert again.conflicts == refutation


def random_3sat(seed: int, num_vars: int, num_clauses: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


@pytest.fixture(scope="module")
def reduced_engine():
    """An engine that has solved a random 3-SAT formula through two rounds of
    learnt-clause deletion, with its answer, counters and deletion rounds."""
    clauses = random_3sat(4, 200, 852)
    engine = cdcl.Engine(200, clauses)
    answer = engine.solve()
    counters = (engine.conflicts, engine.decisions, engine.propagations, len(engine.learnts))
    return clauses, engine, answer, counters, engine.reductions


def assert_watches_consistent(engine: cdcl.Engine) -> None:
    """Each watch list holds only stored clauses and live learnt clauses, and
    each of those sits exactly once in the lists of its first two literals."""
    live = {id(c): c for c in engine.clauses}
    live.update((id(lits), lits) for _, lits in engine.learnts)
    placed = Counter()
    for lit, ws in enumerate(engine.watches):
        for c in ws:
            assert live.get(id(c)) is c
            placed[id(c), lit] += 1
    for c in live.values():
        assert placed[id(c), c[0]] == 1 and placed[id(c), c[1]] == 1
    assert sum(placed.values()) == 2 * len(live)


class TestLearntClauseDeletion:
    def test_counters_are_pinned(self, reduced_engine):
        # The deterministic search through two deletion rounds; a change that is
        # not meant to alter the search must leave every counter as it is.
        clauses, _, (answer, model), counters, rounds = reduced_engine
        assert answer == "sat" and satisfies(clauses, model)
        assert rounds == 2
        assert counters == (6073, 7564, 234135, 3443)

    def test_watch_lists_hold_only_live_clauses(self, reduced_engine):
        _, engine, _, _, _ = reduced_engine
        assert len(engine.learnts) > 0
        assert_watches_consistent(engine)
        # The next solve drops every learnt clause before it starts.
        assert engine.solve()[0] == "sat"
        assert engine.learnts == []
        assert_watches_consistent(engine)

    def test_rounds_follow_the_conflict_schedule(self, monkeypatch):
        # The first round comes at the first decision point at or after
        # conflict 2,000; round x + 1 at the first one at least
        # 2,000 + 300 * x conflicts after round x.
        events = []
        reduce_db, decide = cdcl.Engine._reduce_db, cdcl.Engine._decide

        def recording(name, method):
            def record(engine):
                events.append((name, engine.conflicts))
                return method(engine)
            return record

        monkeypatch.setattr(cdcl.Engine, "_reduce_db", recording("reduce", reduce_db))
        monkeypatch.setattr(cdcl.Engine, "_decide", recording("decide", decide))
        clauses = random_3sat(4, 200, 852)
        engine = cdcl.Engine(200, clauses)
        answer, model = engine.solve()
        assert answer == "sat" and satisfies(clauses, model)
        due, done = 2000, 0
        for i, (name, c) in enumerate(events):
            if name == "reduce":
                assert c >= due and events[i + 1] == ("decide", c)
                done += 1
                due = c + 2000 + 300 * done
            else:
                # A decision point at or past the due conflict comes right
                # after its round.
                assert c < due or events[i - 1] == ("reduce", c)
        assert done == engine.reductions == 2
        assert_watches_consistent(engine)
        # Restart x comes at least 100 * luby(x) conflicts after the one before.
        gaps = [100 * cdcl._luby(x) for x in range(1, engine.restarts + 1)]
        assert engine.restarts > 0 and sum(gaps) <= engine.conflicts
        # Both counters, like the schedule, start again with the next solve.
        assert engine.solve()[0] == "sat"
        assert engine.restarts == engine.reductions == 0


@pytest.fixture
def checked_heap(monkeypatch) -> list[int]:
    """Check, before every _decide call, that each unassigned variable has its
    live entry (-activity[v], v) in the decision heap, and after it, that 0
    comes back only when every variable is assigned; _decide returns 0 when
    the heap runs dry, which is sound only under that invariant. Returns the
    list of heap rebuilds, one entry per _rebuild_heap call."""
    decide, rebuild = cdcl.Engine._decide, cdcl.Engine._rebuild_heap
    rebuilds: list[int] = []

    def checked_decide(engine):
        live = set(engine.heap)
        for v in range(1, engine.n + 1):
            if engine.val[2 * v] == cdcl._UNDEF:
                assert (-engine.activity[v], v) in live
        lit = decide(engine)
        assert lit or all(engine.val[2 * v] for v in range(1, engine.n + 1))
        return lit

    def counted_rebuild(engine):
        rebuilds.append(engine.conflicts)
        rebuild(engine)

    monkeypatch.setattr(cdcl.Engine, "_decide", checked_decide)
    monkeypatch.setattr(cdcl.Engine, "_rebuild_heap", counted_rebuild)
    return rebuilds


class TestDecisionHeap:
    def test_every_unassigned_variable_is_in_the_heap(self, checked_heap):
        rng = random.Random(1723)
        for _ in range(40):
            f = random_formula(rng)
            unsat = oracle_truth_table_sat(f.num_vars, f.clauses) is None
            assert (solve_internal(f) == Unsat()) == unsat
        # A growing engine: clauses, variables and units arrive between solves.
        f = encode(13, 1, 3, 1, 3)
        engine = cdcl.Engine(f.num_vars, f.clauses)
        assert engine.solve()[0] == "sat"
        engine.add_clauses([(1,)])
        assert engine.solve()[0] == "sat"
        grow_to_14(engine)
        assert engine.solve() == ("unsat", None)
        assert solve_internal(pigeonhole(5)) == Unsat()

    def test_invariant_holds_across_activity_rescales(self, checked_heap, monkeypatch):
        # A large var_inc makes _bump rescale the activities, and rebuild the
        # heap, within a few conflicts. Checking at every call is too slow for
        # much more than PHP(7,6).
        start = cdcl.Engine._start_solve

        def start_large(engine):
            start(engine)
            engine.var_inc = 1e98

        monkeypatch.setattr(cdcl.Engine, "_start_solve", start_large)
        f = pigeonhole(6)
        engine = cdcl.Engine(f.num_vars, f.clauses)
        assert engine.solve() == ("unsat", None)
        # The rebuild at the start of the solve, then one rescale.
        assert len(checked_heap) == 2 and checked_heap[1] > 0
        assert engine.conflicts > checked_heap[1]


class TestDimacs:
    def test_single_clause_bytes(self):
        f = CnfFormula(2, ((-1, -2),))
        assert write_dimacs(f) == b"p cnf 2 1\n-1 -2 0\n"

    def test_no_clauses(self):
        assert write_dimacs(CnfFormula(4, ())) == b"p cnf 4 0\n"

    def test_encoded_formula_header_and_golden_bytes(self):
        f = encode(3, 2, 3, 2, 2)
        data = write_dimacs(f)
        lines = data.decode().splitlines()
        assert lines[0] == "c schurlat N=3 d=2 k=3 j=2 r=2"
        assert lines[1] == "p cnf 9 6"
        assert len(lines) == 8

    def test_empty_clause_serializes(self):
        f = CnfFormula(0, ((),))
        assert write_dimacs(f) == b"p cnf 0 1\n0\n"

    def test_read_write_identity(self):
        rng = random.Random(555)
        for _ in range(50):
            f = random_formula(rng)
            g = read_dimacs(write_dimacs(f))
            assert g.num_vars == f.num_vars
            assert g.clauses == f.clauses
        f = encode(3, 2, 3, 2, 3)
        g = read_dimacs(write_dimacs(f))
        assert (g.num_vars, g.clauses) == (f.num_vars, f.clauses)

    def test_percent_line_ends_the_file(self):
        f = read_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
        assert f.clauses == ((1, 2),)

    def test_read_multiline_clause(self):
        f = read_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_read_errors(self):
        with pytest.raises(ParseError):
            read_dimacs("1 2 0\n")  # no header
        with pytest.raises(ParseError):
            read_dimacs("p cnf x 1\n1 0\n")
        with pytest.raises(ParseError):
            read_dimacs("p cnf 2 1\n1 2\n")  # unterminated
        with pytest.raises(ParseError):
            read_dimacs("p cnf 2 2\n1 0\n")  # count mismatch


class TestParseSolverOutput:
    def test_sat_with_values(self):
        result = parse_solver_output("s SATISFIABLE\nv 1 -2 0\n")
        assert result == Sat({1: True, 2: False})

    def test_unsat(self):
        assert parse_solver_output("s UNSATISFIABLE\n") == Unsat()

    def test_no_status_line(self):
        result = parse_solver_output("c timeout\n")
        assert result == Unknown("no status line")

    def test_unknown_status(self):
        result = parse_solver_output("s UNKNOWN\n")
        assert isinstance(result, Unknown)

    def test_absent_variables_default_false(self):
        result = parse_solver_output("s SATISFIABLE\nv 2 0\n", num_vars=3)
        assert result == Sat({1: False, 2: True, 3: False})

    def test_contradictory_v_lines(self):
        with pytest.raises(ParseError):
            parse_solver_output("s SATISFIABLE\nv 1 0\nv -1 0\n")

    def test_v_lines_spanning_multiple_lines(self):
        result = parse_solver_output("s SATISFIABLE\nv 1 2\nv -3 0\n")
        assert result == Sat({1: True, 2: True, 3: False})


class TestSolveExternal:
    def test_sat_formula_through_bundled_solver(self, internal_solver_cmd):
        f = encode(4, 1, 3, 1, 2)
        result = solve_external(f, internal_solver_cmd)
        assert isinstance(result, Sat)
        assert check_model(f, result.model)

    def test_unsat_formula_through_bundled_solver(self, internal_solver_cmd):
        result = solve_external(CnfFormula(1, ((1,), (-1,))), internal_solver_cmd)
        assert result == Unsat()

    def test_string_command_is_split(self, internal_solver_cmd):
        cmd = " ".join(internal_solver_cmd)
        result = solve_external(CnfFormula(1, ((1,),)), cmd)
        assert isinstance(result, Sat)

    def test_missing_executable_is_unknown(self):
        result = solve_external(CnfFormula(1, ((1,),)), ["/no/such/solver"])
        assert isinstance(result, Unknown)
        assert "launch" in result.reason

    def test_timeout_is_unknown(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time\ntime.sleep(30)\n")
        result = solve_external(
            CnfFormula(1, ((1,),)), [sys.executable, str(slow)], Budget(seconds=0.2)
        )
        assert isinstance(result, Unknown)
        assert "timed out" in result.reason

    @pytest.mark.parametrize("seconds", [float("inf"), 1e7])
    def test_budget_too_long_to_wait_for_is_no_limit(self, internal_solver_cmd, seconds):
        # subprocess cannot wait 2**31 ms or more; the internal engine reads
        # inf as no limit too.
        f = encode(4, 1, 3, 1, 2)
        result = solve_external(f, internal_solver_cmd, Budget(seconds=seconds))
        assert isinstance(result, Sat)
        assert check_model(f, result.model)

    def test_garbage_output_is_unknown(self, tmp_path):
        noisy = tmp_path / "noisy.py"
        noisy.write_text("print('hello world')\n")
        result = solve_external(CnfFormula(1, ((1,),)), [sys.executable, str(noisy)])
        assert result == Unknown("no status line")

    def test_lying_solver_is_integrity_error(self, tmp_path):
        liar = tmp_path / "liar.py"
        liar.write_text("print('s SATISFIABLE')\nprint('v -1 0')\n")
        with pytest.raises(IntegrityError):
            solve_external(CnfFormula(1, ((1,),)), [sys.executable, str(liar)])

    def test_empty_command_rejected(self):
        with pytest.raises(InputError):
            solve_external(CnfFormula(1, ((1,),)), [])

    def test_internal_and_external_agree(self, internal_solver_cmd):
        rng = random.Random(24001)
        for _ in range(8):
            f = random_formula(rng)
            internal = solve_internal(f)
            external = solve_external(f, internal_solver_cmd)
            assert isinstance(internal, Unsat) == isinstance(external, Unsat)


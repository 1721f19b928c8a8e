"""Embedded solver, DIMACS round trips, and the external solver bridge."""

import gc
import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest

import schurlat
from conftest import oracle_truth_table_sat
from schurlat import cdcl, sat
from schurlat.encoder import CnfFormula, encode, encode_points
from schurlat.lattice import SIZE_CEILING, enumerate_shell, shell_points
from schurlat.errors import InputError, IntegrityError, ParseError, SizeError
from schurlat.sat import (
    Budget,
    Sat,
    Unknown,
    Unsat,
    check_model,
    parse_solver_output,
    read_dimacs,
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


@pytest.mark.parametrize("name", ["Budget", "Sat", "Unsat", "Unknown"])
def test_the_engine_answers_in_the_package_result_types(name):
    assert getattr(schurlat, name) is getattr(sat, name) is getattr(cdcl, name)


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
                (messy, cdcl.Engine(f.num_vars, messy).solve()),
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
        result = engine.solve(Budget(conflicts=5))
        assert isinstance(result, Unknown)
        assert engine.conflicts == 5 and engine.decisions > 0
        assert result.reason.endswith(
            f"after 5 conflicts, {engine.decisions} decisions, 0 deletion rounds")

    def test_wall_clock_budget_checked_every_256_conflicts(self):
        # A conflict-heavy search meets the deadline at its 256th conflict,
        # before its 1,023rd decision.
        f = pigeonhole(8)
        engine = cdcl.Engine(f.num_vars, f.clauses)
        assert isinstance(engine.solve(Budget(seconds=1e-9)), Unknown)
        assert (engine.conflicts, engine.decisions) == (256, 382)

    def test_wall_clock_budget_checked_every_1024_decisions(self):
        # A conflict-free search meets the deadline at its 1,023rd decision.
        n = 3000
        chain = [(-v, v + 1) for v in range(1, n)]
        engine = cdcl.Engine(n, chain)
        assert isinstance(engine.solve(Budget(seconds=1e-9)), Unknown)
        assert (engine.conflicts, engine.decisions) == (0, 1023)
        engine = cdcl.Engine(n, chain)
        assert engine.solve(Budget(seconds=1e-9)) == Unknown(
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
                    result = engine.solve()
                    if expected is None:
                        assert result == Unsat()
                    else:
                        assert isinstance(result, Sat)
                        assert satisfies(added, result.model)

    def test_level_zero_facts_simplify_added_clauses(self):
        engine = cdcl.Engine(2, [(1,)])
        assert isinstance(engine.solve(), Sat)
        engine.add_clauses([(1, 2)])  # already true at level 0: not stored
        assert engine.clauses == []
        engine.add_clauses([(-1, 2)])  # -1 is false at level 0: unit 2
        assert engine.solve() == Sat({1: True, 2: True})
        engine.add_clauses([(-2, -1)])  # both false: the formula is refuted
        assert engine.solve() == Unsat()
        assert not engine.ok

    def test_new_variables_take_part(self):
        engine = cdcl.Engine(1, [(1,)])
        assert engine.solve() == Sat({1: True})
        engine.add_vars(2)
        engine.add_clauses([(-1, -2), (2, 3)])
        assert engine.solve() == Sat({1: True, 2: False, 3: True})

    def test_empty_clause_refutes(self):
        engine = cdcl.Engine(1, ())
        engine.add_clauses([()])
        assert engine.solve() == Unsat()

    def test_each_solve_counts_only_its_own_conflicts(self):
        f = encode(13, 1, 3, 1, 3)
        engine = cdcl.Engine(f.num_vars, f.clauses)
        assert isinstance(engine.solve(), Sat)
        assert engine.conflicts > 0 and engine.learnts
        # The saved phases are the model, so the second solve needs no conflict.
        assert isinstance(engine.solve(), Sat)
        assert engine.conflicts == 0 and engine.learnts == []
        grow_to_14(engine)
        assert engine.solve() == Unsat()
        refutation = engine.conflicts
        assert refutation > 0
        # The same refutation fits a budget of exactly its own conflicts.
        again = cdcl.Engine(f.num_vars, f.clauses)
        again.solve()
        grow_to_14(again)
        assert again.solve(Budget(conflicts=refutation)) == Unsat()
        assert again.conflicts == refutation


class ReferenceLoader(cdcl.Engine):
    """The engine with the loader it had before the code table: a list
    comprehension per clause for the codes, a sort, and the one pass."""

    def add_clauses(self, clauses):
        self._backtrack(0)
        for signed in clauses:
            if not self.ok:
                return
            codes = [2 * l if l > 0 else -2 * l + 1 for l in signed]
            codes.sort()
            lits = []
            prev = 0
            for lit in codes:
                if lit == prev:
                    continue
                if self.val[lit] == cdcl._TRUE or lit == prev ^ 1:
                    break
                if self.val[lit] == cdcl._UNDEF:
                    lits.append(lit)
                prev = lit
            else:
                if not lits:
                    self.ok = False
                elif len(lits) == 1:
                    self._enqueue(lits[0], None)
                else:
                    self.clauses.append(lits)
                    self.watches[lits[0]].append(lits)
                    self.watches[lits[1]].append(lits)


def loaded_state(engine: cdcl.Engine):
    """The stored clauses, each watch list as the positions of its clauses in
    the store, the trail and ok."""
    position = {id(c): i for i, c in enumerate(engine.clauses)}
    watches = [[position[id(c)] for c in ws] for ws in engine.watches]
    return engine.clauses, watches, engine.trail, engine.ok


def shuffled(rng: random.Random, f: CnfFormula) -> list[tuple[int, ...]]:
    """f's clauses in a random order, each with its literals shuffled."""
    clauses = [tuple(rng.sample(c, len(c))) for c in f.clauses]
    rng.shuffle(clauses)
    return clauses


class TestLoader:
    def test_matches_the_reference_loader_on_messy_clauses(self):
        rng = random.Random(6151)
        mess = random.Random(1516)
        for _ in range(200):
            f = random_formula(rng)
            messy = messy_clauses(mess, f)
            assert loaded_state(cdcl.Engine(f.num_vars, messy)) == \
                loaded_state(ReferenceLoader(f.num_vars, messy))

    def test_matches_the_reference_loader_on_a_shuffled_encoding(self):
        f = encode(8, 2, 3, 2, 3)
        clauses = shuffled(random.Random(883), f)
        engine = cdcl.Engine(f.num_vars, clauses)
        reference = ReferenceLoader(f.num_vars, clauses)
        assert loaded_state(engine) == loaded_state(reference)
        assert engine.solve() == reference.solve()
        assert (engine.conflicts, engine.decisions, engine.propagations) == \
            (reference.conflicts, reference.decisions, reference.propagations)

    @pytest.mark.parametrize("lit", [0, 4, -4, 6, -7],
                             ids=["zero", "n+1", "-(n+1)", "2n", "-(2n+1)"])
    def test_literal_outside_the_variables_is_input_error(self, lit):
        # n = 3. A table indexed from the end would read 2n and -(2n+1) as
        # other variables' codes; 0 used to make its clause a tautology.
        with pytest.raises(InputError, match=rf"^literal {lit} outside \[1, 3\]$"):
            cdcl.Engine(3, [(1, 2), (-1, lit, 3)])
        engine = cdcl.Engine(3, [])
        with pytest.raises(InputError, match=rf"^literal {lit} outside"):
            engine.add_clauses([(lit,)])


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
        clauses, _, answer, counters, rounds = reduced_engine
        assert isinstance(answer, Sat) and satisfies(clauses, answer.model)
        assert rounds == 2
        assert counters == (6073, 7564, 234135, 3443)

    def test_decisions_are_pinned(self, decision_digest):
        # The reduced_engine solve again, read decision by decision: 7,564
        # literals and the closing 0.
        clauses = random_3sat(4, 200, 852)
        assert isinstance(cdcl.Engine(200, clauses).solve(), Sat)
        assert decision_digest.hexdigest() == (
            "0c26426f81af0ad426eac6032c15ac075fdb8dd2fb9b00351e209d52ca9e32c7")

    def test_watch_lists_hold_only_live_clauses(self, reduced_engine):
        _, engine, _, _, _ = reduced_engine
        assert len(engine.learnts) > 0
        assert_watches_consistent(engine)
        # The next solve drops every learnt clause before it starts.
        assert isinstance(engine.solve(), Sat)
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
        answer = engine.solve()
        assert isinstance(answer, Sat) and satisfies(clauses, answer.model)
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
        assert isinstance(engine.solve(), Sat)
        assert engine.restarts == engine.reductions == 0


def assert_flags_match_heap(engine: cdcl.Engine) -> None:
    """in_heap[v] is set exactly when the heap holds (-activity[v], v)."""
    live = set(engine.heap)
    for v in range(1, engine.n + 1):
        assert engine.in_heap[v] == ((-engine.activity[v], v) in live)


@pytest.fixture
def checked_heap(monkeypatch) -> list[int]:
    """Check, before every _decide call, that each unassigned variable has its
    live entry (-activity[v], v) in the decision heap, and after it, that 0
    comes back only when every variable is assigned; _decide returns 0 when
    the heap runs dry, which is sound only under that invariant. The variable
    decided must be the unassigned one a linear scan finds first by
    (-activity[v], v), and before and after the call each flag must be set
    exactly when the heap holds its variable's live entry. Returns the list of
    heap rebuilds, one entry per _rebuild_heap call."""
    decide, rebuild = cdcl.Engine._decide, cdcl.Engine._rebuild_heap
    rebuilds: list[int] = []

    def checked_decide(engine):
        live = set(engine.heap)
        unassigned = [
            v for v in range(1, engine.n + 1) if engine.val[2 * v] == cdcl._UNDEF
        ]
        for v in unassigned:
            assert (-engine.activity[v], v) in live
        assert_flags_match_heap(engine)
        lit = decide(engine)
        assert lit or all(engine.val[2 * v] for v in range(1, engine.n + 1))
        if unassigned:
            assert lit >> 1 == min(unassigned, key=lambda v: (-engine.activity[v], v))
        assert_flags_match_heap(engine)
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
        assert isinstance(engine.solve(), Sat)
        engine.add_clauses([(1,)])
        assert isinstance(engine.solve(), Sat)
        grow_to_14(engine)
        assert engine.solve() == Unsat()
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
        assert engine.solve() == Unsat()
        # The rebuild at the start of the solve, then one rescale.
        assert len(checked_heap) == 2 and checked_heap[1] > 0
        assert engine.conflicts > checked_heap[1]


def reference_read_dimacs(text: str) -> CnfFormula:
    """The DIMACS grammar read_dimacs implements, one line at a time: comment
    lines, one "p cnf" header before the first clause, clauses that span
    lines or share one, a "%" line that ends the file, and the same
    ParseError messages."""
    num_vars = num_clauses = None
    clauses, current = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"second DIMACS header: {line!r}")
            if clauses or current:
                raise ParseError(f"DIMACS header after clauses: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad DIMACS header: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad DIMACS header: {line!r}") from None
            continue
        if line == "%":
            break
        try:
            values = [int(token) for token in line.split()]
        except ValueError:
            raise ParseError(f"bad DIMACS clause line: {line!r}") from None
        for value in values:
            if value:
                current.append(value)
            else:
                clauses.append(tuple(current))
                current = []
    if num_vars is None:
        raise ParseError("missing DIMACS 'p cnf' header")
    if current:
        raise ParseError("last clause is not 0-terminated")
    if len(clauses) != num_clauses:
        raise ParseError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def read_outcome(read, text):
    """The formula a reader returns, or the type and message of its refusal."""
    try:
        f = read(text)
    except InputError as e:
        return type(e).__name__, str(e)
    return "ok", f.num_vars, f.clauses


LINE_BREAKS = ("\n", "\r\n", "\r", "\f", "\v", "\x1c")


def random_dimacs_text(rng: random.Random) -> str:
    """A small DIMACS text, often malformed: comment, header and "%" lines,
    blank lines, leading whitespace, several clauses on a line, clauses that
    span lines, six kinds of line break, the spellings "+3", "03" and "-0",
    and now and then a bad token."""
    num_vars = rng.randint(1, 6)

    def token(value: int) -> str:
        if rng.random() < 0.01:
            return rng.choice(("x", "12x", "--1", "1.0", "%", "c1", "p"))
        sign = "-" if value < 0 or rng.random() < 0.1 else rng.choice(("", "+"))
        return sign + rng.choice(("", "", "0")) + str(abs(value))

    lines, zeros = [], 0
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(("c", "c comment 1 0", "c p cnf 1 1", "c %")))
        elif kind < 0.15:
            lines.append(rng.choice(("", " ", "\t")))
        elif kind < 0.17:
            lines.append(rng.choice(("%", "% 0", "%%", "p cnf 1", "p dnf 1 1")))
        else:
            tokens = []
            for _ in range(rng.randint(1, 3)):
                width = rng.randint(0, 3)
                tokens += (token(rng.choice((-1, 1)) * rng.randint(1, num_vars))
                           for _ in range(width))
                if rng.random() < 0.9:
                    tokens.append(token(0))
                    zeros += 1
            lines.append(rng.choice(("", " ", "\t ")) + " ".join(tokens) + rng.choice(("", " ")))
    header = (f"p cnf {num_vars - (rng.random() < 0.05)} "
              f"{zeros + rng.choice((0, 0, 0, 0, 1, -1))}")
    lines.insert(0 if rng.random() < 0.7 else rng.randint(0, len(lines)), header)
    if rng.random() < 0.05:
        lines.insert(rng.randint(0, len(lines)), header)
    one_break = rng.choice(LINE_BREAKS) if rng.random() < 0.5 else None
    text = "".join(line + (one_break or rng.choice(LINE_BREAKS)) for line in lines)
    return text[:-1] if rng.random() < 0.2 else text


def dimacs_lines(count: int, clause: str = "1 -2 3 -4 5 -6 7 -8 0") -> list[str]:
    """A header for `count` clauses over 8 variables, then the clause line
    `clause` that many times."""
    return [f"p cnf 8 {count}"] + [clause] * count


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

    def test_header_over_the_size_ceiling_is_refused(self):
        # The header alone would size the engine's per-variable arrays.
        assert read_dimacs(f"p cnf {SIZE_CEILING} 0\n").num_vars == SIZE_CEILING
        with pytest.raises(SizeError, match=f"more than {SIZE_CEILING} variables"):
            read_dimacs(f"p cnf {SIZE_CEILING + 1} 0\n1 0\n")

    def test_percent_line_ends_the_file(self):
        f = read_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
        assert f.clauses == ((1, 2),)

    def test_read_multiline_clause(self):
        f = read_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_read_several_clauses_on_a_line(self):
        f = read_dimacs("p cnf 3 3\n1 0 2\n3 0 -1 0\n")
        assert f.clauses == ((1,), (2, 3), (-1,))

    def test_read_errors(self):
        with pytest.raises(ParseError):
            read_dimacs("1 2 0\n")  # no header
        with pytest.raises(ParseError):
            read_dimacs("p cnf x 1\n1 0\n")
        with pytest.raises(ParseError):
            read_dimacs("p cnf 2 1\n1 2\n")  # unterminated
        with pytest.raises(ParseError):
            read_dimacs("p cnf 2 2\n1 0\n")  # count mismatch

    @pytest.mark.parametrize("block", [1, 5, 64, sat._BLOCK])
    def test_agrees_with_the_line_by_line_reader(self, monkeypatch, block):
        monkeypatch.setattr(sat, "_BLOCK", block)
        rng = random.Random(block)
        outcomes = Counter()
        for _ in range(3000):
            text = random_dimacs_text(rng)
            expected = read_outcome(reference_read_dimacs, text)
            assert read_outcome(read_dimacs, text) == expected, text
            outcomes[expected[1].split(":")[0] if expected[0] == "ParseError" else expected[0]] += 1
        # Formulas, each parse error, and literals outside the header's count.
        assert outcomes["ok"] > 800 and outcomes["InputError"] > 0
        assert {"bad DIMACS clause line", "bad DIMACS header", "second DIMACS header",
                "DIMACS header after clauses", "last clause is not 0-terminated"} <= set(outcomes)

    def test_clause_spanning_the_block_cut(self):
        # Every clause spans two lines of 7 characters with their breaks, so
        # padding the comment by 7 moves the first cut by a line: the first
        # block ends once inside a clause and once between two.
        last_lines = set()
        for pad in (0, 7):
            lines = [f"c {'x' * pad}", "p cnf 8 20000"] + ["1 -2 3", "-4 5 0"] * 20000
            text = "\n".join(lines) + "\n"
            assert read_dimacs(text).clauses == ((1, -2, 3, -4, 5),) * 20000
            cut = text.find("\n", sat._BLOCK)
            last_lines.add(text[text.rfind("\n", 0, cut) + 1:cut])
        assert last_lines == {"1 -2 3", "-4 5 0"}

    def test_comment_just_after_the_cut(self):
        text = "\n".join(dimacs_lines(10000)) + "\n"
        cut = text.find("\n", sat._BLOCK) + 1
        text = text[:cut] + "c a comment 1 -2 0\n" + text[cut:]
        f = read_dimacs(text)
        assert f.clauses == ((1, -2, 3, -4, 5, -6, 7, -8),) * 10000
        assert read_outcome(read_dimacs, text) == read_outcome(reference_read_dimacs, text)

    def test_percent_line_in_a_later_block(self):
        lines = dimacs_lines(10000)
        lines[0] = "p cnf 8 8000"
        lines.insert(8001, "%")
        lines.append("what follows the end line is never read")
        text = "\n".join(lines) + "\n"
        assert text.index("%") > 2 * sat._BLOCK
        assert read_dimacs(text).clauses == ((1, -2, 3, -4, 5, -6, 7, -8),) * 8000
        assert read_outcome(read_dimacs, text) == read_outcome(reference_read_dimacs, text)

    def test_lines_ending_in_carriage_returns_only(self):
        lines = ["c made elsewhere"] + dimacs_lines(10000, "1 -2\r3 0")
        text = "\r".join(lines) + "\r"
        assert len(text) > sat._BLOCK and "\n" not in text
        assert read_dimacs(text).clauses == ((1, -2, 3),) * 10000
        assert read_dimacs(text.encode()).clauses == ((1, -2, 3),) * 10000

    def test_clause_over_many_lines_reads_in_linear_time(self):
        # The comments keep every block off the one-line path. Regrowing the
        # open clause for each line would copy it 30,000 times (5 s on a
        # 2-vCPU Xeon).
        text = "p cnf 2 1\n" + "1 -2\nc\n" * 30000 + "0\n"
        t0 = time.perf_counter()
        f = read_dimacs(text)
        elapsed = time.perf_counter() - t0
        assert f.clauses == ((1, -2) * 30000,)
        assert elapsed < 1.0

    def test_bad_token_deep_in_a_plain_block_names_its_line(self):
        lines = dimacs_lines(10000)
        lines[4999] = "1 -2 3 -4 12x -6 7 -8 0"
        text = "\n".join(lines) + "\n"
        # Line 5,000 lies in the second block, which holds only clauses.
        assert sat._BLOCK < text.index("12x") < 2 * sat._BLOCK
        with pytest.raises(ParseError) as e:
            read_dimacs(text.encode())
        assert str(e.value) == "bad DIMACS clause line: '1 -2 3 -4 12x -6 7 -8 0'"

    @pytest.mark.parametrize("text, start", [
        ("p cnf " + "9" * 100000 + " 0\n", "bad DIMACS header: 'p cnf 999"),
        ("p cnf 1 1 " + "1 " * 100000 + "\n", "bad DIMACS header: 'p cnf 1 1 1 "),
        ("p cnf 1 0\np cnf " + "1 " * 100000 + "\n", "second DIMACS header: 'p cnf 1 "),
        ("1 0\np cnf " + "1 " * 100000 + "\n", "DIMACS header after clauses: 'p cnf 1 "),
        ("p cnf 1 1\n" + "1 " * 200000 + "x 0\n", "bad DIMACS clause line: '1 1 "),
    ], ids=["header-number", "header-shape", "second-header", "header-after-clauses",
            "clause-line"])
    def test_refusal_quotes_a_bounded_prefix_of_a_long_line(self, text, start):
        # A line over 100 characters is quoted by its first 100 and its length.
        with pytest.raises(ParseError) as e:
            read_dimacs(text)
        line = text.splitlines()[-1].strip()
        assert str(e.value).startswith(start)
        assert str(e.value).endswith(f"'... <{len(line)} characters>")
        assert len(str(e.value)) < 200

    def test_long_clause_count_is_shown_by_its_length(self):
        with pytest.raises(ParseError) as e:
            read_dimacs("p cnf 1 " + "9" * 4000 + "\n1 0\n")
        assert str(e.value) == "header promises <13288-bit integer> clauses, found 1"

    def test_transient_memory_is_bounded_by_a_block(self):
        # A list of every line held beside the text peaks at 2.26 times
        # what the formula keeps. Lines that end in "\r" alone are cut into
        # blocks too; read as one block they peak at 2.24 times.
        data = write_dimacs(encode(22, 2, 3, 2, 4))
        for text in (data, data.replace(b"\n", b"\r")):
            gc.collect()
            tracemalloc.start()
            try:
                f = read_dimacs(text)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert f.num_clauses > 100000
            assert peak / retained < 1.8


def distinct_objects(clauses) -> tuple[int, int]:
    """How many int objects, and how many distinct values, the clauses hold."""
    lits = [l for c in clauses for l in c]
    return len(set(map(id, lits))), len(set(lits))


class TestLiteralSharing:
    def test_one_object_per_value(self):
        f = encode(14, 2, 3, 2, 4)  # 588 variables, most literals beyond the small-int cache
        g = read_dimacs(write_dimacs(CnfFormula(f.num_vars, tuple(shuffled(random.Random(2), f)))))
        objects, values = distinct_objects(g.clauses)
        assert objects == values > 1000
        engine = cdcl.Engine(g.num_vars, g.clauses)
        objects, values = distinct_objects(engine.clauses)
        assert objects == values > 1000

    def test_spellings_of_one_value_share_it(self):
        f = read_dimacs("p cnf 300 2\n300 -300 0\n+300 0300 -0300 0\n")
        assert f.clauses == ((300, -300), (300, 300, -300))
        assert distinct_objects(f.clauses) == (2, 2)

    def test_reading_and_loading_retain_under_70_bytes_per_literal(self):
        # 73,968 literals over 588 variables. One int object per occurrence,
        # in the parsed clauses and again in the engine's codes, retained 94.
        data = write_dimacs(encode(14, 2, 3, 2, 4))
        gc.collect()
        tracemalloc.start()
        try:
            f = read_dimacs(data)
            engine = cdcl.Engine(f.num_vars, f.clauses)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        literals = sum(map(len, f.clauses))
        assert literals == 73968 and engine.ok
        assert retained / literals < 70


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

    def test_long_status_is_quoted_by_a_bounded_prefix(self):
        result = parse_solver_output("s " + "UNKNOWN " * 20000 + "\n")
        assert result == Unknown(f"solver reported {'UNKNOWN ' * 12 + 'UNKN'!r}... "
                                 f"<159999 characters>")

    def test_long_bad_v_line_is_quoted_by_a_bounded_prefix(self):
        line = "v " + "1 " * 100000 + "x"
        with pytest.raises(ParseError) as e:
            parse_solver_output(f"s SATISFIABLE\n{line}\n")
        assert str(e.value) == f"bad v-line: {line[:100]!r}... <{len(line)} characters>"

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

    def test_string_command_refused(self, internal_solver_cmd):
        with pytest.raises(InputError, match="argv words, not a str"):
            solve_external(CnfFormula(1, ((1,),)), " ".join(internal_solver_cmd))

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

    @pytest.mark.parametrize("stdout, stderr, expected", [
        (b"c \xff\xfe\ns UNSATISFIABLE\n", b"", Unsat()),
        (b"s UNKNOWN\n", b"\xff\n", Unknown("solver reported 'UNKNOWN'")),
    ], ids=["stdout", "stderr"])
    def test_output_that_is_not_utf8_is_read(self, tmp_path, stdout, stderr, expected):
        # Stdout is read as ASCII with other bytes replaced; stderr is not read.
        solver = tmp_path / "bytes.py"
        solver.write_text("import sys\n"
                          f"sys.stdout.buffer.write({stdout!r})\n"
                          f"sys.stderr.buffer.write({stderr!r})\n")
        result = solve_external(CnfFormula(1, ((1,), (-1,))), [sys.executable, str(solver)])
        assert result == expected

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


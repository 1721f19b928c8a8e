"""Conflict-driven clause-learning engine, and the package's result types.

This is the embedded decision procedure behind sat.solve_internal and every
level a search decides: two watched literals per clause, first-UIP clause
learning with recursive minimization, VSIDS decision scores with
deterministic index tie-breaking, saved phases, Luby restarts, and LBD-based
deletion of learned clauses. Engine.solve answers under a Budget with Sat,
Unsat or Unknown, the types every solver in the package answers with; sat
re-exports them.

Deletion runs on Glucose 2's conflict schedule (Audemard & Simon, IJCAI 2009):
the first round at the first decision point at or after conflict 2,000 of a
solve, and each later round 2,000 + 300*x conflicts after the one before, x
being the rounds so far. The schedule does not depend on the size of the
formula on purpose: a cap on learnt clauses that grows with the clause count,
such as max(4000, 2 * clauses // 3), never fires in a plane search. The d2 k3
r3 refutation of N=18 stores 34,872 clauses, a cap of 23,248, and without
deletion ends holding 9,820 learnt clauses, which take two thirds of its watch
visits.

Everything is deterministic for a fixed sequence of calls: ties in the
decision heap break on variable index, restarts follow the Luby sequence, and
wall-clock budgets can only turn a would-be answer into Unknown, never
change it. Every clause, whether given to the constructor or added between
solves, is loaded by add_clauses, which looks its literals' codes up in the
engine's code table and sorts them once.

A clause is a plain list of literal codes; the watch lists, the reasons and the
clause store all hold that list itself, and a learnt clause is kept beside its
LBD as an (lbd, literals) pair. A learnt clause that is dropped leaves the
watch lists at once, so propagation never meets a dead clause.

Literal coding: variable v (1-based) maps to literal codes 2v (positive) and
2v+1 (negative); code^1 negates. The code table, a dict from each signed
literal +-v to its code, holds one int object per code, which every loaded
clause shares; a literal that is not in it (0, or beyond +-n) is an
InputError.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, shown

_UNDEF = 0
_TRUE = 1
_FALSE = 2

# Glucose 2's deletion schedule: conflicts before the first _reduce_db round,
# and how much longer each later gap is than the one before.
_FIRST_REDUCE = 2000
_REDUCE_INC = 300


@dataclass(frozen=True)
class Budget:
    """Optional wall-clock / conflict limits for a single solve call."""

    seconds: float | None = None
    conflicts: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is not None and not self.seconds > 0:  # NaN too
            raise InputError("budget seconds must be positive")
        if self.conflicts is not None and self.conflicts <= 0:
            raise InputError("budget conflicts must be positive")


@dataclass(frozen=True)
class Sat:
    """Satisfiable, with a total assignment variable -> boolean."""

    model: dict[int, bool]


@dataclass(frozen=True)
class Unsat:
    """No satisfying assignment exists."""


@dataclass(frozen=True)
class Unknown:
    """No answer within budget, or the solver failed; reason is human-readable."""

    reason: str


SolveResult = Sat | Unsat | Unknown


def _luby(i: int) -> int:
    """i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Engine:
    """CDCL solver over integer-coded clauses; solve(budget) answers Sat,
    Unsat or Unknown.

    A formula can grow between solves: add_vars and add_clauses extend it at
    decision level 0, which is how a search reuses one engine for every box
    size. Each solve starts from the state a fresh engine would have (zero
    activities, no learnt clauses, counters from zero) but keeps the clauses,
    the level-0 facts and the saved phases; after a satisfiable solve the
    phases are that model, so the next solve starts from it.

    The counters of the last solve: conflicts, decisions, propagations (the
    trail literals whose watch lists _propagate visited), restarts, and
    reductions (_reduce_db rounds).
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]) -> None:
        self.n = 0
        self.val = bytearray(2)
        self.watches: list[list[list[int]]] = [[], []]
        self.level = [0]
        self.reason: list[list[int] | None] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0]
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        self.in_heap = bytearray(1)  # 1 while (-activity[v], v) is in heap
        self.phase = bytearray(1)  # 1 -> decide positive first
        self.clauses: list[list[int]] = []
        self.learnts: list[tuple[int, list[int]]] = []  # (lbd, literals)
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.reductions = 0
        self._seen = bytearray(1)
        self.code: dict[int, int] = {}  # signed literal -> literal code
        self.add_vars(num_vars)
        self.add_clauses(clauses)

    # -- growing the formula -----------------------------------------------

    def add_vars(self, count: int) -> None:
        """Append count fresh variables, numbered after the existing ones."""
        code = self.code
        for v in range(self.n + 1, self.n + count + 1):
            code[v] = 2 * v
            code[-v] = 2 * v + 1
        self.n += count
        self.val.extend(bytes(2 * count))
        self.watches.extend([] for _ in range(2 * count))
        self.level.extend([0] * count)
        self.reason.extend([None] * count)
        self.activity.extend([0.0] * count)
        self.phase.extend(bytes(count))
        self.in_heap.extend(bytes(count))
        self._seen.extend(bytes(count))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses over existing variables; the only way clauses enter.

        The engine first returns to decision level 0. Level-0 facts only ever
        follow from the clauses, which only grow, so a literal false at level 0
        is dropped, a repeated literal is kept once, and a clause already true
        at level 0 or holding a literal and its negation is not stored. Sorting
        a clause's codes once puts a repeat next to its first copy and a
        negation (codes 2v, 2v+1) next to its partner, so one pass over the
        sorted codes finds whether some variable repeats or is assigned at
        level 0. Most clauses have neither, and the clause is then an
        exact-size copy of the sorted codes (sorted over-allocates: 120 bytes
        against 80 for three literals); any other clause goes through
        _simplify. Codes come from the code table, so the stored clauses share
        one int object per code. A literal outside +-1..n raises InputError;
        the clauses before it stay added.
        """
        self._backtrack(0)
        val = self.val
        watches = self.watches
        code = self.code.__getitem__
        for signed in clauses:
            if not self.ok:
                return
            try:
                codes = sorted(map(code, signed))
            except KeyError as e:
                lit = e.args[0]
                shown_lit = shown(lit) if isinstance(lit, int) else repr(lit)
                raise InputError(f"literal {shown_lit} outside [1, {self.n}]") from None
            prev = 1
            for lit in codes:
                if val[lit] or lit | 1 == prev:
                    lits = self._simplify(codes)
                    break
                prev = lit | 1
            else:
                lits = codes[:]
            if lits is None:
                continue
            if not lits:
                self.ok = False
            elif len(lits) == 1:
                self._enqueue(lits[0], None)
            else:
                self.clauses.append(lits)
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)

    def _simplify(self, codes: list[int]) -> list[int] | None:
        """The literals of sorted codes that are unassigned at level 0, each
        once; None when the clause is true at level 0 or holds a literal and
        its negation."""
        val = self.val
        lits: list[int] = []
        prev = 0
        for lit in codes:
            if lit == prev:
                continue
            if val[lit] == _TRUE or lit == prev ^ 1:
                return None
            if val[lit] == _UNDEF:
                lits.append(lit)
            prev = lit
        return lits

    def _detach(self, dead: list[list[int]]) -> None:
        """Take the clauses in dead out of the watch lists. Each affected list
        is filtered once, by identity, and the rest keep their order."""
        gone = {id(lits) for lits in dead}
        watches = self.watches
        for lit in {lit for lits in dead for lit in lits[:2]}:
            watches[lit] = [c for c in watches[lit] if id(c) not in gone]

    def _start_solve(self) -> None:
        """Reset the per-solve search state to that of a fresh engine; the
        clauses, level-0 facts and saved phases stay. The learnt clauses of
        the last solve leave the watch lists here; a level-0 variable may keep
        one as its reason, but no reason of a level-0 variable is ever read."""
        self._backtrack(0)
        self._detach([lits for _, lits in self.learnts])
        self.learnts = []
        self.activity = [0.0] * (self.n + 1)
        self.var_inc = 1.0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.reductions = 0

    # -- assignment primitives -------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        self.val[lit] = _TRUE
        self.val[lit ^ 1] = _FALSE
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backtrack(self, target_level: int) -> None:
        """Unassign every literal above target_level, saving its phase. A
        variable gets a heap entry only if its flag is clear: one that was
        propagated, and neither bumped nor popped since, keeps its entry."""
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        heap = self.heap
        activity = self.activity
        in_heap = self.in_heap
        phase = self.phase
        val = self.val
        reason = self.reason
        trail = self.trail
        for i in range(len(trail) - 1, limit - 1, -1):
            lit = trail[i]
            v = lit >> 1
            phase[v] = 1 - (lit & 1)
            val[lit] = _UNDEF
            val[lit ^ 1] = _UNDEF
            reason[v] = None
            if not in_heap[v]:
                in_heap[v] = 1
                heapq.heappush(heap, (-activity[v], v))
        del trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(trail)

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Propagate the trail from qhead; returns a conflicting clause or None.

        A watched clause keeps its two watches at positions 0 and 1. When the
        other watch is true the visit leaves the clause as it is; otherwise
        it puts the false watch at position 1 before looking, from position 2
        up, for a literal to watch instead. Every reader of a clause's order
        (the next visit, _analyze, _redundant) sees it only after such a
        visit, and _reduce_db's lock test reads both positions alike, so
        skipping the swap on a satisfied clause cannot be observed.
        """
        val = self.val
        watches = self.watches
        trail = self.trail
        push = trail.append
        level = self.level
        reason = self.reason
        depth = len(self.trail_lim)
        start = qhead = self.qhead
        while qhead < len(trail):
            flit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[flit]
            j = 0
            it = iter(ws)
            for lits in it:
                first = lits[0]
                if first == flit:
                    first = lits[1]
                    if val[first] == _TRUE:
                        ws[j] = lits
                        j += 1
                        continue
                    lits[0] = first
                    lits[1] = flit
                elif val[first] == _TRUE:
                    ws[j] = lits
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if val[lk] != _FALSE:
                        lits[1] = lk
                        lits[k] = flit
                        watches[lk].append(lits)
                        break
                else:
                    ws[j] = lits
                    j += 1
                    if val[first] == _FALSE:
                        ws[j:] = it
                        self.qhead = qhead
                        self.propagations += qhead - start
                        return lits
                    val[first] = _TRUE
                    val[first ^ 1] = _FALSE
                    v = first >> 1
                    level[v] = depth
                    reason[v] = lits
                    push(first)
            del ws[j:]
        self.qhead = qhead
        self.propagations += qhead - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, v: int) -> None:
        """Raise v's activity. v is assigned, being in a conflict clause or a
        reason, so nothing is pushed: its entry, if any, goes stale and its
        flag is cleared, and _backtrack pushes a fresh entry when it
        unassigns v. Past 1e100 every activity is rescaled and the heap
        rebuilt."""
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        self.in_heap[v] = 0
        if act > 1e100:
            scale = 1e-100
            for u in range(1, self.n + 1):
                self.activity[u] *= scale
            self.var_inc *= scale
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """A heap of the live entries of the unassigned variables alone, with
        exactly their flags set; every stale entry is dropped."""
        activity = self.activity
        val = self.val
        in_heap = self.in_heap = bytearray(self.n + 1)
        heap = self.heap = []
        for v in range(1, self.n + 1):
            if val[2 * v] == _UNDEF:
                heap.append((-activity[v], v))
                in_heap[v] = 1
        heapq.heapify(heap)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int, int]:
        """First-UIP learning. Returns (learnt clause, backjump level, lbd);
        the asserting literal sits at learnt[0]."""
        seen = self._seen
        level = self.level
        reason = self.reason
        trail = self.trail
        current = len(self.trail_lim)
        learnt: list[int] = [0]
        counter = 0
        p = -1  # trail literal being resolved; -1 on the first pass
        index = len(trail) - 1
        while True:
            for q in confl:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if level[v] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            seen[v] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
            confl = reason[v]  # type: ignore[assignment]
        learnt[0] = p ^ 1

        marked: list[int] = []
        kept = [learnt[0]]
        for q in learnt[1:]:
            if reason[q >> 1] is None or not self._redundant(q, marked):
                kept.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0
        for v in marked:
            seen[v] = 0
        learnt = kept

        lbd = len({level[q >> 1] for q in learnt})
        if len(learnt) == 1:
            bj = 0
        else:
            mi = max(range(1, len(learnt)), key=lambda i: level[learnt[i] >> 1])
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bj = level[learnt[1] >> 1]
        return learnt, bj, lbd

    def _redundant(self, lit: int, marked: list[int]) -> bool:
        """True if lit, which has a reason, is implied by the rest of the learnt
        clause: its reason chain, followed only through literals with reasons,
        stays in the seen set. The marks stay; the caller clears `marked`."""
        reason = self.reason
        level = self.level
        seen = self._seen
        stack = [lit]
        added_from = len(marked)
        while stack:
            for q in reason[stack.pop() >> 1]:  # type: ignore[union-attr]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    if reason[v] is None:
                        for u in marked[added_from:]:
                            seen[u] = 0
                        del marked[added_from:]
                        return False
                    seen[v] = 1
                    marked.append(v)
                    stack.append(q)
        return True

    # -- learned clause management ---------------------------------------------

    def _reduce_db(self) -> None:
        """Keep the glue clauses (LBD <= 2), which include every binary one,
        the reasons and the better half of the rest by (LBD, length); drop
        the others.

        solve calls this on the conflict schedule of the module docstring,
        which does not depend on how many clauses the formula has."""
        reason = self.reason
        keep: list[tuple[int, list[int]]] = []
        drop: list[tuple[int, list[int]]] = []
        for entry in self.learnts:
            lbd, lits = entry
            if lbd <= 2 or reason[lits[0] >> 1] is lits or reason[lits[1] >> 1] is lits:
                keep.append(entry)
            else:
                drop.append(entry)
        drop.sort(key=lambda entry: (entry[0], len(entry[1])))
        half = len(drop) // 2
        keep.extend(drop[:half])
        self._detach([lits for _, lits in drop[half:]])
        self.learnts = keep

    # -- decisions ----------------------------------------------------------------

    def _decide(self) -> int:
        """Next decision literal, or 0 when every variable is assigned: the
        unassigned variable of highest activity, the lowest index on ties.

        The heap is lazy. An entry (-activity[v], v) is live while v's
        activity is unchanged, and v's flag in_heap[v] is set exactly while
        its live entry is in the heap, so each variable has at most one.
        Every unassigned variable has one: solve and _bump's rescale rebuild
        the heap over the unassigned variables, and _backtrack pushes an entry
        for each variable it unassigns whose flag is clear. _bump clears the
        flag, as its entry goes stale, and so does this pop of a live entry,
        whether its variable is assigned or not; stale entries are dropped.
        """
        val = self.val
        heap = self.heap
        activity = self.activity
        in_heap = self.in_heap
        while heap:
            negact, v = heapq.heappop(heap)
            if -negact == activity[v]:
                in_heap[v] = 0
                if val[2 * v] == _UNDEF:
                    return 2 * v + (0 if self.phase[v] else 1)
        return 0

    # -- main loop --------------------------------------------------------------------

    def solve(self, budget: Budget | None = None) -> SolveResult:
        """Run the search on the clauses held, which may have been added
        across several calls, to an answer or the budget. Sat's model is total
        over the engine's variables and unchecked: the caller checks it. An
        Unknown's reason gives the counters at the moment the budget ran out."""
        self._start_solve()
        if not self.ok:
            return Unsat()
        if self._propagate() is not None:
            self.ok = False
            return Unsat()
        self._rebuild_heap()

        seconds = budget.seconds if budget else None
        max_conflicts = budget.conflicts if budget else None
        deadline = time.monotonic() + seconds if seconds is not None else None
        restart_limit = 100 * _luby(1)
        conflicts_at_restart = 0
        next_reduce = _FIRST_REDUCE

        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return Unsat()
                learnt, bj, lbd = self._analyze(confl)
                self._backtrack(bj)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.learnts.append((lbd, learnt))
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                if max_conflicts is not None and self.conflicts >= max_conflicts:
                    return self._out_of(budget)
                if deadline is not None and self.conflicts % 256 == 0:
                    if time.monotonic() > deadline:
                        return self._out_of(budget)
                continue

            if self.conflicts - conflicts_at_restart >= restart_limit:
                self.restarts += 1
                restart_limit = 100 * _luby(self.restarts + 1)
                conflicts_at_restart = self.conflicts
                self._backtrack(0)

            if self.conflicts >= next_reduce:
                self._reduce_db()
                self.reductions += 1
                next_reduce = self.conflicts + _FIRST_REDUCE + _REDUCE_INC * self.reductions

            if deadline is not None and self.decisions & 1023 == 1023:
                if time.monotonic() > deadline:
                    return self._out_of(budget)
            lit = self._decide()
            if lit == 0:
                val = self.val
                return Sat({v: val[2 * v] == _TRUE for v in range(1, self.n + 1)})
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _out_of(self, budget: Budget) -> Unknown:
        """The answer of a solve that ran out of budget."""
        limits = []
        if budget.seconds is not None:
            limits.append(f"{budget.seconds:g}s")
        if budget.conflicts is not None:
            limits.append(f"{budget.conflicts} conflicts")
        return Unknown(
            f"internal solver budget exhausted ({', '.join(limits)}) after "
            f"{self.conflicts} conflicts, {self.decisions} decisions, "
            f"{self.reductions} deletion rounds"
        )

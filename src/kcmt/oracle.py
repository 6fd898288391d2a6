"""Brute-force reference semantics over total truth assignments.

For a formula phi and an atom superset alpha, every one of the 2^|alpha|
total assignments is classified: propositional satisfiers of phi are theory
checked and routed into the theory-consistent set (ctta) or the theory
inconsistent set (itta). All eight queries are then answered straight off
those sets. This is deliberately the slow, obviously-correct path: it is the
ground truth for every property test, and the AllSMT-style counter below is
the baseline the compiled artifacts are measured against.

Theory checks are memoized on the assignment's LRA-literal projection:
Boolean atoms can never make a total assignment theory-inconsistent, so all
assignments sharing an LRA part share one verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .formulas import Assignment, AtomSet, Dag, atoms_of
from .theory import Literal, LraBackend, TheoryError


class OracleBoundError(RuntimeError):
    """The instance exceeds the configured exhaustive-enumeration bound."""


class OracleTimeout(RuntimeError):
    """An enumeration exceeded its time budget."""


@dataclass(frozen=True)
class AssignmentSets:
    ctta: frozenset
    itta: frozenset
    alpha: AtomSet


def _assignment_key(alpha: AtomSet):
    order = list(alpha)

    def key(eta: Assignment):
        return tuple(0 if eta.value(a) else 1 for a in order)

    return key


class Oracle:
    """Exhaustive CTTA/ITTA classification plus the eight query answers."""

    def __init__(self, backend=None, bound: int = 16):
        self.backend = backend if backend is not None else LraBackend()
        self.bound = bound
        self._theory_memo: dict[frozenset, bool] = {}
        # Keyed on the Dag itself, which keeps it alive: an id could be
        # reused by a later Dag once this one is freed.
        self._sets_memo: dict[tuple, AssignmentSets] = {}

    # -- theory layer ------------------------------------------------------

    def consistent(self, literals: Iterable[Literal]) -> bool:
        key = frozenset((a, p) for a, p in literals if a.kind == "lra")
        hit = self._theory_memo.get(key)
        if hit is None:
            hit = self.backend.check_conjunction(key).is_sat
            self._theory_memo[key] = hit
        return hit

    # -- assignment sets ---------------------------------------------------

    def ctta_itta(self, dag: Dag, node: int, alpha: AtomSet,
                  positive: bool = True) -> AssignmentSets:
        """The sets of `node`, or of its negation when not `positive`. The
        negation is read off the complement of the node's truth table, so
        nothing is written into `dag`."""
        if len(alpha) > self.bound:
            raise OracleBoundError(
                "%d atoms exceed the oracle bound of %d" % (len(alpha), self.bound))
        for a in atoms_of(dag, node):
            if a not in alpha:
                raise TheoryError("formula atom missing from alpha: %s" % a)
        memo_key = (dag, node, positive, tuple(alpha))
        cached = self._sets_memo.get(memo_key)
        if cached is not None:
            return cached
        ctta, itta = [], []
        for values in _models(dag, node, list(alpha), positive=positive):
            eta = Assignment(values)
            if self.consistent(eta.items()):
                ctta.append(eta)
            else:
                itta.append(eta)
        sets = AssignmentSets(frozenset(ctta), frozenset(itta), alpha)
        self._sets_memo[memo_key] = sets
        return sets

    def check_treduced(self, dag: Dag, node: int, alpha: AtomSet) -> bool:
        return not self.ctta_itta(dag, node, alpha).itta

    def check_textended(self, dag: Dag, node: int, alpha: AtomSet) -> bool:
        return not self.ctta_itta(dag, node, alpha, positive=False).itta

    # -- queries -----------------------------------------------------------

    def query(self, kind: str, dag: Dag, node: int, alpha: AtomSet, arg=None):
        """T-level answer for one of the eight query kinds.

        arg: a clause (ce) or cube (im, ct-assume via kind 'ct' + arg) as a
        sequence of (Atom, bool) literals; another formula handle for eq/se.
        """
        sets = self.ctta_itta(dag, node, alpha)
        if kind == "co":
            return bool(sets.ctta)
        if kind == "va":
            neg = self.ctta_itta(dag, node, alpha, positive=False)
            return not neg.ctta
        if kind == "ce":
            clause = self._check_literals(arg, alpha)
            return all(
                any(eta.value(a) == p for a, p in clause) for eta in sets.ctta)
        if kind == "im":
            cube = self._check_literals(arg, alpha)
            neg = self.ctta_itta(dag, node, alpha, positive=False)
            return not any(_extends(eta, cube) for eta in neg.ctta)
        if kind == "ct":
            cube = self._check_literals(arg, alpha)
            return sum(1 for eta in sets.ctta if _extends(eta, cube))
        if kind == "me":
            return sorted(sets.ctta, key=_assignment_key(alpha))
        if kind in ("eq", "se"):
            other = self.ctta_itta(dag, arg, alpha)
            if kind == "eq":
                return sets.ctta == other.ctta
            return sets.ctta <= other.ctta
        raise ValueError("unknown query kind %r" % kind)

    def _check_literals(self, arg, alpha: AtomSet) -> list[Literal]:
        lits = list(arg or ())
        atoms = [a for a, _ in lits]
        if len(set(atoms)) != len(atoms):
            raise TheoryError("duplicate or contradictory literals in query")
        for a in atoms:
            if a not in alpha:
                raise TheoryError("query literal outside alpha: %s" % a)
        return lits


def _extends(eta: Assignment, cube: Sequence[Literal]) -> bool:
    return all(eta.value(a) == p for a, p in cube)


def _models(dag: Dag, node: int, order: list,
            cube: Sequence[Literal] = (), timeout_s: Optional[float] = None,
            positive: bool = True):
    """Propositional models of `node`, or of its negation when not
    `positive`, over `order` that extend `cube`.

    Yields one value dict per model, in increasing order of the integer
    whose bit j is order[j]'s value. With a time budget the clock is read
    every 256 assignments, and OracleTimeout is raised once it has run out.
    """
    bits = dag.truth_bits(node, order)
    if not positive:
        bits = ~bits & ((1 << (1 << len(order))) - 1)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    for b in range(1 << len(order)):
        if deadline is not None and (b & 255) == 0 and time.monotonic() > deadline:
            raise OracleTimeout("AllSMT-style count exceeded %.3fs" % timeout_s)
        if not (bits >> b) & 1:
            continue
        values = {a: bool((b >> j) & 1) for j, a in enumerate(order)}
        if all(values[a] == p for a, p in cube):
            yield values


def count_allsmt(dag: Dag, node: int, alpha: AtomSet,
                 assume: Sequence[Literal] = (),
                 backend=None,
                 timeout_s: Optional[float] = None) -> int:
    """AllSMT-style baseline counter: enumerate and theory-check every
    propositional model, with no pre-enumerated lemmas and no cross-call
    caching. Raises OracleTimeout when the budget runs out.
    """
    oracle = Oracle(backend)  # a fresh theory memo for this call only
    return sum(1 for values in _models(dag, node, list(alpha), assume, timeout_s)
               if oracle.consistent(values.items()))

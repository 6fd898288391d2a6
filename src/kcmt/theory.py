"""Theory backends: consistency checking for conjunctions of atom-literals.

The LRA backend decides conjunctions of linear-rational constraints exactly:
Gaussian elimination for asserted equalities, Fourier-Motzkin elimination for
inequalities, all over `Fraction`. Strictness is tracked symbolically in the
derived relations, so no epsilon guessing happens anywhere; satisfiable
systems get a concrete rational witness via interval back-substitution.

Negated equalities are disequalities and are decided by case-splitting into
the two strict half-spaces. The conflict of a failed split mentions the
disequality only when both half-space branches actually used it.

Every constraint derived during elimination carries the set of input literals
it descends from, so an unsatisfiable system yields a conflict that is a
subset of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .formulas import REL_EQ, REL_LE, REL_LT, Atom

Literal = tuple[Atom, bool]


class TheoryError(ValueError):
    """Unnormalized atom or ill-formed query."""


class TheoryInternalError(AssertionError):
    """Solver self-check failed (e.g. a 1-literal core, which cannot exist)."""


@dataclass(frozen=True)
class TheoryVerdict:
    """Outcome of one consistency check.

    Backend contract: a sat verdict's witness, when present, satisfies every
    queried literal, reading any variable it omits as 0. Lemma enumeration
    relies on this: it carries the witness down its search and skips the
    backend for every extension that already holds there. A sat verdict
    may leave the witness as None; an unsat verdict always has a conflict
    that is a subset of the queried literals.
    """

    status: str  # "sat" | "unsat"
    witness: Optional[dict] = None  # variable -> Fraction
    conflict: Optional[frozenset] = None  # frozenset of (Atom, bool)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


@dataclass(frozen=True)
class ConflictCore:
    literals: frozenset
    minimal: bool


def _check_normalized(atom: Atom) -> None:
    if atom.kind == "bool":
        return
    if atom.kind != "lra":
        raise TheoryError("unknown atom kind %r" % atom.kind)
    if Atom.linear(dict(atom.coeffs), atom.rel, atom.const) != atom:
        raise TheoryError("atom is not in normal form: %s" % (atom,))


def _complementary_pair(literals: Iterable[Literal]) -> Optional[frozenset]:
    seen: dict[Atom, bool] = {}
    for atom, pol in literals:
        if atom in seen and seen[atom] != pol:
            return frozenset(((atom, True), (atom, False)))
        seen[atom] = pol
    return None


class _Constraint:
    """coeffs . x rel const, with the input literals it descends from."""

    __slots__ = ("coeffs", "rel", "const", "origins")

    def __init__(self, coeffs: dict, rel: str, const: Fraction, origins: frozenset):
        self.coeffs = {v: a for v, a in coeffs.items() if a != 0}
        self.rel = rel
        self.const = const
        self.origins = origins


class _Infeasible(Exception):
    def __init__(self, origins: frozenset):
        self.origins = origins


def _substitute(con: _Constraint, var: str, expr: dict, expr_const: Fraction,
                origins: frozenset) -> _Constraint:
    # var = expr . x + expr_const, substituted into con
    b = con.coeffs.get(var)
    if b is None or b == 0:
        return con
    coeffs = dict(con.coeffs)
    del coeffs[var]
    for w, a in expr.items():
        coeffs[w] = coeffs.get(w, Fraction(0)) + b * a
    return _Constraint(coeffs, con.rel, con.const - b * expr_const,
                       con.origins | origins)


def _check_ground(con: _Constraint) -> bool:
    """True when a variable-free constraint holds; raises _Infeasible otherwise."""
    if con.coeffs:
        return False
    zero = Fraction(0)
    ok = (zero <= con.const if con.rel == REL_LE
          else zero < con.const if con.rel == REL_LT
          else zero == con.const)
    if not ok:
        raise _Infeasible(con.origins)
    return True


def _solve_core(constraints: list[_Constraint]) -> dict:
    """Decide a conjunction of <=, <, = constraints; returns a witness.

    Raises _Infeasible with conflict origins when unsatisfiable.
    """
    work = list(constraints)
    substitutions: list[tuple[str, dict, Fraction, frozenset]] = []

    # Gaussian elimination of equalities, one pivot at a time.
    while True:
        work = [c for c in work if not _check_ground(c)]
        eq = next((c for c in work if c.rel == REL_EQ), None)
        if eq is None:
            break
        var = sorted(eq.coeffs)[0]
        a = eq.coeffs[var]
        expr = {w: -b / a for w, b in eq.coeffs.items() if w != var}
        expr_const = eq.const / a
        substitutions.append((var, expr, expr_const, eq.origins))
        work = [_substitute(c, var, expr, expr_const, eq.origins)
                for c in work if c is not eq]

    # Fourier-Motzkin elimination of the remaining inequality variables.
    eliminations: list[tuple[str, list, list]] = []
    while True:
        work = [c for c in work if not _check_ground(c)]
        variables = sorted({v for c in work for v in c.coeffs})
        if not variables:
            break
        var = variables[0]
        lowers: list[tuple[dict, Fraction, str, frozenset]] = []
        uppers: list[tuple[dict, Fraction, str, frozenset]] = []
        rest: list[_Constraint] = []
        for c in work:
            a = c.coeffs.get(var)
            if a is None:
                rest.append(c)
                continue
            # var rel' (const - others)/a ; dividing by a<0 flips the side
            bound = {w: -b / a for w, b in c.coeffs.items() if w != var}
            bconst = c.const / a
            if a > 0:
                uppers.append((bound, bconst, c.rel, c.origins))
            else:
                lowers.append((bound, bconst, c.rel, c.origins))
        for lexpr, lconst, lrel, lorig in lowers:
            for uexpr, uconst, urel, uorig in uppers:
                coeffs = dict(lexpr)
                for w, a in uexpr.items():
                    coeffs[w] = coeffs.get(w, Fraction(0)) - a
                rel = REL_LT if REL_LT in (lrel, urel) else REL_LE
                rest.append(_Constraint(coeffs, rel, uconst - lconst,
                                        lorig | uorig))
        eliminations.append((var, lowers, uppers))
        work = rest

    # Feasible: reconstruct a witness in reverse elimination order.
    values: dict[str, Fraction] = {}

    def ev(expr: dict, const: Fraction) -> Fraction:
        # Variables never bounded anywhere default to 0.
        return sum((a * values.get(w, Fraction(0)) for w, a in expr.items()), const)

    for var, lowers, uppers in reversed(eliminations):
        lo = hi = None
        lo_strict = hi_strict = False
        for expr, const, rel, _ in lowers:
            v = ev(expr, const)
            if lo is None or v > lo:
                lo, lo_strict = v, rel == REL_LT
            elif v == lo and rel == REL_LT:
                lo_strict = True
        for expr, const, rel, _ in uppers:
            v = ev(expr, const)
            if hi is None or v < hi:
                hi, hi_strict = v, rel == REL_LT
            elif v == hi and rel == REL_LT:
                hi_strict = True
        if lo is None and hi is None:
            values[var] = Fraction(0)
        elif lo is None:
            values[var] = hi - 1
        elif hi is None:
            values[var] = lo + 1
        elif lo < hi:
            values[var] = (lo + hi) / 2
        else:
            if lo != hi or lo_strict or hi_strict:
                raise TheoryInternalError(
                    "empty interval for %s survived elimination" % var)
            values[var] = lo
    for var, expr, expr_const, _ in reversed(substitutions):
        values[var] = ev(expr, expr_const)
    return values


def _negated(coeffs: dict, const: Fraction) -> tuple[dict, Fraction]:
    return {v: -a for v, a in coeffs.items()}, -const


class LraBackend:
    """Sound and complete consistency oracle for LRA atom-literals.

    Boolean atoms are theory-free: they only matter through the
    complementary-pair check shared by every backend. Every sat verdict
    carries a witness that assigns each variable of the queried literals
    and satisfies all of them (see `TheoryVerdict`). Each distinct atom is
    checked for normal form once per backend instance.
    """

    def __init__(self) -> None:
        self._normalized: set[Atom] = set()

    def check_conjunction(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = sorted(set(literals), key=lambda lp: (lp[0].sort_key(), lp[1]))
        pair = _complementary_pair(lits)
        if pair is not None:
            return TheoryVerdict("unsat", conflict=pair)
        base: list[_Constraint] = []
        diseqs: list[tuple[dict, Fraction, Literal]] = []
        for atom, pol in lits:
            if atom not in self._normalized:
                _check_normalized(atom)
                self._normalized.add(atom)
            if atom.kind == "bool":
                continue
            origin = frozenset(((atom, pol),))
            coeffs = {v: Fraction(a) for v, a in atom.coeffs}
            if pol:
                base.append(_Constraint(coeffs, atom.rel, atom.const, origin))
            elif atom.rel == REL_LE:
                nc, nk = _negated(coeffs, atom.const)
                base.append(_Constraint(nc, REL_LT, nk, origin))
            elif atom.rel == REL_LT:
                nc, nk = _negated(coeffs, atom.const)
                base.append(_Constraint(nc, REL_LE, nk, origin))
            else:
                diseqs.append((coeffs, atom.const, (atom, pol)))
        outcome = self._solve(base, diseqs)
        if isinstance(outcome, dict):
            for atom, _ in lits:
                for v, _a in atom.coeffs:
                    outcome.setdefault(v, Fraction(0))
            return TheoryVerdict("sat", witness=outcome)
        return TheoryVerdict("unsat", conflict=outcome)

    def _solve(self, base: list[_Constraint], diseqs: list):
        """Witness dict on success, frozenset of conflicting literals on failure."""
        if not diseqs:
            try:
                return _solve_core(base)
            except _Infeasible as exc:
                return exc.origins
        (coeffs, const, lit), rest = diseqs[0], diseqs[1:]
        origin = frozenset((lit,))
        below = self._solve(
            base + [_Constraint(coeffs, REL_LT, const, origin)], rest)
        if isinstance(below, dict):
            return below
        nc, nk = _negated(coeffs, const)
        above = self._solve(
            base + [_Constraint(nc, REL_LT, nk, origin)], rest)
        if isinstance(above, dict):
            return above
        # Both strict half-spaces failed: the disequality is only to blame
        # in the branches that actually used it.
        if lit not in below:
            return below
        if lit not in above:
            return above
        return below | above


class BooleanBackend:
    """Degenerate theory: every atom is opaque, only complements conflict.

    The empty witness satisfies no LRA literal in general, yet lemma
    enumeration stays exact with it: an extension it short-cuts adds an
    atom absent from the prefix, which this backend accepts anyway.
    """

    def check_conjunction(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = sorted(set(literals), key=lambda lp: (lp[0].sort_key(), lp[1]))
        pair = _complementary_pair(lits)
        if pair is not None:
            return TheoryVerdict("unsat", conflict=pair)
        return TheoryVerdict("sat", witness={})


def evaluate_literal(atom: Atom, pol: bool, witness: dict) -> bool:
    """Exact evaluation of an LRA literal at a rational point that assigns
    every variable of the atom."""
    if atom.kind != "lra":
        raise TheoryError("cannot evaluate a Boolean atom at a point")
    for v, _a in atom.coeffs:
        if v not in witness:
            raise TheoryError("the point assigns no value to variable %r of %s"
                              % (v, atom))
    return holds_at(atom, pol, witness)


def holds_at(atom: Atom, pol: bool, point: dict) -> bool:
    """Exact truth of an LRA literal at a point; absent variables read as 0."""
    total = sum((a * point.get(v, 0) for v, a in atom.coeffs), Fraction(0))
    if atom.rel == REL_LE:
        holds = total <= atom.const
    elif atom.rel == REL_LT:
        holds = total < atom.const
    else:
        holds = total == atom.const
    return holds == pol


def minimize_conflict(backend, literals: Iterable[Literal],
                      conflict: Iterable[Literal],
                      index_of: Optional[Callable[[Atom], int]] = None) -> ConflictCore:
    """Deletion-based minimization in descending atom-index order.

    `index_of` supplies the abstraction index; without one, the atom's
    structural sort key fixes the order. The input conflict must be
    unsatisfiable (self-checked), and a 1-literal core is impossible by
    the no-trivial-atom invariant, so reaching one is an internal error.
    """
    literals = set(literals)
    core = set(conflict)
    if not core.issubset(literals):
        raise TheoryError("conflict is not a subset of the queried literals")
    if backend.check_conjunction(core).is_sat:
        raise TheoryError("claimed conflict is satisfiable: %s" %
                          sorted(str(a) for a, _ in core))
    if index_of is None:
        def order_key(lp):
            return (lp[0].sort_key(), lp[1])
    else:
        def order_key(lp):
            return (index_of(lp[0]), lp[1])
    for lit in sorted(core, key=order_key, reverse=True):
        if len(core) <= 2:
            break
        trial = core - {lit}
        if not backend.check_conjunction(trial).is_sat:
            core = trial
    if len(core) < 2:
        raise TheoryInternalError(
            "1-literal core %s contradicts the no-trivial-atom invariant"
            % sorted(str(a) for a, _ in core))
    return ConflictCore(literals=frozenset(core), minimal=True)

"""Consistency checks for conjunctions of atom-literals, witness soundness,
conflict extraction and minimization.

Satisfiable verdicts are proven by evaluating every literal at the returned
witness (exact rational arithmetic, so this is a complete proof). Unsatisfiable
verdicts are cross-checked by a grid-plus-vertex sweep: candidate points are
the exact solutions of small subsets of the boundary hyperplanes (free
variables ranging over a coarse grid), nudged along each axis and joined by a
plain grid. The sweep cannot prove infeasibility, but any point it finds
inside the region disproves an unsat verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterable

import pytest

from kcmt import theory
from kcmt.formulas import REL_EQ, REL_LE, REL_LT, Atom, AtomError
from kcmt.lemmas import enumerate_lemmas
from kcmt.theory import (
    Literal,
    LraBackend,
    TheoryError,
    TheoryInternalError,
    TheoryVerdict,
    _complementary_pair,
    evaluate_literal,
    minimize_conflict,
    scaled_point,
)

from conftest import X_EQ_1, X_GE_2, X_LE_0, random_atoms
from test_lemmas import _corpus


def lin(coeffs, rel, const):
    return Atom.linear(coeffs, rel, const)


X_GE_0 = lin({"x": 1}, ">=", 0)
X_GE_1 = lin({"x": 1}, ">=", 1)
X_LE_1 = lin({"x": 1}, "<=", 1)
X_LT_1 = lin({"x": 1}, "<", 1)
X_EQ_0 = lin({"x": 1}, "=", 0)


# -- grid + vertex sweep -----------------------------------------------------

GRID = [Fraction(k) for k in (-2, -1, 0, 1, 2)]
NUDGES = [Fraction(1, 7), Fraction(-1, 7), Fraction(17), Fraction(-17)]


def _hyperplane_solutions(eqs, variables):
    """Exact solutions of a set of linear equalities; free variables sweep
    the grid. Yields nothing when the subset is inconsistent."""
    pivots = {}
    order = []
    for coeffs, const in eqs:
        coeffs = {v: Fraction(a) for v, a in coeffs.items()}
        const = Fraction(const)
        for pv in order:
            b = coeffs.pop(pv, None)
            if b:
                expr, pk = pivots[pv]
                for w, a in expr.items():
                    coeffs[w] = coeffs.get(w, Fraction(0)) + b * a
                const -= b * pk
        coeffs = {v: a for v, a in coeffs.items() if a != 0}
        if not coeffs:
            if const != 0:
                return
            continue
        var = sorted(coeffs)[0]
        b = coeffs.pop(var)
        expr = {w: -a / b for w, a in coeffs.items()}
        pk = const / b
        for pv in order:
            pexpr, ppk = pivots[pv]
            b2 = pexpr.pop(var, None)
            if b2:
                for w, a in expr.items():
                    pexpr[w] = pexpr.get(w, Fraction(0)) + b2 * a
                pivots[pv] = ({w: a for w, a in pexpr.items() if a != 0},
                              ppk + b2 * pk)
        pivots[var] = (expr, pk)
        order.append(var)
    free = [v for v in variables if v not in pivots]
    for combo in product(GRID, repeat=len(free)):
        point = dict(zip(free, combo))
        for pv in order:
            expr, pk = pivots[pv]
            point[pv] = sum((a * point[w] for w, a in expr.items()),
                            pk)
        yield tuple(point[v] for v in variables)


def candidate_points(literals):
    lra = [a for a, _ in literals if a.kind == "lra"]
    variables = sorted({v for a in lra for v in a.variables()})
    planes = [(dict(a.coeffs), a.const) for a in lra]
    base = set()
    top = min(len(variables), len(planes))
    for k in range(top + 1):
        for subset in combinations(planes, k):
            base.update(_hyperplane_solutions(subset, variables))
    points = set(base)
    for pt in base:
        for j in range(len(variables)):
            for d in NUDGES:
                points.add(pt[:j] + (pt[j] + d,) + pt[j + 1:])
    return variables, points


def sweep_finds_model(literals):
    """True when some candidate point satisfies every LRA literal."""
    variables, points = candidate_points(literals)
    lra = [(a, p) for a, p in literals if a.kind == "lra"]
    for pt in points:
        wit = dict(zip(variables, pt))
        if all(evaluate_literal(a, p, wit) for a, p in lra):
            return True
    return False


def assert_witness_satisfies(literals, witness):
    for a, p in literals:
        if a.kind == "lra":
            assert evaluate_literal(a, p, witness), (
                "witness %s violates %s%s" % (witness, "" if p else "!", a))


# -- reference: Fourier-Motzkin over Fraction ---------------------------------
#
# The rational kernel the integer rows replaced, kept verbatim. The integer
# kernel derives positive multiples of these rows in the same order, so both
# must return equal verdicts: the same status, witness and conflict.

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


def _gap(con: _Constraint, point: dict) -> Fraction:
    """coeffs . point - const; variables the point omits read as 0."""
    return sum((a * point.get(v, 0) for v, a in con.coeffs.items()), -con.const)


def _walk(point: dict, target: dict, held: list[_Constraint]) -> dict:
    """A point on the segment from `point` (exclusive) to `target` where no
    `held` row has gap 0.

    Every held row has a nonzero gap at `point`, and its gap is affine along
    the segment, so it vanishes at one step at most: one of the first
    len(held) + 1 steps 1, 1/2, 1/3, ... is clear of all of them.
    """
    names = point.keys() | target.keys()
    for k in range(1, len(held) + 2):
        step = Fraction(1, k)
        trial = {v: point.get(v, 0) + step * (target.get(v, 0) - point.get(v, 0))
                 for v in names}
        if all(_gap(h, trial) != 0 for h in held):
            return trial
    raise TheoryInternalError("no step of the walk keeps every disequality")


class FractionLraBackend:
    """`LraBackend` as it was over `Fraction`: each row holds the atom's
    rational coefficients, and every elimination step divides."""

    def __init__(self) -> None:
        # literal -> None (Boolean), a _Constraint, or a disequality's two
        # strict sides (below, above). `_solve_core` never mutates its input
        # constraints, so one row is shared by every check that uses it.
        self._rows: dict[Literal, object] = {}

    def _new_row(self, lit: Literal):
        atom, pol = lit
        if atom.kind == "bool":
            return None
        origin = frozenset((lit,))
        coeffs = {v: Fraction(a) for v, a in atom.coeffs}
        nc, nk = _negated(coeffs, atom.const)
        if pol:
            return _Constraint(coeffs, atom.rel, atom.const, origin)
        if atom.rel == REL_LE:
            return _Constraint(nc, REL_LT, nk, origin)
        if atom.rel == REL_LT:
            return _Constraint(nc, REL_LE, nk, origin)
        return (_Constraint(coeffs, REL_LT, atom.const, origin),
                _Constraint(nc, REL_LT, nk, origin))

    def check_conjunction(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = sorted(set(literals), key=lambda lp: (lp[0].sort_key(), lp[1]))
        pair = _complementary_pair(lits)
        if pair is not None:
            return TheoryVerdict("unsat", conflict=pair)
        base: list[_Constraint] = []
        diseqs: list[tuple[_Constraint, _Constraint]] = []
        rows = self._rows
        for lit in lits:
            try:
                row = rows[lit]
            except KeyError:
                row = rows[lit] = self._new_row(lit)
            if isinstance(row, _Constraint):
                base.append(row)
            elif row is not None:
                diseqs.append(row)
        try:
            point = _solve_core(base)
            for below, above in diseqs:
                if _gap(below, point) != 0:
                    continue
                try:
                    side = _solve_core(base + [below])
                except _Infeasible as lo:
                    try:
                        side = _solve_core(base + [above])
                    except _Infeasible as hi:
                        raise _Infeasible(lo.origins | hi.origins)
                held = [b for b, _ in diseqs if _gap(b, point) != 0]
                point = _walk(point, side, held)
        except _Infeasible as exc:
            return TheoryVerdict("unsat", conflict=exc.origins)
        for atom, _ in lits:
            for v, _a in atom.coeffs:
                point.setdefault(v, Fraction(0))
        return TheoryVerdict("sat", witness=point)


# -- fixed cases -------------------------------------------------------------


class TestLraVerdicts:
    def setup_method(self):
        self.backend = LraBackend()

    def check(self, literals):
        return self.backend.check_conjunction(literals)

    def test_worked_pair_is_unsat_with_both_literals_blamed(self):
        v = self.check([(X_LE_0, True), (X_EQ_1, True)])
        assert not v.is_sat
        assert v.conflict == frozenset({(X_LE_0, True), (X_EQ_1, True)})

    def test_worked_pair_other_polarities_are_sat(self):
        for le, eq in [(True, False), (False, True), (False, False)]:
            v = self.check([(X_LE_0, le), (X_EQ_1, eq)])
            assert v.is_sat
            assert_witness_satisfies([(X_LE_0, le), (X_EQ_1, eq)], v.witness)

    def test_complementary_pair_short_circuits(self):
        v = self.check([(X_LE_0, True), (X_LE_0, False)])
        assert not v.is_sat
        assert v.conflict == frozenset({(X_LE_0, True), (X_LE_0, False)})
        b = Atom.boolean("b")
        v = self.check([(b, True), (b, False)])
        assert v.conflict == frozenset({(b, True), (b, False)})

    def test_strict_weak_boundary(self):
        assert not self.check([(X_LT_1, True), (X_GE_1, True)]).is_sat
        v = self.check([(X_LE_1, True), (X_GE_1, True)])
        assert v.is_sat
        assert v.witness["x"] == 1

    def test_negated_inequalities(self):
        # !(x<=0) and !(x<1) leave the stripe x >= 1.
        v = self.check([(X_LE_0, False), (X_LT_1, False)])
        assert v.is_sat
        assert_witness_satisfies([(X_LE_0, False), (X_LT_1, False)], v.witness)
        assert not self.check([(X_GE_1, True), (X_LT_1, True)]).is_sat

    def test_disequality_split_blames_all_three(self):
        lits = [(X_LE_0, True), (X_GE_0, True), (X_EQ_0, False)]
        v = self.check(lits)
        assert not v.is_sat
        assert v.conflict == frozenset(lits)

    def test_disequality_satisfiable_around_point(self):
        lits = [(X_EQ_0, False), (X_EQ_1, False), (lin({"x": 1}, "<=", 3), True)]
        v = self.check(lits)
        assert v.is_sat
        assert_witness_satisfies(lits, v.witness)

    def test_equality_chain_gaussian_conflict(self):
        a = lin({"x": 1, "y": -1}, "=", 0)
        b = lin({"y": 1, "z": -1}, "=", 0)
        c = lin({"x": 1, "z": -1}, "=", 1)
        v = self.check([(a, True), (b, True), (c, True)])
        assert not v.is_sat
        assert v.conflict == frozenset({(a, True), (b, True), (c, True)})
        sat = lin({"x": 1, "z": -1}, "=", 0)
        v = self.check([(a, True), (b, True), (sat, True)])
        assert v.is_sat
        assert v.witness["x"] == v.witness["y"] == v.witness["z"]

    def test_two_variable_triangle_conflict(self):
        s = lin({"x": 1, "y": 1}, "<=", 0)
        lits = [(s, True), (lin({"x": 1}, ">=", 1), True),
                (lin({"y": 1}, ">=", 1), True)]
        v = self.check(lits)
        assert not v.is_sat
        assert v.conflict == frozenset(lits)

    def test_unbounded_directions_get_witnesses(self):
        for lits in (
            [(lin({"x": 1}, ">=", 5), True)],
            [(lin({"x": 1}, "<", -3), True)],
            [(lin({"x": 1, "y": -2}, "=", 7), True)],
        ):
            v = self.check(lits)
            assert v.is_sat
            assert_witness_satisfies(lits, v.witness)

    def test_rational_bounds(self):
        half = lin({"x": 2}, "<=", 1)      # x <= 1/2
        two_thirds = lin({"x": 3}, ">=", 2)  # x >= 2/3
        assert not self.check([(half, True), (two_thirds, True)]).is_sat
        v = self.check([(half, True), (two_thirds, False)])
        assert v.is_sat
        assert_witness_satisfies([(half, True), (two_thirds, False)], v.witness)

    def test_boolean_atoms_pass_through(self):
        b1, b2 = Atom.boolean("b1"), Atom.boolean("b2")
        lits = [(b1, True), (X_LE_0, True), (b2, False)]
        v = self.check(lits)
        assert v.is_sat
        assert_witness_satisfies(lits, v.witness)

    def test_witness_covers_every_mentioned_variable(self):
        v = self.check([(lin({"x": 1, "y": 1}, "<=", 0), True)])
        assert v.is_sat
        assert set(v.witness) >= {"x", "y"}

    def test_empty_conjunction_is_sat(self):
        assert self.check([]).is_sat

    def test_unnormalized_atom_rejected(self):
        # No backend sees an atom outside normal form: building one fails.
        with pytest.raises(AtomError):
            Atom(kind="lra", coeffs=(("x", 2),), rel="<=", const=Fraction(1))

    def test_atom_normal_form_checked_on_every_call_until_it_passes(self):
        # No verdict on a row is cached: each attempt to build the same
        # non-normal atom is refused, and its normal form builds and checks.
        for _ in range(2):
            with pytest.raises(AtomError):
                Atom(kind="lra", coeffs=(("x", 2),), rel="<=",
                     const=Fraction(1))
        fixed = Atom(kind="lra", coeffs=(("x", 1),), rel="<=",
                     const=Fraction(1, 2))
        assert fixed == lin({"x": 2}, "<=", 1)
        assert self.check([(fixed, True), (X_LE_0, True)]).is_sat

    def test_evaluate_literal_rejects_boolean(self):
        with pytest.raises(TheoryError):
            evaluate_literal(Atom.boolean("b"), True, {})

    def test_evaluate_literal_rejects_missing_variable(self):
        atom = lin({"x": 1, "y": 1}, "<=", 0)
        with pytest.raises(TheoryError, match="'y'"):
            evaluate_literal(atom, True, {"x": Fraction(0)})
        assert evaluate_literal(atom, True, {"x": Fraction(0), "y": Fraction(0)})

    def test_holds_at_reads_absent_variables_as_zero(self):
        atom = lin({"x": 1, "y": 1}, "<", 1)
        half = scaled_point({"x": Fraction(1, 2)})
        one = scaled_point({"x": Fraction(1)})
        assert half.holds(atom, True)
        assert not one.holds(atom, True)
        assert one.holds(atom, False)


@pytest.fixture
def fm_runs(monkeypatch):
    """Counts Fourier-Motzkin runs: calls of `theory._solve_core`."""
    runs = [0]
    solve = theory._solve_core

    def counted(constraints):
        runs[0] += 1
        return solve(constraints)

    monkeypatch.setattr(theory, "_solve_core", counted)
    return runs


# 16 disequalities x != i/8 and y != i/8 in the unit box. Splitting each one
# into its two strict sides up front would try up to 2^16 sign patterns. The
# box's witness (1/2, 1/2) violates two of them, and steps 1 and 1/2 of each
# walk toward a side's witness land on others.
BOX = [(lin({"x": 1}, ">=", 0), True), (lin({"x": 1}, "<=", 1), True),
       (lin({"y": 1}, ">=", 0), True), (lin({"y": 1}, "<=", 1), True)]
EIGHTHS = [(lin({v: 1}, "=", Fraction(i, 8)), False)
           for v in "xy" for i in range(8)]


class TestDisequalities:
    def test_sixteen_disequalities_decide_in_at_most_33_runs(self, fm_runs):
        assert len(EIGHTHS) == 16
        lits = BOX + EIGHTHS
        v = LraBackend().check_conjunction(lits)
        assert v.is_sat
        assert_witness_satisfies(lits, v.witness)
        assert fm_runs[0] <= 1 + 2 * 16, fm_runs[0]

    def test_culprit_disequality_and_its_two_bounds_are_the_conflict(
            self, fm_runs):
        # x = 0 is forced, so x != 0 is the only disequality that fails.
        bounds = [(X_LE_0, True), (X_GE_0, True)]
        culprit = (X_EQ_0, False)
        others = [(lin({"x": 1, "y": k}, "=", Fraction(k, 2)), False)
                  for k in range(1, 16)]
        lits = [(lin({"y": 1}, ">=", 0), True),
                (lin({"y": 1}, "<=", 1), True)] + bounds + others + [culprit]
        v = LraBackend().check_conjunction(lits)
        assert not v.is_sat
        assert v.conflict == frozenset(bounds + [culprit])
        assert fm_runs[0] <= 1 + 2 * 16, fm_runs[0]


class TestMinimizeConflict:
    def setup_method(self):
        self.backend = LraBackend()

    def test_redundant_literal_dropped_in_descending_index_order(self):
        # x<=0 conflicts with either lower bound; deletion starts from the
        # highest index, so x>=2 goes first and {x<=0, x>=1} remains.
        index = {X_LE_0: 1, X_GE_1: 2, X_GE_2: 3}
        lits = [(X_LE_0, True), (X_GE_1, True), (X_GE_2, True)]
        core = minimize_conflict(self.backend, lits, lits,
                                 index_of=index.__getitem__)
        assert core == frozenset({(X_LE_0, True), (X_GE_1, True)})

    def test_structural_order_without_index(self):
        lits = [(X_LE_0, True), (X_GE_1, True), (X_GE_2, True)]
        core = minimize_conflict(self.backend, lits, lits)
        assert len(core) == 2
        assert (X_LE_0, True) in core
        assert not self.backend.check_conjunction(core).is_sat

    def test_three_literal_minimal_core_survives(self):
        lits = [(X_LE_0, True), (X_GE_0, True), (X_EQ_0, False)]
        core = minimize_conflict(self.backend, lits, lits)
        assert core == frozenset(lits)

    def test_conflict_must_be_subset(self):
        with pytest.raises(TheoryError):
            minimize_conflict(self.backend, [(X_LE_0, True)],
                              [(X_LE_0, True), (X_GE_1, True)])

    def test_satisfiable_conflict_rejected(self):
        lits = [(X_LE_0, True), (X_GE_1, False)]
        with pytest.raises(TheoryError):
            minimize_conflict(self.backend, lits, lits)

    def test_pair_conflict_returned_as_is(self):
        lits = [(X_LE_0, True), (X_GE_1, True)]
        core = minimize_conflict(self.backend, lits, lits)
        assert core == frozenset(lits)


# -- randomized cross-check --------------------------------------------------


def _random_literal_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        atoms = random_atoms(rng, rng.randint(0, 2), rng.randint(2, 6),
                             rng.randint(2, 3))
        yield [(a, rng.random() < 0.5) for a in atoms]


class TestRandomizedAgainstSweep:
    def test_verdicts_agree_with_grid_vertex_sweep(self):
        backend = LraBackend()
        sat = unsat = 0
        for lits in _random_literal_sets(20260819, 120):
            v = backend.check_conjunction(lits)
            if v.is_sat:
                sat += 1
                assert_witness_satisfies(lits, v.witness)
            else:
                unsat += 1
                assert v.conflict <= frozenset(lits)
                assert not backend.check_conjunction(v.conflict).is_sat
                assert not sweep_finds_model(lits), (
                    "sweep found a model for a conjunction judged unsat: %s"
                    % sorted("%s%s" % ("" if p else "!", a) for a, p in lits))
        # The corpus must exercise both outcomes to mean anything.
        assert sat >= 20 and unsat >= 20, (sat, unsat)

    def test_minimized_cores_are_irredundant(self):
        backend = LraBackend()
        checked = 0
        for lits in _random_literal_sets(77001, 120):
            v = backend.check_conjunction(lits)
            if v.is_sat:
                continue
            core = minimize_conflict(backend, lits, v.conflict)
            checked += 1
            for lp in core:
                assert backend.check_conjunction(core - {lp}).is_sat, (
                    "core keeps removable literal %s: %s" % (lp, core))
        assert checked >= 20, checked


def _literal_sets_with_disequalities(seed, count):
    """Bounds and equalities through a random integer point, a few random
    literals, and 3-6 disequalities, most of them through the point or next
    to it, so that some decide the verdict."""
    rng = random.Random(seed)
    for _ in range(count):
        names = ["x%d" % i for i in range(1, rng.randint(2, 3) + 1)]
        point = {v: rng.randint(-2, 2) for v in names}

        def through(rel, shift=0):
            vs = rng.sample(names, rng.choice([1, 1, 2]))
            coeffs = {v: rng.choice([-2, -1, 1, 2]) for v in vs}
            return lin(coeffs, rel,
                       sum(a * point[v] for v, a in coeffs.items()) + shift)

        lits = {}
        for _ in range(rng.randint(1, len(names) + 1)):
            lits[through(rng.choice(["=", "<=", ">="]))] = True
        for a in random_atoms(rng, 0, rng.randint(0, 2), len(names)):
            lits.setdefault(a, rng.random() < 0.5)
        diseqs = rng.randint(3, 6)
        while diseqs:
            a = through("=", rng.choice([0, 0, -1, 1]))
            if a not in lits:
                lits[a] = False
                diseqs -= 1
        yield list(lits.items())


class TestDisequalitiesAgainstSweep:
    def test_verdicts_agree_with_grid_vertex_sweep(self, fm_runs):
        backend = LraBackend()
        sat = unsat = blamed = 0
        for lits in _literal_sets_with_disequalities(20261018, 120):
            k = sum(1 for a, p in lits if a.rel == "=" and not p)
            fm_runs[0] = 0
            v = backend.check_conjunction(lits)
            assert fm_runs[0] <= 1 + 2 * k, (fm_runs[0], k)
            if v.is_sat:
                sat += 1
                assert_witness_satisfies(lits, v.witness)
                continue
            unsat += 1
            blamed += any(a.rel == "=" and not p for a, p in v.conflict)
            assert v.conflict <= frozenset(lits)
            assert not backend.check_conjunction(v.conflict).is_sat
            assert not sweep_finds_model(lits), (
                "sweep found a model for a conjunction judged unsat: %s"
                % sorted("%s%s" % ("" if p else "!", a) for a, p in lits))
        # Both outcomes occur, and some conflicts hinge on a disequality.
        assert sat >= 20 and unsat >= 20 and blamed >= 5, (sat, unsat, blamed)


# -- differential check against the Fraction reference ----------------------


class _Differential:
    """LraBackend that checks every verdict against the Fraction reference."""

    def __init__(self):
        self.backend = LraBackend()
        self.reference = FractionLraBackend()
        self.checks = 0

    def check_conjunction(self, literals):
        literals = list(literals)
        verdict = self.backend.check_conjunction(literals)
        expected = self.reference.check_conjunction(literals)
        assert verdict == expected, (
            sorted("%s%s" % ("" if p else "!", a) for a, p in literals))
        self.checks += 1
        return verdict


# Constants with large, coprime numerators and denominators.
BIG = [Fraction(10 ** 30 + 1, 7 ** 20), Fraction(-3 ** 40, 10 ** 25 + 7),
       Fraction(1, 7 ** 20), Fraction(2 ** 70 - 1, 3 ** 30), Fraction(0)]


def _big_constant_sets(seed, count):
    """Literals through a point with big rational coordinates, some of them
    shifted off it by a tiny amount, with every relation and polarity."""
    rng = random.Random(seed)
    for _ in range(count):
        names = ["x%d" % i for i in range(1, rng.randint(2, 4) + 1)]
        point = {v: rng.choice(BIG) for v in names}
        lits = {}
        while len(lits) < rng.randint(3, 7):
            vs = rng.sample(names, rng.randint(1, min(3, len(names))))
            coeffs = {v: rng.choice([-7, -3, -1, 1, 2, 5]) for v in vs}
            shift = rng.choice([0, 0, Fraction(1, 11 ** 15),
                                -Fraction(1, 11 ** 15)])
            const = sum(a * point[v] for v, a in coeffs.items()) + shift
            atom = lin(coeffs, rng.choice(["<=", "<", "=", ">=", ">"]), const)
            lits.setdefault(atom, rng.random() < 0.6)
        yield list(lits.items())


@pytest.fixture
def combined_rows(monkeypatch):
    """Checks that every derived row is divided by the gcd of its entries,
    and counts the rows where that division did something."""
    reduced = [0]
    combine = theory._combine

    def checked(r, p, s, q, rel, origins):
        row = combine(r, p, s, q, rel, origins)
        assert gcd(row.const, *row.coeffs.values()) in (0, 1)
        raw = [p * r.const + q * s.const] + [
            p * r.coeffs.get(w, 0) + q * s.coeffs.get(w, 0)
            for w in r.coeffs.keys() | s.coeffs.keys()]
        reduced[0] += gcd(*raw) > 1
        return row

    monkeypatch.setattr(theory, "_combine", checked)
    return reduced


class TestAgainstFractionReference:
    def test_every_enumeration_check_on_the_lemma_corpus(self):
        # One reference per run: runs over one atom set with one backend
        # share their theory outcomes, so a shared reference would see
        # only the first run's checks of each prefix.
        checks = 0
        for dag, node, alpha in _corpus(52001, 60):
            for target, scope in ((node, "formula"), (node, "top"),
                                  (dag.negate(node), "formula")):
                diff = _Differential()
                enumerate_lemmas(dag, target, alpha, scope=scope,
                                 backend=diff)
                checks += diff.checks
        assert checks >= 1000, checks

    def test_random_literal_sets(self):
        diff = _Differential()
        unsat = 0
        for seed, sets in ((20260819, _random_literal_sets),
                           (77001, _random_literal_sets),
                           (20261018, _literal_sets_with_disequalities)):
            for lits in sets(seed, 120):
                unsat += not diff.check_conjunction(lits).is_sat
        assert unsat >= 60, unsat

    def test_big_constants(self, combined_rows):
        diff = _Differential()
        sat = unsat = 0
        for lits in _big_constant_sets(60601, 200):
            if diff.check_conjunction(lits).is_sat:
                sat += 1
            else:
                unsat += 1
        assert sat >= 20 and unsat >= 20, (sat, unsat)
        assert combined_rows[0] >= 100, combined_rows[0]

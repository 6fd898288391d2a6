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

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from kcmt.formulas import Atom
from kcmt.theory import (
    BooleanBackend,
    ConflictCore,
    LraBackend,
    TheoryError,
    evaluate_literal,
    holds_at,
    minimize_conflict,
)

from conftest import X_EQ_1, X_GE_2, X_LE_0, random_atoms


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
        v = BooleanBackend().check_conjunction([(b, True), (b, False)])
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
        raw = Atom(kind="lra", coeffs=(("x", 2),), rel="<=", const=Fraction(1))
        with pytest.raises(TheoryError):
            self.check([(raw, True)])

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
        assert holds_at(atom, True, {"x": Fraction(1, 2)})
        assert not holds_at(atom, True, {"x": Fraction(1)})
        assert holds_at(atom, False, {"x": Fraction(1)})

    def test_atom_normal_form_checked_on_every_call_until_it_passes(self):
        raw = Atom(kind="lra", coeffs=(("x", 2),), rel="<=", const=Fraction(1))
        for _ in range(2):
            with pytest.raises(TheoryError):
                self.check([(raw, True), (X_LE_0, True)])


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
        assert core.minimal
        assert core.literals == frozenset({(X_LE_0, True), (X_GE_1, True)})

    def test_structural_order_without_index(self):
        lits = [(X_LE_0, True), (X_GE_1, True), (X_GE_2, True)]
        core = minimize_conflict(self.backend, lits, lits)
        assert core.minimal
        assert len(core.literals) == 2
        assert (X_LE_0, True) in core.literals
        assert not self.backend.check_conjunction(core.literals).is_sat

    def test_three_literal_minimal_core_survives(self):
        lits = [(X_LE_0, True), (X_GE_0, True), (X_EQ_0, False)]
        core = minimize_conflict(self.backend, lits, lits)
        assert core.literals == frozenset(lits)

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
        assert core == ConflictCore(literals=frozenset(lits), minimal=True)


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
            core = minimize_conflict(backend, lits, v.conflict).literals
            checked += 1
            for lp in core:
                assert backend.check_conjunction(core - {lp}).is_sat, (
                    "core keeps removable literal %s: %s" % (lp, core))
        assert checked >= 20, checked

"""Exhaustive-enumeration reference semantics.

The fixed expected sets below are hand-checked: for each total assignment
over the two atoms (x<=0) and (x=1), the conjunction of the corresponding
literals either has a rational solution or provably does not (x<=0 and x=1
cannot both hold; every other combination is realized by x in {-1, 0, 1, 2}).
"""

import random

import pytest

from kcmt.formulas import Assignment, Atom, AtomSet, Dag, atoms_of
from kcmt.generate import InstanceSpec, generate
from kcmt.oracle import (
    AssignmentSets,
    Oracle,
    OracleBoundError,
    OracleTimeout,
    count_allsmt,
)
from kcmt.theory import LraBackend, TheoryError

from conftest import (
    X_EQ_1,
    X_GE_2,
    X_LE_0,
    alpha_phi1,
    build_phi1,
    build_phi2,
    random_atoms,
    random_formula,
)


def eta2(le, eq):
    return Assignment({X_LE_0: le, X_EQ_1: eq})


def eta3(le, eq, ge2):
    return Assignment({X_LE_0: le, X_EQ_1: eq, X_GE_2: ge2})


CTTA_PHI1 = frozenset({eta2(True, False), eta2(False, True)})
ITTA_PHI1 = frozenset({eta2(True, True)})
CTTA_NOT_PHI1 = frozenset({eta2(False, False)})


def reference_sets(dag, node, alpha):
    """Independent enumeration: per-assignment evaluate() plus a fresh,
    unmemoized theory check of all literals (Booleans included)."""
    backend = LraBackend()
    ctta, itta = set(), set()
    order = list(alpha)
    for b in range(1 << len(order)):
        vals = {a: bool((b >> j) & 1) for j, a in enumerate(order)}
        if not dag.evaluate(node, vals):
            continue
        eta = Assignment(vals)
        if backend.check_conjunction(list(vals.items())).is_sat:
            ctta.add(eta)
        else:
            itta.add(eta)
    return frozenset(ctta), frozenset(itta)


class TestWorkedExample:
    def test_phi1_sets(self, fdag):
        sets = Oracle().ctta_itta(fdag, build_phi1(fdag), alpha_phi1())
        assert sets.ctta == CTTA_PHI1
        assert sets.itta == ITTA_PHI1
        assert sets.alpha == alpha_phi1()

    def test_phi2_sets_match_phi1_ctta_with_empty_itta(self, fdag):
        sets = Oracle().ctta_itta(fdag, build_phi2(fdag), alpha_phi1())
        assert sets.ctta == CTTA_PHI1
        assert sets.itta == frozenset()

    def test_negated_phi1_sets(self, fdag):
        phi1 = build_phi1(fdag)
        sets = Oracle().ctta_itta(fdag, fdag.negate(phi1), alpha_phi1())
        assert sets.ctta == CTTA_NOT_PHI1
        assert sets.itta == frozenset()

    def test_extended_atom_set_grows_itta_only(self, fdag):
        # Both theory-consistent totals force (x>=2) false; four combinations
        # become theory-inconsistent.
        alpha = AtomSet([X_LE_0, X_EQ_1, X_GE_2])
        sets = Oracle().ctta_itta(fdag, build_phi1(fdag), alpha)
        assert sets.ctta == frozenset(
            {eta3(True, False, False), eta3(False, True, False)})
        assert sets.itta == frozenset({
            eta3(True, True, True), eta3(True, True, False),
            eta3(True, False, True), eta3(False, True, True)})

    def test_reduced_extended_status_of_the_pair(self, fdag):
        oracle = Oracle()
        phi1, phi2 = build_phi1(fdag), build_phi2(fdag)
        alpha = alpha_phi1()
        assert not oracle.check_treduced(fdag, phi1, alpha)
        assert oracle.check_textended(fdag, phi1, alpha)
        assert oracle.check_treduced(fdag, phi2, alpha)
        assert not oracle.check_textended(fdag, phi2, alpha)

    def test_conjunction_of_compatible_bounds_is_reduced(self, fdag):
        from kcmt.formulas import Atom
        x_ge_0 = Atom.linear({"x": 1}, ">=", 0)
        x_ge_1 = Atom.linear({"x": 1}, ">=", 1)
        alpha = AtomSet([x_ge_0, x_ge_1])
        both = fdag.and_([fdag.lit(x_ge_0), fdag.lit(x_ge_1)])
        assert Oracle().check_treduced(fdag, both, alpha)
        # The lone upper atom leaves the model (x<0, x>=1) inconsistent.
        assert not Oracle().check_treduced(fdag, fdag.lit(x_ge_1), alpha)


class TestWorkedQueries:
    def setup_method(self):
        self.dag = Dag()
        self.phi1 = build_phi1(self.dag)
        self.phi2 = build_phi2(self.dag)
        self.alpha = alpha_phi1()
        self.oracle = Oracle()

    def q(self, kind, arg=None, node=None):
        return self.oracle.query(
            kind, self.dag, self.phi1 if node is None else node,
            self.alpha, arg)

    def test_consistency_and_validity(self):
        assert self.q("co") is True
        assert self.q("va") is False
        taut = self.dag.or_([self.dag.lit(X_LE_0), self.dag.lit(X_LE_0, False)])
        assert self.oracle.query("va", self.dag, taut, self.alpha) is True

    def test_clausal_entailment_holds_only_modulo_theory(self):
        # The clause !(x<=0) or !(x=1) is not a propositional consequence
        # (the assignment making both atoms true satisfies phi1), but that
        # assignment is theory-inconsistent.
        assert self.q("ce", [(X_LE_0, False), (X_EQ_1, False)]) is True
        assert self.q("ce", [(X_LE_0, True), (X_EQ_1, True)]) is True
        assert self.q("ce", [(X_EQ_1, True)]) is False

    def test_implicant(self):
        assert self.q("im", [(X_LE_0, False), (X_EQ_1, True)]) is True
        assert self.q("im", [(X_LE_0, False)]) is False
        # A theory-inconsistent cube implies anything.
        assert self.q("im", [(X_LE_0, True), (X_EQ_1, True)]) is True

    def test_count_and_enumeration(self):
        assert self.q("ct") == 2
        assert self.q("ct", [(X_EQ_1, True)]) == 1
        assert self.q("me") == [eta2(True, False), eta2(False, True)]

    def test_equivalence_and_sentential_entailment(self):
        assert self.q("eq", arg=self.phi2) is True
        assert self.q("se", arg=self.phi2) is True
        assert self.oracle.query(
            "se", self.dag, self.phi2, self.alpha, self.phi1) is True
        only_le = self.dag.lit(X_LE_0)
        assert self.q("se", arg=only_le) is False
        assert self.q("eq", arg=only_le) is False

    def test_query_argument_validation(self):
        with pytest.raises(TheoryError):
            self.q("ce", [(X_LE_0, True), (X_LE_0, False)])
        with pytest.raises(TheoryError):
            self.q("im", [(X_GE_2, True)])
        with pytest.raises(ValueError):
            self.q("xx")


class TestGuards:
    def test_atom_bound(self, fdag):
        atoms = random_atoms(random.Random(5), 0, 4, 2)
        node = fdag.and_([fdag.lit(a) for a in atoms])
        with pytest.raises(OracleBoundError):
            Oracle(bound=3).ctta_itta(fdag, node, AtomSet(atoms))
        assert Oracle(bound=4).ctta_itta(fdag, node, AtomSet(atoms))
        assert Oracle().bound == 16

    def test_formula_atoms_must_lie_in_alpha(self, fdag):
        with pytest.raises(TheoryError):
            Oracle().ctta_itta(fdag, fdag.lit(X_GE_2), alpha_phi1())

    def test_fresh_dags_are_not_confused_with_freed_ones(self):
        # Each Dag is dropped after its query, so a memo keyed on id(dag)
        # could hand a later Dag the sets of a freed one.
        x_le_0 = Atom.linear({"x": 1}, "<=", 0)
        y_le_0 = Atom.linear({"y": 1}, "<=", 0)
        alpha = AtomSet([x_le_0, y_le_0])
        oracle = Oracle()
        for i in range(200):
            dag = Dag()
            lits = [dag.lit(x_le_0), dag.lit(y_le_0)]
            node = dag.and_(lits) if i % 2 == 0 else dag.or_(lits)
            got = oracle.query("ct", dag, node, alpha)
            assert got == Oracle().query("ct", dag, node, alpha) == \
                (1 if i % 2 == 0 else 3)
            del dag


def _corpus(seed, count, max_atoms=5):
    rng = random.Random(seed)
    for _ in range(count):
        dag = Dag()
        atoms = random_atoms(rng, rng.randint(0, 2),
                             rng.randint(1, max_atoms - 1),
                             rng.randint(1, 3))
        atoms = atoms[:max_atoms]
        node = random_formula(dag, rng, atoms, depth=3)
        other = random_formula(dag, rng, atoms, depth=2)
        yield dag, node, other, AtomSet(atoms)


class TestAgainstIndependentEnumeration:
    def test_sets_match_reference(self):
        oracle = Oracle()
        for dag, node, _, alpha in _corpus(31337, 40):
            sets = oracle.ctta_itta(dag, node, alpha)
            assert (sets.ctta, sets.itta) == reference_sets(dag, node, alpha)

    def test_models_split_exactly_into_ctta_and_itta(self):
        # Every propositional model lands in exactly one side; as cubes the
        # two sides disjoin back into the formula.
        oracle = Oracle()
        for dag, node, _, alpha in _corpus(808, 30):
            sets = oracle.ctta_itta(dag, node, alpha)
            order = list(alpha)
            bits = dag.truth_bits(node, order)
            models = {
                Assignment({a: bool((b >> j) & 1) for j, a in enumerate(order)})
                for b in range(1 << len(order)) if (bits >> b) & 1}
            assert sets.ctta | sets.itta == models
            assert not sets.ctta & sets.itta


class TestPropositionSuite:
    def test_four_sets_partition_all_totals(self):
        oracle = Oracle()
        for dag, node, _, alpha in _corpus(4001, 30):
            pos = oracle.ctta_itta(dag, node, alpha)
            neg = oracle.ctta_itta(dag, dag.negate(node), alpha)
            groups = [pos.ctta, pos.itta, neg.ctta, neg.itta]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert not groups[i] & groups[j]
            order = list(alpha)
            everything = {
                Assignment({a: bool((b >> j) & 1) for j, a in enumerate(order)})
                for b in range(1 << len(order))}
            assert pos.ctta | pos.itta | neg.ctta | neg.itta == everything

    def test_boolean_structure_identities(self):
        oracle = Oracle()
        for dag, f1, f2, alpha in _corpus(4002, 30):
            top = oracle.ctta_itta(dag, dag.TRUE, alpha)
            s1 = oracle.ctta_itta(dag, f1, alpha)
            s2 = oracle.ctta_itta(dag, f2, alpha)
            s_and = oracle.ctta_itta(dag, dag.and_([f1, f2]), alpha)
            s_or = oracle.ctta_itta(dag, dag.or_([f1, f2]), alpha)
            s_not = oracle.ctta_itta(dag, dag.negate(f1), alpha)
            assert s_and.ctta == s1.ctta & s2.ctta
            assert s_or.ctta == s1.ctta | s2.ctta
            assert s_not.ctta == top.ctta - s1.ctta
            assert s_and.itta == s1.itta & s2.itta
            assert s_or.itta == s1.itta | s2.itta
            assert s_not.itta == top.itta - s1.itta

    def test_unsat_validity_equivalence_entailment_biconditionals(self):
        oracle = Oracle()
        for dag, f1, f2, alpha in _corpus(4003, 40):
            order = list(alpha)
            full = (1 << (1 << len(order))) - 1
            b1 = dag.truth_bits(f1, order)
            b2 = dag.truth_bits(f2, order)
            s1 = oracle.ctta_itta(dag, f1, alpha)
            s2 = oracle.ctta_itta(dag, f2, alpha)
            n1 = oracle.ctta_itta(dag, dag.negate(f1), alpha)
            # Theory-level facts via an independent reduction to consistency.
            t_unsat = not oracle.query("co", dag, f1, alpha)
            t_valid = oracle.query("va", dag, f1, alpha)
            assert t_unsat == (not s1.ctta)
            assert (b1 == 0) == (not s1.ctta and not s1.itta)
            assert t_valid == (not n1.ctta)
            assert (b1 == full) == (not n1.ctta and not n1.itta)
            diff12 = dag.and_([f1, dag.negate(f2)])
            diff21 = dag.and_([f2, dag.negate(f1)])
            t_entails = not oracle.ctta_itta(dag, diff12, alpha).ctta
            t_entailed = not oracle.ctta_itta(dag, diff21, alpha).ctta
            assert t_entails == (s1.ctta <= s2.ctta)
            assert (t_entails and t_entailed) == (s1.ctta == s2.ctta)
            assert oracle.query("se", dag, f1, alpha, f2) == t_entails
            assert oracle.query("eq", dag, f1, alpha, f2) == (
                t_entails and t_entailed)
            b_entails = (b1 & ~b2 & full) == 0
            assert b_entails == (s1.ctta <= s2.ctta and s1.itta <= s2.itta)
            assert (b1 == b2) == (
                s1.ctta == s2.ctta and s1.itta == s2.itta)


def _negation_battery():
    dag = Dag()
    node, alpha = generate(dag, InstanceSpec(
        num_lra_atoms=6, num_rational_vars=2, dag_depth=3, seed=5))
    yield dag, node, alpha
    for dag, node, _, alpha in _corpus(608, 30):
        yield dag, node, alpha


class TestNegationLeavesTheArenaAlone:
    def test_va_im_textended_write_nothing_into_the_dag(self):
        rng = random.Random(608)
        grown = 0
        for dag, node, alpha in _negation_battery():
            oracle = Oracle()
            size = len(dag)
            cubes = [[(a, rng.random() < 0.5)
                      for a in rng.sample(list(alpha),
                                          min(len(alpha), rng.randint(1, 3)))]
                     for _ in range(4)]
            va = oracle.query("va", dag, node, alpha)
            im = [oracle.query("im", dag, node, alpha, cube) for cube in cubes]
            extended = oracle.check_textended(dag, node, alpha)
            assert len(dag) == size
            # The same answers from the negation built in the arena.
            neg = Oracle().ctta_itta(dag, dag.negate(node), alpha)
            grown += len(dag) > size
            assert va == (not neg.ctta)
            assert im == [not any(all(eta.value(a) == p for a, p in cube)
                                  for eta in neg.ctta) for cube in cubes]
            assert extended == (not neg.itta)
            assert neg == oracle.ctta_itta(dag, node, alpha, positive=False)
        # Building the negation would have written into most arenas.
        assert grown >= 20, grown


class TestQuerySurfaceOnCorpus:
    def test_clauses_cubes_counts_enumeration(self):
        rng = random.Random(606)
        oracle = Oracle()
        for dag, node, _, alpha in _corpus(606, 30):
            sets = oracle.ctta_itta(dag, node, alpha)
            order = list(alpha)
            picked = rng.sample(order, min(len(order), rng.randint(1, 3)))
            lits = [(a, rng.random() < 0.5) for a in picked]
            clause_formula = dag.or_([dag.lit(a, p) for a, p in lits])
            cube_formula = dag.and_([dag.lit(a, p) for a, p in lits])
            # ce: phi entails the clause iff phi and not-clause is T-unsat.
            expect_ce = not oracle.ctta_itta(
                dag, dag.and_([node, dag.negate(clause_formula)]), alpha).ctta
            assert oracle.query("ce", dag, node, alpha, lits) == expect_ce
            # im: the cube entails phi iff cube and not-phi is T-unsat.
            expect_im = not oracle.ctta_itta(
                dag, dag.and_([cube_formula, dag.negate(node)]), alpha).ctta
            assert oracle.query("im", dag, node, alpha, lits) == expect_im
            # ct, plain and with an assumption cube.
            assert oracle.query("ct", dag, node, alpha) == len(sets.ctta)
            expect_assume = sum(
                1 for eta in sets.ctta
                if all(eta.value(a) == p for a, p in lits))
            assert oracle.query("ct", dag, node, alpha, lits) == expect_assume
            # me: exactly ctta, ordered with true before false per atom index.
            me = oracle.query("me", dag, node, alpha)
            assert set(me) == sets.ctta
            keys = [tuple(0 if eta.value(a) else 1 for a in order) for eta in me]
            assert keys == sorted(keys)

    def test_count_allsmt_matches_oracle(self):
        rng = random.Random(607)
        oracle = Oracle()
        for dag, node, _, alpha in _corpus(607, 25):
            expected = oracle.query("ct", dag, node, alpha)
            assert count_allsmt(dag, node, alpha) == expected
            a = rng.choice(list(alpha))
            pol = rng.random() < 0.5
            expect_assume = oracle.query("ct", dag, node, alpha, [(a, pol)])
            assert count_allsmt(dag, node, alpha, [(a, pol)]) == expect_assume

    def test_count_allsmt_timeout(self, fdag):
        atoms = random_atoms(random.Random(9), 0, 6, 3)
        node = fdag.or_([fdag.lit(a) for a in atoms])
        with pytest.raises(OracleTimeout):
            count_allsmt(fdag, node, AtomSet(atoms), timeout_s=1e-9)

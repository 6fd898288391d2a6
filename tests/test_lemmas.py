"""Lemma enumeration: fixed worked examples plus the four corpus properties
(validity, completeness, conservativity, determinism)."""

import hashlib
import random

import pytest

from kcmt.formulas import (
    AbstractionError,
    AbstractionMap,
    Assignment,
    AtomSet,
    Dag,
    atoms_of,
)
from kcmt.generate import InstanceSpec, generate
from kcmt.lemmas import (
    TARGET_FORMULA,
    TARGET_TOP,
    LemmaError,
    LemmaSet,
    TLemma,
    abstract_clauses,
    canonical_lemma,
    enumerate_lemmas,
    rules_out,
)
from kcmt.oracle import Oracle
from kcmt.theory import LraBackend, TheoryVerdict

from conftest import (
    X1_GE_1,
    X1_LE_0,
    X2_GE_1,
    X2_LE_0,
    X_EQ_1,
    X_GE_2,
    X_LE_0,
    alpha_phi1,
    alpha_two_clause,
    build_phi1,
    build_two_clause,
    random_atoms,
    random_formula,
)


class TestCanonicalLemma:
    def test_sorts_by_index_then_polarity(self):
        alpha = alpha_phi1()
        lemma = canonical_lemma([(X_EQ_1, False), (X_LE_0, False)], alpha)
        assert lemma.literals == ((X_LE_0, False), (X_EQ_1, False))
        assert str(lemma) == "!x <= 0 | !x = 1"

    def test_rejects_empty_duplicate_and_foreign(self):
        alpha = alpha_phi1()
        with pytest.raises(LemmaError):
            canonical_lemma([], alpha)
        with pytest.raises(LemmaError):
            canonical_lemma([(X_LE_0, True), (X_LE_0, False)], alpha)
        with pytest.raises(LemmaError):
            canonical_lemma([(X_GE_2, True)], alpha)


class TestRulesOut:
    def setup_method(self):
        self.alpha = alpha_phi1()
        self.lemma = canonical_lemma(
            [(X_LE_0, False), (X_EQ_1, False)], self.alpha)
        self.lset = LemmaSet((self.lemma,), TARGET_FORMULA, self.alpha)
        self.empty = LemmaSet((), TARGET_FORMULA, self.alpha)

    def test_worked_example(self):
        both_true = Assignment({X_LE_0: True, X_EQ_1: True})
        assert rules_out(self.lset, [both_true])
        survivor = Assignment({X_LE_0: True, X_EQ_1: False})
        assert not rules_out(self.lset, [survivor])

    def test_vacuous_and_empty_cases(self):
        assert rules_out(self.empty, [])
        rho = Assignment({X_LE_0: True, X_EQ_1: True})
        assert not rules_out(self.empty, [rho])

    def test_partial_assignment_rejected(self):
        with pytest.raises(LemmaError):
            rules_out(self.lset, [Assignment({X_LE_0: True})])


class TestWorkedEnumerations:
    def test_phi1_yields_the_single_incompatibility(self, fdag):
        lset = enumerate_lemmas(fdag, build_phi1(fdag), alpha_phi1())
        assert lset.target == TARGET_FORMULA
        assert len(lset) == 1
        assert lset.lemmas[0].literals == ((X_LE_0, False), (X_EQ_1, False))

    def test_negated_phi1_yields_nothing(self, fdag):
        neg = fdag.negate(build_phi1(fdag))
        lset = enumerate_lemmas(fdag, neg, alpha_phi1())
        assert lset.lemmas == ()

    def test_two_clause_formula_yields_per_variable_lemmas(self, fdag):
        lset = enumerate_lemmas(fdag, build_two_clause(fdag), alpha_two_clause())
        assert [lm.literals for lm in lset.lemmas] == [
            ((X1_LE_0, False), (X1_GE_1, False)),
            ((X2_LE_0, False), (X2_GE_1, False)),
        ]

    def test_scope_top_sees_conflicts_the_formula_hides(self, fdag):
        # not(x<=0) never explores the half-space where both atoms can clash.
        node = fdag.lit(X_LE_0, False)
        alpha = alpha_phi1()
        assert enumerate_lemmas(fdag, node, alpha, scope="formula").lemmas == ()
        top = enumerate_lemmas(fdag, node, alpha, scope="top")
        assert top.target == TARGET_TOP
        assert [lm.literals for lm in top.lemmas] == [
            ((X_LE_0, False), (X_EQ_1, False))]

    def test_boolean_only_formula_has_no_lemmas(self, fdag):
        from kcmt.formulas import Atom
        b1, b2 = Atom.boolean("b1"), Atom.boolean("b2")
        node = fdag.iff(fdag.lit(b1), fdag.lit(b2, False))
        lset = enumerate_lemmas(fdag, node, AtomSet([b1, b2]))
        assert lset.lemmas == ()

    def test_atom_outside_alpha_rejected(self, fdag):
        with pytest.raises(AbstractionError):
            enumerate_lemmas(fdag, build_phi1(fdag), AtomSet([X_LE_0]))
        with pytest.raises(AbstractionError):
            enumerate_lemmas(fdag, build_phi1(fdag), AtomSet([X_LE_0]),
                             scope="top")

    def test_unknown_scope_rejected(self, fdag):
        with pytest.raises(LemmaError):
            enumerate_lemmas(fdag, build_phi1(fdag), alpha_phi1(), scope="all")

    def test_abstract_clauses_builds_the_conjunction(self, fdag):
        lset = enumerate_lemmas(fdag, build_phi1(fdag), alpha_phi1())
        pdag = Dag()
        amap = AbstractionMap(alpha_phi1())
        node = abstract_clauses(lset, amap, pdag)
        assert node == pdag.or_([pdag.lit(1, False), pdag.lit(2, False)])
        empty = LemmaSet((), TARGET_FORMULA, alpha_phi1())
        assert abstract_clauses(empty, amap, pdag) == pdag.TRUE


def _corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        dag = Dag()
        atoms = random_atoms(rng, rng.randint(0, 2), rng.randint(2, 5),
                             rng.randint(1, 3))
        node = random_formula(dag, rng, atoms, depth=3)
        yield dag, node, AtomSet(atoms)


class TestCorpusProperties:
    def test_validity_completeness_conservativity(self):
        oracle = Oracle()
        backend = LraBackend()
        nonempty = 0
        for dag, node, alpha in _corpus(52001, 60):
            lset = enumerate_lemmas(dag, node, alpha)
            sets = oracle.ctta_itta(dag, node, alpha)
            # Validity: the negation of each lemma is theory-unsatisfiable.
            for lemma in lset.lemmas:
                neg = [(a, not p) for a, p in lemma.literals]
                assert not backend.check_conjunction(neg).is_sat
            # Completeness: every theory-inconsistent model is ruled out.
            assert rules_out(lset, sets.itta)
            # Conservativity: no theory-consistent model is ruled out.
            for eta in sets.ctta:
                for lemma in lset.lemmas:
                    assert any(
                        eta.value(a) == p for a, p in lemma.literals), (
                        "lemma %s cuts consistent %s" % (lemma, eta))
            nonempty += bool(lset.lemmas)
        assert nonempty >= 15, nonempty

    def test_scope_top_rules_out_every_inconsistency(self):
        oracle = Oracle()
        for dag, node, alpha in _corpus(52002, 15):
            lset = enumerate_lemmas(dag, node, alpha, scope="top")
            everything = oracle.ctta_itta(dag, dag.TRUE, alpha)
            assert rules_out(lset, everything.itta)

    def test_determinism_across_runs_and_arenas(self):
        for seed in (9001, 9002, 9003):
            rng1, rng2 = random.Random(seed), random.Random(seed)
            d1, d2 = Dag(), Dag()
            atoms1 = random_atoms(rng1, 1, 4, 2)
            atoms2 = random_atoms(rng2, 1, 4, 2)
            n1 = random_formula(d1, rng1, atoms1, depth=3)
            n2 = random_formula(d2, rng2, atoms2, depth=3)
            l1 = enumerate_lemmas(d1, n1, AtomSet(atoms1))
            l2 = enumerate_lemmas(d2, n2, AtomSet(atoms2))
            assert [str(lm) for lm in l1.lemmas] == [str(lm) for lm in l2.lemmas]

    def test_lemmas_may_range_over_atoms_absent_from_the_formula(self, fdag):
        # alpha is a strict superset of the formula's atoms; the top-scope
        # set must still cover clashes among the extra atoms.
        alpha = AtomSet([X_LE_0, X_EQ_1, X_GE_2])
        node = fdag.lit(X_EQ_1)
        oracle = Oracle()
        lset = enumerate_lemmas(fdag, node, alpha)
        assert rules_out(lset, oracle.ctta_itta(fdag, node, alpha).itta)
        mentioned = {a for lm in lset.lemmas for a, _ in lm.literals}
        assert X_GE_2 in mentioned


# Lemma sets of the criterion-7 family, recorded with the plain enumerator
# (one backend call per prefix, no witness reuse): seed -> (formula count,
# sha-256 of its lemma lines, negation count, sha-256 of its lemma lines).
PINNED_LEMMA_SETS = [
    (1000, 57, "500defee770d5a4e0c0dff0e0210f1d700476821d8e7982255c8936df9c5e784",
     55, "d32a42a430ab039af5f46235144954575bb7fda5e5c10778ff4b22ca44ae19f8"),
    (1001, 51, "c3dc842e431b28400f2f93c669bd0a1102ca6fb1bd2b2039a3f6636e461d24ca",
     48, "483f83f0cda452cd791973cf9f974bd861e33f866e1ee56157f4e8762ec6fad5"),
    (1002, 73, "17cb06f90ed92983855e3e6392bf1f88b5682ff45e39aa7b09cbe0f2ec3e06d9",
     54, "3b6daa18e0391482ef34091f64ff600a47b33e87099e0c6c18b95b8604d148c3"),
    (1003, 82, "2a40c2ea3ac983150acccbf0fdf8ccf71d7377ae2b00c91082c3f14f16235f6d",
     56, "e0a11aa0022594c48b244c98a740f04b2868329dbe4adf4e8e5ea618d68d365c"),
    (1004, 61, "da03f23de9881679e2773c76ef840488f8b112c368e720e28718b738ad1c7298",
     91, "430997aebd20f3272ce68dcf60510ec705073c9100b058d03914dd6735d9a11e"),
]


class _CountingBackend:
    """Counts the checks of an `LraBackend`. Without `keep_witness` it drops
    every sat witness, which turns the enumerator's witness reuse off."""

    def __init__(self, keep_witness):
        self.inner = LraBackend()
        self.keep_witness = keep_witness
        self.checks = 0

    def check_conjunction(self, literals):
        self.checks += 1
        verdict = self.inner.check_conjunction(literals)
        if verdict.is_sat and not self.keep_witness:
            return TheoryVerdict("sat")
        return verdict


def _introduces_fresh_variable(alpha):
    """True when some LRA atom after the first mentions a variable that no
    earlier atom of the order mentions."""
    seen = set()
    for i, atom in enumerate(a for a in alpha if a.kind == "lra"):
        fresh = set(atom.variables()) - seen
        if i and fresh:
            return True
        seen |= fresh
    return False


class TestIncrementalEnumeration:
    @pytest.mark.parametrize("row", PINNED_LEMMA_SETS, ids=lambda r: str(r[0]))
    def test_lemma_sets_match_the_pinned_ones(self, row):
        seed, n_formula, h_formula, n_negation, h_negation = row
        dag = Dag()
        node, alpha = generate(dag, InstanceSpec(
            num_lra_atoms=14 + seed % 5, num_rational_vars=3 + seed % 2,
            dag_depth=4, seed=seed))
        for target, count, digest in ((node, n_formula, h_formula),
                                      (dag.negate(node), n_negation, h_negation)):
            lset = enumerate_lemmas(dag, target, alpha)
            text = "\n".join(str(lm) for lm in lset.lemmas)
            assert (len(lset), hashlib.sha256(text.encode()).hexdigest()) == \
                (count, digest)

    def test_witness_reuse_changes_no_lemma(self):
        reused = _CountingBackend(keep_witness=True)
        plain = _CountingBackend(keep_witness=False)
        fresh = 0
        for dag, node, alpha in _corpus(52001, 60):
            fresh += _introduces_fresh_variable(alpha)
            for target in (node, dag.negate(node)):
                with_reuse = enumerate_lemmas(dag, target, alpha, backend=reused)
                without = enumerate_lemmas(dag, target, alpha, backend=plain)
                assert [str(lm) for lm in with_reuse.lemmas] == \
                    [str(lm) for lm in without.lemmas]
        # Atoms over variables no earlier atom mentions are read at 0 by the
        # reused witness; the corpus must exercise that case.
        assert fresh >= 10, fresh
        # Reuse really happened: it saved backend calls.
        assert reused.checks < plain.checks, (reused.checks, plain.checks)

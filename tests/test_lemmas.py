"""Lemma enumeration: fixed worked examples plus the four corpus properties
(validity, completeness, conservativity, determinism)."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from kcmt.compiler import KIND_DDNNF, KIND_OBDD, build_text, build_tred
from kcmt.formulas import (
    AbstractionError,
    Assignment,
    Atom,
    AtomSet,
    Dag,
    atoms_of,
)
from kcmt.generate import InstanceSpec, generate
from kcmt.lemmas import (
    TARGET_FORMULA,
    TARGET_NEGATION,
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
from kcmt.queries import count_models, is_valid
from kcmt.smtlib import parse_smt2, write_smt2
from kcmt.theory import (
    LraBackend,
    TheoryVerdict,
    minimize_conflict,
    moved_point,
    scaled_point,
)

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
        node = abstract_clauses(lset, alpha_phi1(), pdag)
        assert node == pdag.or_([pdag.lit(1, False), pdag.lit(2, False)])
        empty = LemmaSet((), TARGET_FORMULA, alpha_phi1())
        assert abstract_clauses(empty, alpha_phi1(), pdag) == pdag.TRUE


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


def _family(seed):
    """Criterion-7 instance `seed`: its arena, root and atom set."""
    dag = Dag()
    node, alpha = generate(dag, InstanceSpec(
        num_lra_atoms=14 + seed % 5, num_rational_vars=3 + seed % 2,
        dag_depth=4, seed=seed))
    return dag, node, alpha


def _runs(dag, node):
    """(target, scope, label) of the formula, negation and top runs."""
    return ((node, "formula", None),
            (dag.negate(node), "formula", TARGET_NEGATION),
            (node, "top", None))


def _lines(lset):
    return [str(lm) for lm in lset.lemmas]


class TestSharedOutcomes:
    """Runs over one `AtomSet` object with one backend share the theory
    outcomes of their prefixes; nothing else does."""

    def test_sharing_changes_no_lemma(self):
        for seed in range(1000, 1050):
            dag, node, alpha = _family(seed)
            # The first run finds no outcomes to share, so it is the fresh
            # run of its target; each later run is checked against one.
            assert alpha.outcomes(None) == {}
            for k, (target, scope, label) in enumerate(_runs(dag, node)):
                shared = enumerate_lemmas(dag, target, alpha, scope=scope,
                                          label=label)
                if k:
                    fresh = enumerate_lemmas(dag, target, AtomSet(alpha),
                                             scope=scope, label=label)
                    assert _lines(shared) == _lines(fresh), (seed, scope)
                    assert shared.target == fresh.target

    @pytest.mark.parametrize("seed", [1000, 1004])
    def test_a_shared_atom_set_saves_backend_calls(self, seed):
        dag, node, alpha = _family(seed)
        shared = _CountingBackend(keep_witness=True)
        fresh = 0
        for target, scope, label in _runs(dag, node):
            enumerate_lemmas(dag, target, alpha, scope=scope, label=label,
                             backend=shared)
            alone = _CountingBackend(keep_witness=True)
            enumerate_lemmas(dag, target, AtomSet(alpha), scope=scope,
                             label=label, backend=alone)
            fresh += alone.checks
        assert shared.checks < fresh, (shared.checks, fresh)

    def test_backends_share_nothing(self):
        dag, node, alpha = _family(1004)
        targets = (node, dag.negate(node))
        alone, own = _CountingBackend(keep_witness=True), AtomSet(alpha)
        for target in targets:
            enumerate_lemmas(dag, target, own, backend=alone)
        for target in targets:
            enumerate_lemmas(dag, target, alpha)
        for _ in range(2):
            other = _CountingBackend(keep_witness=True)
            for target in targets:
                enumerate_lemmas(dag, target, alpha, backend=other)
            assert other.checks == alone.checks

    def test_a_new_atom_set_starts_empty(self):
        dag, node, alpha = _family(1000)
        backend = _CountingBackend(keep_witness=True)
        enumerate_lemmas(dag, node, alpha, backend=backend)
        assert alpha.outcomes(backend)
        for copy in (AtomSet(alpha), alpha.union(AtomSet([X_EQ_1]))):
            assert copy.outcomes(backend) == {}
            assert copy.outcomes(None) == {}
        assert AtomSet(alpha) == alpha

    def test_parsing_the_same_text_twice_shares_nothing(self):
        dag, node, alpha = _family(1004)
        text = write_smt2(dag, node, alpha)
        backend = _CountingBackend(keep_witness=True)
        calls = []
        for _ in range(2):
            before = backend.checks
            fdag, root, parsed = parse_smt2(text)
            for target in (root, fdag.negate(root)):
                enumerate_lemmas(fdag, target, parsed, backend=backend)
            calls.append(backend.checks - before)
        assert calls[0] == calls[1] > 0, calls

    def test_an_unhashable_backend_still_enumerates(self):
        class Unhashable(_CountingBackend):
            __hash__ = None

        dag, node, alpha = _family(1000)
        backend = Unhashable(keep_witness=True)
        for target, scope, label in _runs(dag, node):
            assert _lines(enumerate_lemmas(
                dag, target, alpha, scope=scope, label=label,
                backend=backend)) == _lines(enumerate_lemmas(
                    dag, target, AtomSet(alpha), scope=scope, label=label))


class TestBooleanAtoms:
    """Boolean atoms cannot make a conjunction theory-inconsistent, so the
    enumerator decides the arithmetic atoms only."""

    def test_boolean_atoms_are_never_decided(self, monkeypatch):
        dag = Dag()
        node, alpha = generate(dag, InstanceSpec(4, 6, 2, 3, seed=7))
        assigned = set()
        residual = Dag.residual

        def recording(self, n, values):
            assigned.update(values)
            return residual(self, n, values)

        monkeypatch.setattr(Dag, "residual", recording)
        for target in (node, dag.negate(node)):
            enumerate_lemmas(dag, target, alpha)
        lra = {i for i, a in enumerate(alpha, 1) if a.kind == "lra"}
        assert len(lra) < len(alpha)
        assert assigned and assigned <= lra, sorted(assigned - lra)

    @pytest.mark.parametrize("spec", [
        InstanceSpec(4, 10, 3, 4, seed=11),
        InstanceSpec(6, 8, 3, 4, seed=12),
        InstanceSpec(8, 8, 2, 4, seed=13),
        InstanceSpec(7, 7, 2, 3, seed=15),
        InstanceSpec(8, 6, 3, 4, seed=16),
    ], ids=lambda s: "b%d-lra%d-seed%d" % (s.num_bool_atoms, s.num_lra_atoms,
                                          s.seed))
    def test_oracle_battery_with_boolean_atoms(self, spec):
        dag = Dag()
        node, alpha = generate(dag, spec)
        oracle = Oracle()
        backend = LraBackend()
        for target in (node, dag.negate(node)):
            lset = enumerate_lemmas(dag, target, alpha)
            sets = oracle.ctta_itta(dag, target, alpha)
            for lemma in lset.lemmas:
                neg = [(a, not p) for a, p in lemma.literals]
                assert not backend.check_conjunction(neg).is_sat
            assert rules_out(lset, sets.itta)
            for eta in sets.ctta:
                assert all(any(eta.value(a) == p for a, p in lemma.literals)
                           for lemma in lset.lemmas)
        assert count_models(build_tred(dag, node, alpha)) == \
            oracle.query("ct", dag, node, alpha)
        assert is_valid(build_text(dag, node, alpha)) == \
            oracle.query("va", dag, node, alpha)

    # Above the oracle bound the d-DNNF and the OBDD must agree on CT. The
    # counts are pinned too, since a wrong lemma set would mislead both.
    @pytest.mark.parametrize("bools,ct", [(4, 1701), (8, 55416), (12, 262400)])
    def test_ddnnf_and_obdd_counts_agree_above_the_oracle_bound(self, bools,
                                                                ct):
        dag = Dag()
        node, alpha = generate(dag, InstanceSpec(bools, 14, 3, 4, seed=1000))
        lemmas = enumerate_lemmas(dag, node, alpha)
        assert count_models(build_tred(dag, node, alpha, lemmas=lemmas)) == ct
        assert count_models(build_tred(dag, node, alpha, lemmas=lemmas,
                                       kind=KIND_OBDD)) == ct


class _GuardedBackend:
    """An `LraBackend` that fails any check inside a set known to be sat."""

    def __init__(self, sat_within):
        self.inner = LraBackend()
        self.sat_within = sat_within
        self.checks = 0

    def check_conjunction(self, literals):
        literals = frozenset(literals)
        assert not literals <= self.sat_within, sorted(map(str, literals))
        self.checks += 1
        return self.inner.check_conjunction(literals)


class TestFreeFirstTrial:
    """The prefix of a conflict node is sat, so the first deletion trial,
    the conflict without the new literal, needs no backend call."""

    def test_no_check_inside_the_prefix_and_the_same_cores(self, monkeypatch):
        calls = []

        def recording(backend, literals, conflict, index_of=None,
                      sat_within=frozenset()):
            calls.append((tuple(literals), frozenset(conflict), index_of,
                          sat_within))
            return minimize_conflict(backend, literals, conflict, index_of,
                                     sat_within)

        monkeypatch.setattr("kcmt.lemmas.minimize_conflict", recording)
        for dag, node, alpha in _corpus(52001, 60):
            for target in (node, dag.negate(node)):
                enumerate_lemmas(dag, target, alpha)
        monkeypatch.undo()
        assert len(calls) >= 100, len(calls)
        plain = LraBackend()
        free = paid = 0
        for lits, conflict, index_of, within in calls:
            # The enumerator passes the parent prefix, which is sat.
            assert within == frozenset(lits[:-1])
            assert plain.check_conjunction(within).is_sat
            guarded = _GuardedBackend(within)
            counted = _CountingBackend(keep_witness=True)
            core = minimize_conflict(guarded, lits, conflict, index_of,
                                     sat_within=within)
            assert core == minimize_conflict(counted, lits, conflict,
                                             index_of)
            free += guarded.checks
            paid += counted.checks
        assert free < paid, (free, paid)

    @pytest.mark.parametrize("seed,checks_without", [(1000, 956),
                                                     (1004, 1370)])
    def test_fewer_backend_calls_on_the_criterion_7_family(self, seed,
                                                            checks_without):
        # checks_without: formula plus negation, every deletion trial
        # checked by the backend.
        dag = Dag()
        node, alpha = generate(dag, InstanceSpec(
            num_lra_atoms=14 + seed % 5, num_rational_vars=3 + seed % 2,
            dag_depth=4, seed=seed))
        counting = _CountingBackend(keep_witness=True)
        for target in (node, dag.negate(node)):
            enumerate_lemmas(dag, target, alpha, backend=counting)
        assert counting.checks < checks_without, counting.checks


def _fraction_holds(atom, pol, point):
    """Reference: the literal evaluated in `Fraction` arithmetic."""
    total = sum((a * Fraction(point.get(v, 0)) for v, a in atom.coeffs),
                Fraction(0))
    holds = {"<=": total <= atom.const, "<": total < atom.const,
             "=": total == atom.const}[atom.rel]
    return holds == pol


class _WitnessRecorder:
    def __init__(self):
        self.inner = LraBackend()
        self.witnesses = []

    def check_conjunction(self, literals):
        verdict = self.inner.check_conjunction(literals)
        if verdict.is_sat:
            self.witnesses.append(verdict.witness)
        return verdict


def _derived_points(rng, point, atoms):
    """Huge and negative rescalings of `point`, the point with one variable
    dropped, and points moved onto an atom's boundary."""
    big = Fraction(-(10 ** 30) - 7, 3)
    out = [{v: x * big + Fraction(1, 10 ** 20 + 1) for v, x in point.items()},
           {v: -x for v, x in point.items()}]
    if point:
        gone = rng.choice(sorted(point))
        out.append({v: x for v, x in point.items() if v != gone})
    for atom in atoms:
        # Shift one variable so the atom's term meets its constant exactly.
        v, a = atom.coeffs[0]
        far = dict(out[0])
        far.setdefault(v, Fraction(0))
        term = sum(c * far.get(w, 0) for w, c in atom.coeffs)
        far[v] += (atom.const - term) / a
        out.append(far)
    return out


class TestIntegerWitnessTest:
    def test_agrees_with_fraction_evaluation(self):
        rng = random.Random(52001)
        points = 0
        for dag, node, alpha in _corpus(52001, 60):
            recorder = _WitnessRecorder()
            for target in (node, dag.negate(node)):
                enumerate_lemmas(dag, target, alpha, backend=recorder)
            atoms = [a for a in alpha if a.kind == "lra"]
            for witness in recorder.witnesses:
                for point in [witness] + _derived_points(rng, witness, atoms):
                    scaled = scaled_point(point)
                    for atom in atoms:
                        for pol in (True, False):
                            want = _fraction_holds(atom, pol, point)
                            assert scaled.holds(atom, pol) == want
                    points += 1
        assert points >= 1000, points

    def test_integer_values_and_the_empty_point(self):
        atom = Atom.linear({"x": 3, "y": -2}, "<=", Fraction(5, 7))
        assert scaled_point({}) == ({}, 1)
        assert scaled_point({"x": 2, "y": Fraction(-1, 6)}) == \
            ({"x": 12, "y": -1}, 6)
        for point in ({}, {"x": 0, "y": 0}, {"x": 1}, {"y": -1},
                      {"x": Fraction(5, 21)}, {"x": Fraction(5, 21) + 1}):
            for pol in (True, False):
                assert scaled_point(point).holds(atom, pol) == \
                    _fraction_holds(atom, pol, point)


def _values(scaled):
    nums, den = scaled
    return {v: Fraction(n, den) for v, n in nums.items()}


def _moves_onto_all(prefix, atom, pol, scaled):
    """`moved_point` at `scaled`, with its point (if any) checked against
    every LRA literal of `prefix` and the new one in `Fraction` arithmetic."""
    point = moved_point(atom, pol, prefix, scaled)
    if point is not None:
        for at, p in tuple(prefix) + ((atom, pol),):
            if at.kind == "lra":
                assert _fraction_holds(at, p, _values(point)), (at, p, point)
    return point


X_LT_2 = Atom.linear({"x": 1}, "<", 2)
X_LE_2 = Atom.linear({"x": 1}, "<=", 2)
X_LE_4 = Atom.linear({"x": 1}, "<=", 4)
X_EQ_2 = Atom.linear({"x": 1}, "=", 2)
X_EQ_3 = Atom.linear({"x": 1}, "=", 3)
X_LT_0 = Atom.linear({"x": 1}, "<", 0)
X_PLUS_2Y_LE_0 = Atom.linear({"x": 1, "y": 2}, "<=", 0)
X_PLUS_Y_LE_M1 = Atom.linear({"x": 1, "y": 1}, "<=", -1)


class TestMovedWitness:
    """Before a backend call, the parent's witness moves one variable of the
    new atom inside the bounds that the prefix puts on it."""

    def test_every_moved_point_satisfies_its_prefix(self, monkeypatch):
        moves = []

        def recording(atom, pol, literals, scaled):
            point = _moves_onto_all(literals, atom, pol, scaled)
            moves.append(point)
            return point

        monkeypatch.setattr("kcmt.theory.moved_point", recording)
        for dag, node, alpha in _corpus(52001, 60):
            for target in (node, dag.negate(node)):
                enumerate_lemmas(dag, target, alpha)
        found = sum(point is not None for point in moves)
        assert found >= 200 and found < len(moves), (found, len(moves))

    def test_an_equality_on_the_freed_variable_gives_its_value(self):
        point = _moves_onto_all([(X_LE_4, True)], X_EQ_3, True, ({"x": 0}, 1))
        assert _values(point) == {"x": 3}

    def test_two_conflicting_equalities_give_nothing(self):
        assert _moves_onto_all([(X_EQ_2, True)], X_EQ_3, True,
                               ({"x": 2}, 1)) is None

    def test_bounds_that_meet(self):
        # x <= 2 and x >= 2 meet at 2; x < 2 and x >= 2 do not.
        point = _moves_onto_all([(X_LE_2, True)], X_GE_2, True, ({"x": 0}, 1))
        assert _values(point) == {"x": 2}
        assert _moves_onto_all([(X_LT_2, True)], X_GE_2, True,
                               ({"x": 0}, 1)) is None
        assert _moves_onto_all([(X_LT_2, True)], X_LE_2, False,
                               ({"x": 0}, 1)) is None

    def test_the_midpoint_of_two_bounds(self):
        point = _moves_onto_all([(X_LE_4, True)], X_LT_0, False,
                                ({"x": -1}, 1))
        assert _values(point) == {"x": 2}

    def test_a_one_sided_bound_is_passed_by_one(self):
        point = _moves_onto_all([], X_LE_0, True, ({"x": 1}, 1))
        assert _values(point) == {"x": -1}
        point = _moves_onto_all([], X_LE_4, False, ({"x": 0}, 1))
        assert _values(point) == {"x": 5}
        # x + 2y <= 0 at x = 1/2, y = 1/3: x moves to -2/3 - 1.
        point = _moves_onto_all([], X_PLUS_2Y_LE_0, True,
                                scaled_point({"x": Fraction(1, 2),
                                              "y": Fraction(1, 3)}))
        assert _values(point) == {"x": Fraction(-5, 3), "y": Fraction(1, 3)}

    def test_a_midpoint_on_a_negated_equality_fails(self):
        # x in [0, 4] has its midpoint at 2, which x != 2 excludes.
        assert _moves_onto_all([(X_LE_4, True), (X_EQ_2, False)], X_LT_0,
                               False, ({"x": -1}, 1)) is None
        # Only disequalities bound x: nothing to move inside.
        assert _moves_onto_all([], X_EQ_2, False, ({"x": 2}, 1)) is None

    def test_a_variable_missing_from_the_witness_reads_as_zero(self):
        point = _moves_onto_all([], X_EQ_3, True, ({"y": 3}, 2))
        assert _values(point) == {"x": 3, "y": Fraction(3, 2)}
        point = _moves_onto_all([], X_PLUS_Y_LE_M1, True, ({"x": 0}, 1))
        assert _values(point) == {"x": -2}

    def test_the_next_variable_when_the_first_is_pinned(self):
        point = _moves_onto_all([(X_EQ_1, False), (Atom.linear(
            {"x": 1}, "=", 0), True)], X_PLUS_Y_LE_M1, True,
            ({"x": 0, "y": 0}, 1))
        assert _values(point) == {"x": 0, "y": -2}

    def test_boolean_literals_are_ignored(self):
        prefix = [(Atom.boolean("b"), True), (X_LE_4, True)]
        assert moved_point(X_LT_0, False, prefix, ({"x": -1}, 1)) == \
            moved_point(X_LT_0, False, prefix[1:], ({"x": -1}, 1))

    def test_a_none_witness_is_not_moved(self, monkeypatch):
        # Without witnesses the root has no point either, so nothing is
        # moved; the lemmas stay the same.
        def recording(atom, pol, literals, scaled):
            assert scaled is not None
            return moved_point(atom, pol, literals, scaled)

        monkeypatch.setattr("kcmt.theory.moved_point", recording)
        dag, node, alpha = _family(1000)
        plain = _CountingBackend(keep_witness=False)
        for target in (node, dag.negate(node)):
            assert _lines(enumerate_lemmas(dag, target, alpha,
                                           backend=plain)) == \
                _lines(enumerate_lemmas(dag, target, AtomSet(alpha)))
        assert plain.checks > 0

    @pytest.mark.parametrize("specs,limit", [
        ([(14, 3, 4, 1000), (18, 3, 4, 1004)], 1000),
        ([(22, 4, 5, 7)], 4000),
    ], ids=["corpus-1000-1004", "H22"])
    def test_fewer_backend_calls(self, specs, limit):
        # Formula plus negation. Without the move: 1,363 and 5,585 calls.
        counting = _CountingBackend(keep_witness=True)
        for atoms, nvars, depth, seed in specs:
            dag = Dag()
            node, alpha = generate(dag, InstanceSpec(
                num_lra_atoms=atoms, num_rational_vars=nvars, dag_depth=depth,
                seed=seed))
            for target in (node, dag.negate(node)):
                enumerate_lemmas(dag, target, alpha, backend=counting)
        assert counting.checks < limit, counting.checks


class TestWalkWork:
    def test_a_blocked_node_builds_no_residual(self, monkeypatch):
        # Formula plus negation. With each residual built before the node's
        # `blocked` scan, the walk makes 8,954 calls here, 2,974 of them
        # for nodes that a learned clause then prunes.
        calls = []
        residual = Dag.residual

        def counted(self, node, values):
            calls.append(node)
            return residual(self, node, values)

        monkeypatch.setattr(Dag, "residual", counted)
        for seed in (1000, 1004):
            dag, node, alpha = _family(seed)
            for target in (node, dag.negate(node)):
                enumerate_lemmas(dag, target, alpha)
        assert len(calls) <= 6000, len(calls)


class _IntegerBoxBackend:
    """A theory other than LRA: a conjunction is sat iff some integer point
    with every coordinate in [-bound, bound] satisfies it, found by brute
    force. Its sat witness is a plain dict; its conflict is every LRA
    literal of an unsat conjunction, or a complementary pair."""

    def __init__(self, bound=4):
        self.bound = bound

    def check_conjunction(self, literals):
        lits = frozenset(literals)
        for atom, pol in lits:
            if (atom, not pol) in lits:
                return TheoryVerdict("unsat", conflict=frozenset(
                    ((atom, True), (atom, False))))
        lra = [(a, p) for a, p in lits if a.kind == "lra"]
        names = sorted({v for a, _ in lra for v, _c in a.coeffs})
        for values in itertools.product(range(-self.bound, self.bound + 1),
                                        repeat=len(names)):
            point = dict(zip(names, map(Fraction, values)))
            if all(_fraction_holds(a, p, point) for a, p in lra):
                return TheoryVerdict("sat", witness=point)
        return TheoryVerdict("unsat", conflict=frozenset(lra))


def _box_answers(dag, node, alpha, box):
    """(tred CT, text VA) of the d-DNNF and OBDD targets under `box`."""
    return [(count_models(build_tred(dag, node, alpha, backend=box,
                                     kind=kind)),
             is_valid(build_text(dag, node, alpha, backend=box, kind=kind)))
            for kind in (KIND_DDNNF, KIND_OBDD)]


class TestAnyTheory:
    """Lemma enumeration takes a step at a witness only when the witness
    offers it, so a backend for another theory gets its own answers."""

    def test_an_interval_without_an_integer(self):
        box = _IntegerBoxBackend()
        dag, node, alpha = parse_smt2("(declare-fun x () Real)"
                                      "(assert (and (> x 0) (< x 1)))")
        assert Oracle(box).query("ct", dag, node, alpha) == 0
        assert Oracle().query("ct", dag, node, alpha) == 1
        assert count_models(build_tred(dag, node, alpha, backend=box)) == 0

    def test_compiled_answers_match_the_oracle(self):
        box = _IntegerBoxBackend()
        kept = differs = 0
        for seed in range(60):
            dag = Dag()
            node, alpha = generate(dag, InstanceSpec(
                num_lra_atoms=5, num_rational_vars=2, dag_depth=3, seed=seed))
            # A literal that is unsat alone would be a 1-literal core,
            # which the framework rules out.
            if not all(box.check_conjunction([(a, p)]).is_sat
                       for a in alpha for p in (True, False)):
                continue
            kept += 1
            want = [(oracle.query("ct", dag, node, alpha),
                     oracle.query("va", dag, node, alpha))
                    for oracle in (Oracle(box), Oracle())]
            assert _box_answers(dag, node, alpha, box) == [want[0]] * 2, seed
            differs += want[0] != want[1]
        assert kept >= 20 and differs >= 10, (kept, differs)

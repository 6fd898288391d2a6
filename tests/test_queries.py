"""The eight queries: worked examples, mode guards, oracle agreement on a
random corpus, exact counts on the circuit as built, and the linear
node-visit bound."""

import itertools
import random

import pytest

from kcmt import cli
from kcmt.compiler import (
    KIND_DDNNF,
    KIND_OBDD,
    MODE_T_EXTENDED,
    MODE_T_REDUCED,
    build_text,
    build_tred,
    validate,
)
from kcmt.formulas import Assignment, Atom, AtomSet, Dag, atoms_of, refine
from kcmt.generate import InstanceSpec, generate
from kcmt.nnf_io import read_nnf, write_nnf
from kcmt.obdd import ObddManager
from kcmt.oracle import Oracle
from kcmt.queries import (
    ModeError,
    QueryError,
    UnsupportedQueryError,
    count_models,
    count_models_assume,
    enumerate_models,
    entails_clause,
    equivalent,
    is_consistent,
    is_implicant,
    is_valid,
    sentential_entails,
)

from conftest import (
    X1_LE_0,
    X_EQ_1,
    X_GE_2,
    X_LE_0,
    alpha_phi1,
    alpha_two_clause,
    build_phi1,
    build_phi2,
    build_two_clause,
    random_atoms,
    random_formula,
    random_prop,
)


@pytest.fixture
def tred_phi1(fdag):
    return build_tred(fdag, build_phi1(fdag))


@pytest.fixture
def text_phi1(fdag):
    return build_text(fdag, build_phi1(fdag))


@pytest.fixture
def tred_ex3(fdag):
    return build_tred(fdag, build_two_clause(fdag), alpha_two_clause())


class TestConsistency:
    def test_worked_disjunction(self, tred_phi1):
        assert is_consistent(tred_phi1)

    def test_blocked_conjunction(self, fdag):
        node = fdag.and_([fdag.lit(X_LE_0), fdag.lit(X_EQ_1)])
        assert not is_consistent(build_tred(fdag, node))

    def test_top_over_alpha(self, fdag):
        art = build_tred(fdag, fdag.TRUE, alpha_phi1())
        assert is_consistent(art)

    def test_obdd_backend(self, fdag):
        assert is_consistent(build_tred(fdag, build_phi1(fdag),
                                        kind=KIND_OBDD))
        node = fdag.and_([fdag.lit(X_LE_0), fdag.lit(X_EQ_1)])
        assert not is_consistent(build_tred(fdag, node, kind=KIND_OBDD))


class TestValidity:
    def test_theory_tautology(self, fdag):
        node = fdag.or_([fdag.lit(X_LE_0, False), fdag.lit(X_EQ_1, False)])
        assert is_valid(build_text(fdag, node))

    def test_worked_disjunction_not_valid(self, text_phi1):
        assert not is_valid(text_phi1)

    def test_propositional_tautology(self, fdag):
        node = fdag.or_([fdag.lit(X_LE_0), fdag.lit(X_LE_0, False)])
        assert is_valid(build_text(fdag, node))

    def test_obdd_backend(self, fdag):
        node = fdag.or_([fdag.lit(X_LE_0, False), fdag.lit(X_EQ_1, False)])
        assert is_valid(build_text(fdag, node, kind=KIND_OBDD))


class TestClauseEntailment:
    def test_formula_clause(self, tred_phi1):
        assert entails_clause(tred_phi1, [(X_LE_0, True), (X_EQ_1, True)])

    def test_lemma_clause_beyond_propositional(self, tred_phi1):
        assert entails_clause(tred_phi1, [(X_LE_0, False), (X_EQ_1, False)])

    def test_single_literal_countermodel(self, tred_phi1):
        assert not entails_clause(tred_phi1, [(X_LE_0, False)])

    def test_obdd_backend(self, fdag):
        art = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        assert entails_clause(art, [(X_LE_0, False), (X_EQ_1, False)])
        assert not entails_clause(art, [(X_LE_0, False)])


class TestImplicant:
    def test_literal_beyond_propositional(self, fdag):
        node = fdag.or_([fdag.lit(X_LE_0, False), fdag.lit(X_EQ_1, False)])
        assert is_implicant(build_text(fdag, node), [(X_LE_0, True)])

    def test_first_disjunct(self, text_phi1):
        assert is_implicant(text_phi1, [(X_LE_0, True)])

    def test_falsifying_cube(self, text_phi1):
        assert not is_implicant(text_phi1,
                                [(X_LE_0, False), (X_EQ_1, False)])

    def test_obdd_backend(self, fdag):
        art = build_text(fdag, build_phi1(fdag), kind=KIND_OBDD)
        assert is_implicant(art, [(X_LE_0, True)])
        assert not is_implicant(art, [(X_LE_0, False), (X_EQ_1, False)])


class TestCounting:
    def test_worked_disjunction(self, tred_phi1):
        assert count_models(tred_phi1) == 2

    def test_regression_formula(self, tred_ex3):
        assert count_models(tred_ex3) == 2

    def test_bottom(self, fdag):
        art = build_tred(fdag, fdag.FALSE, alpha_phi1())
        assert count_models(art) == 0

    def test_assume_single_literal(self, tred_ex3):
        assert count_models_assume(tred_ex3, [(X1_LE_0, True)]) == 1

    def test_assume_empty_cube(self, tred_ex3):
        assert count_models_assume(tred_ex3, []) == count_models(tred_ex3)

    def test_assume_contradicting_cube(self, tred_phi1):
        got = count_models_assume(tred_phi1,
                                  [(X_LE_0, True), (X_EQ_1, True)])
        assert got == 0

    def test_obdd_backend(self, fdag):
        art = build_tred(fdag, build_two_clause(fdag), alpha_two_clause(),
                         kind=KIND_OBDD)
        assert count_models(art) == 2
        assert count_models_assume(art, [(X1_LE_0, True)]) == 1


class TestExactCounts:
    """Counts past 2**53 stay exact integers on both modes."""

    ALPHA = AtomSet([Atom.boolean("b%d" % i) for i in range(60)])

    def test_top_over_sixty_atoms(self, fdag):
        first = self.ALPHA[0]
        tred = build_tred(fdag, fdag.TRUE, self.ALPHA)
        assert count_models(tred) == 2 ** 60
        assert count_models_assume(tred, [(first, False)]) == 2 ** 59
        text = build_text(fdag, fdag.TRUE, self.ALPHA)
        assert is_valid(text)
        assert is_implicant(text, [(first, False)])

    def test_clause_over_sixty_atoms(self, fdag):
        # 2**60 - 1 has no exact float, so a float count would call the
        # clause valid.
        first = self.ALPHA[0]
        clause = fdag.or_([fdag.lit(a) for a in self.ALPHA])
        tred = build_tred(fdag, clause, self.ALPHA)
        assert count_models(tred) == 2 ** 60 - 1
        assert count_models_assume(tred, [(first, False)]) == 2 ** 59 - 1
        assert count_models_assume(tred, [(first, True)]) == 2 ** 59
        text = build_text(fdag, clause, self.ALPHA)
        assert not is_valid(text)
        assert is_implicant(text, [(first, True)])
        assert not is_implicant(text, [(first, False)])


class TestEnumeration:
    def test_worked_disjunction_order(self, tred_phi1):
        got = list(enumerate_models(tred_phi1))
        assert got == [
            Assignment({X_LE_0: True, X_EQ_1: False}),
            Assignment({X_LE_0: False, X_EQ_1: True}),
        ]

    def test_bottom_is_empty(self, fdag):
        art = build_tred(fdag, fdag.FALSE, alpha_phi1())
        assert list(enumerate_models(art)) == []

    def test_regression_formula(self, tred_ex3):
        got = list(enumerate_models(tred_ex3))
        assert len(got) == 2
        for eta in got:
            assert eta.is_total_over(tred_ex3.alpha)

    def test_obdd_matches_ddnnf(self, fdag):
        ddnnf = build_tred(fdag, build_two_clause(fdag), alpha_two_clause())
        obdd = build_tred(fdag, build_two_clause(fdag), alpha_two_clause(),
                          kind=KIND_OBDD)
        assert list(enumerate_models(ddnnf)) == list(enumerate_models(obdd))

    def test_obdd_models_complete_total_and_in_atom_order(self):
        # Models come in atom-index order whatever the manager's order.
        rng = random.Random(90105)
        oracle = Oracle()
        for _ in range(30):
            nvars = rng.randint(1, 4)
            n_bool = rng.randint(0, nvars)
            alpha = AtomSet(random_atoms(rng, n_bool, nvars - n_bool, 2))
            pdag, fdag = Dag(), Dag()
            node = refine(pdag, random_prop(pdag, rng, nvars, depth=3),
                          alpha, fdag)
            want = oracle.query("me", fdag, node, alpha)
            for order in (range(1, nvars + 1), range(nvars, 0, -1)):
                art = build_tred(fdag, node, alpha, kind=KIND_OBDD,
                                 order=tuple(order))
                assert list(enumerate_models(art)) == want

    def test_ddnnf_models_complete_total_and_in_atom_order(self):
        # Atoms the formula does not mention are free at the root, and
        # every model still assigns them, in atom-index order.
        rng = random.Random(90106)
        oracle = Oracle()
        free = 0
        for _ in range(30):
            nvars = rng.randint(1, 5)
            n_bool = rng.randint(0, nvars)
            alpha = AtomSet(random_atoms(rng, n_bool, nvars - n_bool, 2))
            pdag, fdag = Dag(), Dag()
            node = refine(pdag, random_prop(pdag, rng, rng.randint(1, nvars),
                                            depth=3),
                          alpha, fdag)
            free += len(atoms_of(fdag, node)) < nvars
            want = oracle.query("me", fdag, node, alpha)
            assert list(enumerate_models(build_tred(fdag, node, alpha))) == \
                want
        assert free >= 5

    @pytest.mark.parametrize("kind", [KIND_DDNNF, KIND_OBDD])
    def test_models_past_a_machine_word_in_atom_order(self, kind):
        # 73 atoms: 67 unit literals, a clause over the next three and
        # three left free, so a model's bits run past 64.
        atoms = [Atom.boolean("b%02d" % i) for i in range(73)]
        units = [(a, i % 3 != 0) for i, a in enumerate(atoms[:67])]
        fdag = Dag()
        clause = fdag.or_([fdag.lit(a) for a in atoms[67:70]])
        node = fdag.and_([fdag.lit(a, p) for a, p in units] + [clause])
        art = build_tred(fdag, node, AtomSet(atoms), kind=kind)
        want = [Assignment(units + list(zip(atoms[67:], values)))
                for values in itertools.product((True, False), repeat=6)
                if any(values[:3])]
        assert len(want) == 56
        assert list(enumerate_models(art)) == want


class TestEquivalenceAndEntailment:
    def test_worked_pair_equivalent(self, fdag):
        manager = ObddManager((1, 2))
        a1 = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD,
                        manager=manager)
        a2 = build_tred(fdag, build_phi2(fdag), kind=KIND_OBDD,
                        manager=manager)
        assert equivalent(a1, a2)
        assert equivalent(a1, a1)

    def test_equivalence_across_managers(self, fdag):
        a1 = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        a2 = build_tred(fdag, build_phi2(fdag), kind=KIND_OBDD)
        assert equivalent(a1, a2)

    def test_bottom_not_equivalent(self, fdag):
        a1 = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        bot = build_tred(fdag, fdag.FALSE, alpha_phi1(), kind=KIND_OBDD)
        assert not equivalent(a1, bot)

    def test_strengthened_formula_entails(self, fdag):
        node = build_phi1(fdag)
        stronger = fdag.and_([node, fdag.lit(X_LE_0)])
        manager = ObddManager((1, 2))
        a = build_tred(fdag, stronger, alpha_phi1(), kind=KIND_OBDD,
                       manager=manager)
        b = build_tred(fdag, node, kind=KIND_OBDD, manager=manager)
        assert sentential_entails(a, b)
        assert sentential_entails(a, a)

    def test_top_does_not_entail(self, fdag):
        manager = ObddManager((1, 2))
        top = build_tred(fdag, fdag.TRUE, alpha_phi1(), kind=KIND_OBDD,
                         manager=manager)
        b = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD, manager=manager)
        assert not sentential_entails(top, b)
        assert sentential_entails(b, top)


class TestGuards:
    def test_reduced_queries_reject_extended_artifacts(self, text_phi1):
        with pytest.raises(ModeError):
            is_consistent(text_phi1)
        with pytest.raises(ModeError):
            entails_clause(text_phi1, [(X_LE_0, True)])
        with pytest.raises(ModeError):
            count_models(text_phi1)
        with pytest.raises(ModeError):
            count_models_assume(text_phi1, [(X_LE_0, True)])
        with pytest.raises(ModeError):
            list(enumerate_models(text_phi1))

    def test_model_enumeration_rejects_at_the_call(self, text_phi1):
        # Nothing is iterated: the call itself must refuse the mode.
        with pytest.raises(ModeError):
            enumerate_models(text_phi1)

    def test_extended_queries_reject_reduced_artifacts(self, tred_phi1):
        with pytest.raises(ModeError):
            is_valid(tred_phi1)
        with pytest.raises(ModeError):
            is_implicant(tred_phi1, [(X_LE_0, True)])

    def test_error_names_required_mode(self, tred_phi1, text_phi1):
        with pytest.raises(ModeError, match=MODE_T_REDUCED):
            is_consistent(text_phi1)
        with pytest.raises(ModeError, match=MODE_T_EXTENDED):
            is_valid(tred_phi1)

    def test_malformed_literal_sets(self, tred_phi1):
        outside = Atom.linear({"y": 1}, "<=", 0)
        with pytest.raises(QueryError):
            entails_clause(tred_phi1, [(outside, True)])
        with pytest.raises(QueryError):
            count_models_assume(tred_phi1,
                                [(X_LE_0, True), (X_LE_0, False)])

    def test_equivalence_needs_matching_obdds(self, fdag, tred_phi1):
        ddnnf_b = build_tred(fdag, build_phi2(fdag))
        with pytest.raises(UnsupportedQueryError):
            equivalent(tred_phi1, ddnnf_b)
        a1 = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        a2 = build_text(fdag, build_phi2(fdag), kind=KIND_OBDD)
        with pytest.raises(UnsupportedQueryError):
            equivalent(a1, a2)
        with pytest.raises(UnsupportedQueryError):
            sentential_entails(a1, a2)
        a3 = build_tred(fdag, build_phi2(fdag), kind=KIND_OBDD, order=(2, 1))
        with pytest.raises(UnsupportedQueryError):
            equivalent(a1, a3)
        wider = build_tred(fdag, build_phi1(fdag),
                           AtomSet([X_LE_0, X_EQ_1, X_GE_2]), kind=KIND_OBDD)
        with pytest.raises(UnsupportedQueryError):
            equivalent(a1, wider)

    def test_unsupported_query_error_is_a_mode_error(self):
        assert issubclass(UnsupportedQueryError, ModeError)


def _random_literals(rng, alpha, k):
    atoms = rng.sample(list(alpha), k)
    return [(a, rng.random() < 0.5) for a in atoms]


class TestOracleAgreement:
    """Random corpus across both modes and both backends."""

    def _instances(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            fdag = Dag()
            atoms = random_atoms(rng, rng.randint(0, 2), rng.randint(1, 4),
                                 rng.randint(1, 3))
            node = random_formula(fdag, rng, atoms, depth=rng.randint(1, 3))
            alpha = AtomSet(atoms)
            alpha = alpha.union(atoms_of(fdag, node))
            yield rng, fdag, node, alpha

    def test_all_queries_match_oracle(self):
        oracle = Oracle()
        for rng, fdag, node, alpha in self._instances(81001, 25):
            n = len(alpha)
            tred = build_tred(fdag, node, alpha)
            text = build_text(fdag, node, alpha)
            manager = ObddManager(tuple(range(1, n + 1)))
            tred_o = build_tred(fdag, node, alpha, kind=KIND_OBDD,
                                manager=manager)
            text_o = build_text(fdag, node, alpha, kind=KIND_OBDD,
                                manager=manager)

            assert is_consistent(tred) == oracle.query("co", fdag, node, alpha)
            assert is_consistent(tred_o) == is_consistent(tred)
            assert is_valid(text) == oracle.query("va", fdag, node, alpha)
            assert is_valid(text_o) == is_valid(text)
            assert count_models(tred) == oracle.query("ct", fdag, node, alpha)
            assert count_models(tred_o) == count_models(tred)

            me = list(enumerate_models(tred))
            assert me == oracle.query("me", fdag, node, alpha)
            assert me == list(enumerate_models(tred_o))

            for _ in range(2):
                clause = _random_literals(rng, alpha, rng.randint(1, n))
                want = oracle.query("ce", fdag, node, alpha, clause)
                assert entails_clause(tred, clause) == want
                assert entails_clause(tred_o, clause) == want

                cube = _random_literals(rng, alpha, rng.randint(1, n))
                want = oracle.query("im", fdag, node, alpha, cube)
                assert is_implicant(text, cube) == want
                assert is_implicant(text_o, cube) == want

                cube = _random_literals(rng, alpha, rng.randint(1, n))
                want = oracle.query("ct", fdag, node, alpha, cube)
                assert count_models_assume(tred, cube) == want
                assert count_models_assume(tred_o, cube) == want

    def test_equivalence_and_entailment_match_oracle(self):
        oracle = Oracle()
        eq_hits = se_hits = 0
        for rng, fdag, node, alpha in self._instances(81002, 30):
            n = len(alpha)
            pool = list(alpha)
            other = random_formula(fdag, rng, pool, depth=rng.randint(1, 3))
            if rng.random() < 0.4:
                # Bias toward related pairs so both verdicts show up.
                other = fdag.and_([node, random_formula(fdag, rng, pool, 1)])
            manager = ObddManager(tuple(range(1, n + 1)))
            for mode, build in ((MODE_T_REDUCED, build_tred),
                                (MODE_T_EXTENDED, build_text)):
                a = build(fdag, node, alpha, kind=KIND_OBDD, manager=manager)
                b = build(fdag, other, alpha, kind=KIND_OBDD, manager=manager)
                want_eq = oracle.query("eq", fdag, node, alpha, other)
                want_se = oracle.query("se", fdag, node, alpha, other)
                assert equivalent(a, b) == want_eq
                assert sentential_entails(a, b) == want_se
                if mode == MODE_T_REDUCED:
                    eq_hits += want_eq
                    se_hits += want_se
        assert se_hits >= 3
        assert eq_hits >= 1

    def test_small_cubes_match_truth_table(self):
        # The circuits stay unsmoothed, so decisions whose branches range
        # over unequal atom sets are counted as they are.
        unsmooth = 0
        for rng, fdag, node, alpha in self._instances(81005, 25):
            n = len(alpha)
            order = list(range(1, n + 1))
            tred = build_tred(fdag, node, alpha)
            text = build_text(fdag, node, alpha)
            unsmooth += not validate(tred.dag, tred.root).smooth
            tred_bits = tred.dag.truth_bits(tred.root, order)
            # The text artifact stores the complement of its model set.
            text_bits = ~text.dag.truth_bits(text.root, order) & \
                ((1 << (1 << n)) - 1)
            lits = [(i, pol) for i in order for pol in (True, False)]
            cubes = [()] + [(l,) for l in lits] + [
                pair for pair in itertools.combinations(lits, 2)
                if pair[0][0] != pair[1][0]]
            for cube in cubes:
                extending = [b for b in range(1 << n)
                             if all((b >> (i - 1) & 1) == pol
                                    for i, pol in cube)]
                atoms = [(tred.alpha.atom_at(i), pol) for i, pol in cube]
                assert count_models_assume(tred, atoms) == sum(
                    tred_bits >> b & 1 for b in extending)
                assert is_implicant(text, atoms) == all(
                    text_bits >> b & 1 for b in extending)
        assert unsmooth >= 5

    def test_single_literal_implicants_match_oracle(self):
        oracle = Oracle()
        for rng, fdag, node, alpha in self._instances(81003, 20):
            text = build_text(fdag, node, alpha)
            for atom in alpha:
                for pol in (True, False):
                    want = oracle.query("im", fdag, node, alpha,
                                        [(atom, pol)])
                    assert is_implicant(text, [(atom, pol)]) == want


class TestAboveOracleBound:
    """Above the oracle's 16-atom bound, the d-DNNF and OBDD tExtended
    artifacts of one formula and one lemma set check each other."""

    def test_ddnnf_and_obdd_agree_on_va_and_im(self):
        verdicts = set()
        for seed in range(1000, 1010):
            fdag = Dag()
            node, alpha = generate(fdag, InstanceSpec(
                num_lra_atoms=14 + seed % 5, num_rational_vars=3 + seed % 2,
                dag_depth=4, seed=seed))
            text = build_text(fdag, node, alpha)
            text_o = build_text(fdag, node, alpha, kind=KIND_OBDD,
                                lemmas=text.lemmas)
            assert is_valid(text) == is_valid(text_o)
            rng = random.Random(seed)
            for _ in range(20):
                cube = _random_literals(rng, alpha, rng.randint(2, 4))
                verdict = is_implicant(text, cube)
                assert is_implicant(text_o, cube) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestVisitCosts:
    def test_query_visits_linear_in_dag_size(self):
        rng = random.Random(81004)
        for _ in range(10):
            fdag = Dag()
            atoms = random_atoms(rng, 1, rng.randint(2, 4), 2)
            node = random_formula(fdag, rng, atoms, depth=3)
            alpha = AtomSet(atoms).union(atoms_of(fdag, node))
            n = len(alpha)
            tred = build_tred(fdag, node, alpha)
            text = build_text(fdag, node, alpha)

            stats = {}
            is_consistent(tred, stats)
            assert stats.get("visits", 0) <= len(tred.dag)

            stats = {}
            count_models(tred, stats)
            assert stats.get("visits", 0) <= len(tred.dag)

            stats = {}
            is_valid(text, stats)
            assert stats.get("visits", 0) <= len(text.dag)

            clause = _random_literals(rng, alpha, min(2, n))
            stats = {}
            entails_clause(tred, clause, stats)
            assert stats.get("visits", 0) <= len(tred.dag)

            cube = _random_literals(rng, alpha, min(2, n))
            stats = {}
            is_implicant(text, cube, stats)
            assert stats.get("visits", 0) <= len(text.dag)

            stats = {}
            count_models_assume(tred, cube, stats)
            assert stats.get("visits", 0) <= len(tred.dag)


class TestFrozenCircuit:
    def test_queries_add_no_nodes(self):
        rng = random.Random(81006)
        for _ in range(10):
            fdag = Dag()
            atoms = random_atoms(rng, 1, rng.randint(2, 4), 2)
            node = random_formula(fdag, rng, atoms, depth=3)
            alpha = AtomSet(atoms).union(atoms_of(fdag, node))
            tred = build_tred(fdag, node, alpha)
            text = build_text(fdag, node, alpha)
            obdd = build_tred(fdag, node, alpha, kind=KIND_OBDD)
            part = build_tred(fdag, fdag.and_([node, fdag.lit(alpha[0])]),
                              alpha, kind=KIND_OBDD, manager=obdd.manager)
            sizes = len(tred.dag), len(text.dag), len(obdd.manager)
            for _ in range(5):
                k = rng.randint(1, len(alpha))
                cube = _random_literals(rng, alpha, k)
                is_consistent(tred)
                count_models(tred)
                count_models_assume(tred, cube)
                entails_clause(tred, cube)
                is_valid(text)
                is_implicant(text, cube)
                is_consistent(obdd)
                count_models(obdd)
                count_models_assume(obdd, cube)
                entails_clause(obdd, cube)
            assert sentential_entails(part, obdd)
            sentential_entails(obdd, part)
            equivalent(obdd, part)
            assert (len(tred.dag), len(text.dag), len(obdd.manager)) == sizes

    def test_enumeration_adds_no_nodes(self):
        fdag = Dag()
        node, alpha = generate(fdag, InstanceSpec(
            num_lra_atoms=6, num_rational_vars=2, dag_depth=3, seed=5))
        tred = build_tred(fdag, node, alpha)
        size = len(tred.dag)
        assert len(list(enumerate_models(tred))) == count_models(tred)
        assert len(tred.dag) == size


def _chain(fdag, n):
    """(and (or b0000 b0001) (or b0001 b0002) ...) over n Boolean atoms."""
    atoms = [Atom.boolean("b%04d" % i) for i in range(n)]
    node = fdag.and_([fdag.or_([fdag.lit(a), fdag.lit(b)])
                      for a, b in zip(atoms, atoms[1:])])
    return node, AtomSet(atoms)


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _round_trip(art, tmp, stem):
    paths = str(tmp / (stem + ".nnf")), str(tmp / (stem + ".map"))
    write_nnf(art, *paths)
    return read_nnf(*paths)


class TestLongChain:
    """A chain's compiled circuits are about as deep as it has atoms, far
    deeper than the interpreter's recursion limit. Its models are the
    strings with no two adjacent false atoms: Fibonacci many."""

    N = 1100

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("chain")
        fdag = Dag()
        node, alpha = _chain(fdag, self.N)
        obdd = build_tred(fdag, node, alpha, kind=KIND_OBDD)
        part = build_tred(fdag, fdag.and_([node, fdag.lit(alpha[0])]), alpha,
                          kind=KIND_OBDD, manager=obdd.manager)
        arts = {"tred": build_tred(fdag, node, alpha),
                "text": build_text(fdag, node, alpha), "obdd": obdd,
                "part": part}
        loaded = {k: _round_trip(art, tmp, k) for k, art in arts.items()}
        return alpha, arts, loaded

    def test_counting_queries_agree_on_both_backends(self, chain):
        alpha, _, loaded = chain
        first, second = alpha[0], alpha[1]
        for art in (loaded["tred"], loaded["obdd"]):
            assert count_models(art) == _fib(self.N + 2)
            assert count_models_assume(art, [(first, False)]) == \
                _fib(self.N)
            assert is_consistent(art)
            assert entails_clause(art, [(first, True), (second, True)])
            assert not entails_clause(art, [(first, True)])

    def test_validity_and_implicants_on_the_extended_circuit(self, chain):
        alpha, _, loaded = chain
        text = loaded["text"]
        assert not is_valid(text)
        assert is_implicant(text, [(a, True) for a in list(alpha)[1::2]])
        assert not is_implicant(text, [(alpha[0], False), (alpha[1], False)])

    def test_equivalence_and_entailment_between_obdds(self, chain):
        _, arts, loaded = chain
        for obdd, part in ((arts["obdd"], arts["part"]),
                           (loaded["obdd"], loaded["part"])):
            assert sentential_entails(part, obdd)
            assert not sentential_entails(obdd, part)
            assert not equivalent(obdd, part)
            assert equivalent(part, part)

    def test_cli_counts_a_700_atom_circuit(self, tmp_path, capsys):
        fdag = Dag()
        node, alpha = _chain(fdag, 700)
        nnf, mp = str(tmp_path / "c.nnf"), str(tmp_path / "c.map")
        write_nnf(build_tred(fdag, node, alpha), nnf, mp)
        capsys.readouterr()
        assert cli.main(["query", "ct", nnf, mp]) == 0
        assert capsys.readouterr().out == "%d\n" % _fib(702)

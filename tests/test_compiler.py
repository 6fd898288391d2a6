"""Decision-DNNF compilation, smoothing, validation, and the two
lemma-based artifact pipelines, checked against the enumeration oracle."""

import dataclasses
import random

import pytest

from kcmt.compiler import (
    KIND_DDNNF,
    KIND_OBDD,
    MODE_T_EXTENDED,
    MODE_T_REDUCED,
    CompiledArtifact,
    CompileError,
    build_text,
    build_tred,
    compile_ddnnf,
    decision_var,
    partition,
    select_literal,
    smooth,
    validate,
)
from kcmt.formulas import AtomSet, Dag, abstract, atoms_of, refine
from kcmt.generate import InstanceSpec, generate
from kcmt.lemmas import (TARGET_FORMULA, TARGET_NEGATION, TARGET_TOP,
                         enumerate_lemmas)
from kcmt.obdd import ObddError, ObddManager, copy_into
from kcmt.oracle import Oracle
from kcmt.queries import count_models, equivalent, is_valid
from kcmt.theory import LraBackend

from conftest import (
    DEEP,
    X1_GE_1,
    X1_LE_0,
    X2_GE_1,
    X2_LE_0,
    X_EQ_1,
    X_GE_2,
    X_LE_0,
    alpha_phi1,
    alpha_two_clause,
    alternating_chain,
    build_phi1,
    build_phi2,
    build_two_clause,
    implies_chain,
    random_atoms,
    random_formula,
    random_prop,
    shallow_depth,
)


def popcount_over(pdag, node, nvars):
    return bin(pdag.truth_bits(node, list(range(1, nvars + 1)))).count("1")


def fig1_nodes(pdag):
    """The three renderings of (!A1|A2)&(!A2|A3): clause form, a
    decision-DNNF, and its smoothed variant."""
    a1, a2, a3 = pdag.lit(1), pdag.lit(2), pdag.lit(3)
    n1, n2, n3 = pdag.lit(1, False), pdag.lit(2, False), pdag.lit(3, False)
    left = pdag.and_([pdag.or_([n1, a2]), pdag.or_([n2, a3])])
    center = pdag.or_([
        pdag.and_([a1, a2, a3]),
        pdag.and_([n1, pdag.or_([pdag.and_([a2, a3]), n2])]),
    ])
    right = pdag.or_([
        pdag.and_([a1, a2, a3]),
        pdag.and_([n1, pdag.or_([
            pdag.and_([a2, a3]),
            pdag.and_([n2, pdag.or_([a3, n3])]),
        ])]),
    ])
    return left, center, right


class TestPartition:
    def test_disjoint_clauses_split(self):
        p = Dag()
        c1 = p.or_([p.lit(1), p.lit(2)])
        c2 = p.or_([p.lit(3), p.lit(4)])
        assert partition(p, p.and_([c1, c2])) == [c1, c2]

    def test_shared_variable_merges(self):
        p = Dag()
        c1 = p.or_([p.lit(1), p.lit(2)])
        c2 = p.or_([p.lit(2), p.lit(3)])
        d = p.lit(4)
        got = partition(p, p.and_([c1, c2, d]))
        assert got == [p.and_([c1, c2]), d]

    def test_single_clause_is_one_component(self):
        p = Dag()
        clause = p.or_([p.lit(1), p.lit(2)])
        assert partition(p, clause) == [clause]

    def test_components_disjoint_and_conjunction_equivalent(self):
        rng = random.Random(71001)
        for _ in range(40):
            p = Dag()
            nvars = rng.randint(2, 6)
            node = p.to_nnf(random_prop(p, rng, nvars, 3))
            parts = partition(p, node)
            used = set()
            for part in parts:
                keys = p.keys_of(part)
                assert not (used & keys)
                used |= keys
            order = list(range(1, nvars + 1))
            assert p.truth_bits(p.and_(parts), order) == \
                p.truth_bits(node, order)


class TestSelectLiteral:
    def test_tie_breaks_to_lowest_index(self):
        p = Dag()
        assert select_literal(p, p.or_([p.lit(1), p.lit(2)])) == p.lit(1)

    def test_most_frequent_variable_wins(self):
        p = Dag()
        node = p.and_([
            p.or_([p.lit(1), p.lit(2)]),
            p.or_([p.lit(2, False), p.lit(3)]),
            p.or_([p.lit(2), p.lit(3, False)]),
        ])
        assert select_literal(p, node) == p.lit(2)

    def test_negative_literal_maps_to_positive(self):
        p = Dag()
        assert select_literal(p, p.lit(7, False)) == p.lit(7)

    def test_constant_rejected(self):
        p = Dag()
        with pytest.raises(CompileError):
            select_literal(p, p.TRUE)


class TestCompileDdnnf:
    def test_clause_pair_compiles_to_count_four(self):
        p = Dag()
        left, _, _ = fig1_nodes(p)
        out = compile_ddnnf(p, left)
        report = validate(p, out)
        assert report.decomposable and report.deterministic
        assert popcount_over(p, out, 3) == 4
        assert p.truth_bits(out, [1, 2, 3]) == p.truth_bits(left, [1, 2, 3])

    def test_constants_and_literals_pass_through(self):
        p = Dag()
        assert compile_ddnnf(p, p.FALSE) == p.FALSE
        assert compile_ddnnf(p, p.TRUE) == p.TRUE
        assert compile_ddnnf(p, p.lit(3, False)) == p.lit(3, False)

    def test_literal_conjunct_is_asserted(self):
        p = Dag()
        node = p.and_([p.lit(5), p.or_([p.lit(1), p.lit(2)])])
        out = compile_ddnnf(p, node)
        assert p.kind(out) == "&"
        assert p.lit(5) in p.children(out)

    def test_literal_disjunct_is_decided(self):
        p = Dag()
        node = p.or_([p.and_([p.lit(1), p.lit(2)]), p.lit(3, False)])
        out = compile_ddnnf(p, node)
        report = validate(p, out)
        assert report.decomposable and report.deterministic, \
            report.first_violation
        assert p.kind(out) == "|"
        assert decision_var(p, out) == 3
        assert p.lit(3, False) in p.children(out)
        assert p.truth_bits(out, [1, 2, 3]) == p.truth_bits(node, [1, 2, 3])

    def test_non_nnf_rejected(self):
        p = Dag()
        with pytest.raises(CompileError):
            compile_ddnnf(p, p.iff(p.lit(1), p.lit(2)))

    def test_random_corpus_equivalent_and_disciplined(self):
        rng = random.Random(71002)
        for _ in range(60):
            nvars = rng.randint(1, 6)
            p = Dag()
            node = p.to_nnf(random_prop(p, rng, nvars, 3))
            out = compile_ddnnf(p, node)
            report = validate(p, out)
            assert report.decomposable and report.deterministic, \
                report.first_violation
            order = list(range(1, nvars + 1))
            assert p.truth_bits(out, order) == p.truth_bits(node, order)


class TestChainComplement:
    """The complement of a CNF is a DNF, with no literal conjunct to
    assert. Deciding the variable of a literal disjunct keeps the compiled
    complement of the chain (and (or 1 2) (or 2 3) ...) linear in its
    length; a compile without that rule grows about 3x every four atoms."""

    @staticmethod
    def complement_nodes(n):
        p = Dag()
        chain = p.and_([p.or_([p.lit(v), p.lit(v + 1)]) for v in range(1, n)])
        out = compile_ddnnf(p, p.negate(chain))
        report = validate(p, out)
        assert report.decomposable and report.deterministic, \
            report.first_violation
        return len(p.reachable(out))

    def test_ten_more_atoms_add_as_many_nodes(self):
        a, b, c = (self.complement_nodes(n) for n in (10, 20, 30))
        assert c - b <= 1.1 * (b - a)

    def test_doubling_the_chain_at_most_doubles_the_circuit(self):
        assert self.complement_nodes(400) <= \
            2.2 * self.complement_nodes(200)


class TestSmooth:
    def test_padding_matches_hand_built_form(self):
        p = Dag()
        _, center, right = fig1_nodes(p)
        assert smooth(p, center, 3) == right

    def test_idempotent(self):
        p = Dag()
        _, center, _ = fig1_nodes(p)
        once = smooth(p, center, 3)
        assert smooth(p, once, 3) == once

    def test_constants(self):
        p = Dag()
        assert smooth(p, p.FALSE, 2) == p.FALSE
        padded = smooth(p, p.TRUE, 2)
        assert popcount_over(p, padded, 2) == 4

    def test_scope_must_cover_node(self):
        p = Dag()
        with pytest.raises(CompileError):
            smooth(p, p.lit(3), 2)

    def test_scope_forms(self):
        p = Dag()
        node = p.lit(2)
        by_int = smooth(p, node, 3)
        assert p.keys_of(by_int) == frozenset({1, 2, 3})

    def test_random_smoothing_preserves_truth_table(self):
        rng = random.Random(71004)
        for _ in range(40):
            nvars = rng.randint(1, 6)
            p = Dag()
            node = compile_ddnnf(p, p.to_nnf(random_prop(p, rng, nvars, 3)))
            sm = smooth(p, node, nvars)
            report = validate(p, sm, nvars)
            assert report.decomposable and report.deterministic \
                and report.smooth, report.first_violation
            order = list(range(1, nvars + 1))
            assert p.truth_bits(sm, order) == p.truth_bits(node, order)


@pytest.mark.parametrize("chain", [implies_chain, alternating_chain])
class TestDeepInput:
    """Compiling and smoothing an NNF nested DEEP levels gives the answers
    of a shallow equivalent NNF."""

    ORDER = [1, 2, 3]

    def nnf_pair(self, chain):
        p = Dag()
        lits = [p.lit(v) for v in self.ORDER]
        return (p, p.to_nnf(chain(p, DEEP, lits)),
                p.to_nnf(chain(p, shallow_depth(DEEP), lits)))

    def test_compile(self, chain):
        p, deep, shallow = self.nnf_pair(chain)
        want = p.truth_bits(compile_ddnnf(p, shallow), self.ORDER)
        out = compile_ddnnf(p, deep)
        report = validate(p, out)
        assert report.decomposable and report.deterministic
        assert p.truth_bits(out, self.ORDER) == want

    def test_smooth(self, chain):
        p, deep, shallow = self.nnf_pair(chain)
        out = smooth(p, deep, 3)
        assert validate(p, out, 3).smooth
        assert p.truth_bits(out, self.ORDER) == \
            p.truth_bits(smooth(p, shallow, 3), self.ORDER)


class TestValidate:
    def test_clause_form_fails_all_three(self):
        p = Dag()
        left, _, _ = fig1_nodes(p)
        report = validate(p, left, 3)
        assert (report.decomposable, report.deterministic, report.smooth) == \
            (False, False, False)
        assert report.first_violation

    def test_unsmoothed_decision_form(self):
        p = Dag()
        _, center, _ = fig1_nodes(p)
        report = validate(p, center, 3)
        assert (report.decomposable, report.deterministic, report.smooth) == \
            (True, True, False)

    def test_smoothed_form_passes_all_three(self):
        p = Dag()
        _, _, right = fig1_nodes(p)
        report = validate(p, right, 3)
        assert (report.decomposable, report.deterministic, report.smooth) == \
            (True, True, True)
        assert report.first_violation is None

    def test_root_scope_check(self):
        p = Dag()
        _, _, right = fig1_nodes(p)
        report = validate(p, right, 4)
        assert not report.smooth and "root" in report.first_violation

    def test_shared_atom_conjunction_not_decomposable(self):
        p = Dag()
        node = p.and_([p.lit(1), p.or_([p.lit(1), p.lit(2)])])
        assert not validate(p, node).decomposable

    def test_non_nnf_rejected(self):
        p = Dag()
        with pytest.raises(CompileError):
            validate(p, p.implies(p.lit(1), p.lit(2)))


class TestBuildTred:
    def test_worked_disjunction_is_exclusive_or(self, fdag):
        art = build_tred(fdag, build_phi1(fdag))
        d = art.dag
        assert art.root == d.or_([
            d.and_([d.lit(1), d.lit(2, False)]),
            d.and_([d.lit(1, False), d.lit(2)]),
        ])
        assert art.mode == MODE_T_REDUCED
        assert art.lemmas.target == TARGET_FORMULA
        assert popcount_over(d, art.root, 2) == 2

    def test_worked_pair_same_circuit(self, fdag):
        a1 = build_tred(fdag, build_phi1(fdag))
        a2 = build_tred(fdag, build_phi2(fdag))
        assert a1.dag.structurally_equal(a1.root, a2.dag, a2.root)

    def test_inconsistent_conjunction_compiles_to_false(self, fdag):
        node = fdag.and_([fdag.lit(X_LE_0), fdag.lit(X_EQ_1)])
        art = build_tred(fdag, node)
        assert art.root == art.dag.FALSE

    def test_regression_formula_counts_two(self, fdag):
        node = build_two_clause(fdag)
        alpha = alpha_two_clause()
        naive_itta = Oracle().ctta_itta(fdag, node, alpha).itta
        assert naive_itta, "plain compilation admits inconsistent models"
        art = build_tred(fdag, node, alpha)
        assert popcount_over(art.dag, art.root, 4) == 2
        assert len(art.lemmas) == 2

    def test_wider_atom_set_counts_against_oracle(self, fdag):
        node = build_phi1(fdag)
        alpha = AtomSet([X_LE_0, X_EQ_1, X_GE_2])
        art = build_tred(fdag, node, alpha)
        assert popcount_over(art.dag, art.root, 3) == \
            len(Oracle().ctta_itta(fdag, node, alpha).ctta)

    def test_smooth_output_flag(self, fdag):
        art = build_tred(fdag, build_phi1(fdag))
        art.root = art.smooth_root()
        report = validate(art.dag, art.root, art.nvars)
        assert report.smooth
        assert popcount_over(art.dag, art.root, 2) == 2

    def test_top_scope_keeps_the_count(self, fdag):
        node = build_phi1(fdag)
        by_formula = build_tred(fdag, node)
        by_top = build_tred(fdag, node, lemmas=enumerate_lemmas(
            fdag, node, atoms_of(fdag, node), TARGET_TOP))
        assert popcount_over(by_formula.dag, by_formula.root, 2) == \
            popcount_over(by_top.dag, by_top.root, 2)


class TestBuildText:
    def test_worked_disjunction_unchanged(self, fdag):
        node = build_phi1(fdag)
        art = build_text(fdag, node)
        assert art.mode == MODE_T_EXTENDED
        assert art.lemmas.target == TARGET_NEGATION
        assert len(art.lemmas) == 0
        prop = abstract(fdag, node, art.alpha, art.dag)
        # The circuit stores the complement of the model set.
        assert ~art.dag.truth_bits(art.root, [1, 2]) & 0b1111 == \
            art.dag.truth_bits(prop, [1, 2])

    def test_valid_formula_extends_to_tautology(self, fdag):
        node = fdag.or_([fdag.lit(X_LE_0, False), fdag.lit(X_EQ_1, False)])
        art = build_text(fdag, node)
        # The complement of the tautology has no model.
        assert popcount_over(art.dag, art.root, 2) == 0

    def test_bottom_extends_to_blocked_assignment(self, fdag):
        art = build_text(fdag, fdag.FALSE, alpha_phi1())
        # The complement keeps the three consistent assignments.
        assert popcount_over(art.dag, art.root, 2) == 3
        assert not art.dag.evaluate(art.root, {1: True, 2: True})


class TestPrecomputedLemmas:
    def test_reused_set_builds_the_same_artifact(self, fdag):
        node = build_two_clause(fdag)
        alpha = atoms_of(fdag, node)
        lemmas = enumerate_lemmas(fdag, node, alpha)
        reused = build_tred(fdag, node, alpha, lemmas=lemmas)
        fresh = build_tred(fdag, node, alpha)
        order = list(range(1, len(alpha) + 1))
        assert reused.dag.truth_bits(reused.root, order) == \
            fresh.dag.truth_bits(fresh.root, order)
        assert reused.lemmas is lemmas

    def test_wrong_target_refused(self, fdag):
        node = build_phi1(fdag)
        alpha = atoms_of(fdag, node)
        lemmas = enumerate_lemmas(fdag, node, alpha)
        with pytest.raises(CompileError, match="forNegation"):
            build_text(fdag, node, alpha, lemmas=lemmas)

    def test_wrong_alpha_refused(self, fdag):
        node = build_phi1(fdag)
        alpha = atoms_of(fdag, node)
        lemmas = enumerate_lemmas(fdag, node, alpha)
        widened = AtomSet(list(alpha) + [X_GE_2])
        with pytest.raises(CompileError, match="different atom set"):
            build_tred(fdag, node, widened, lemmas=lemmas)

    def test_top_label_walks_top(self):
        # A set labelled top must rule out every inconsistent assignment,
        # not only those of the formula, or VA answers false on a valid
        # formula.
        fdag = Dag()
        node, alpha = generate(fdag, InstanceSpec(
            num_lra_atoms=6, num_rational_vars=2, dag_depth=3, seed=8))
        lemmas = enumerate_lemmas(fdag, node, alpha, label=TARGET_TOP)
        art = build_text(fdag, node, alpha, lemmas=lemmas)
        assert is_valid(art) == Oracle().query("va", fdag, node, alpha)
        assert lemmas.target == TARGET_TOP and len(lemmas) == 6


class TestObddArtifacts:
    def test_worked_disjunction_counts_two(self, fdag):
        art = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        assert art.kind == KIND_OBDD
        assert art.manager.satcount(art.root.node) == 2

    def test_canonicity_across_shared_manager(self, fdag):
        manager = ObddManager((1, 2))
        a1 = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD,
                        manager=manager)
        a2 = build_tred(fdag, build_phi2(fdag), kind=KIND_OBDD,
                        manager=manager)
        assert a1.root == a2.root

    def test_bottom_is_false_terminal(self, fdag):
        art = build_tred(fdag, fdag.FALSE, alpha_phi1(), kind=KIND_OBDD)
        assert art.root.node == ObddManager.FALSE

    def test_extended_mode_dispatch(self, fdag):
        art = build_text(fdag, build_phi1(fdag), kind=KIND_OBDD)
        assert art.mode == MODE_T_EXTENDED
        # The complement holds the one model of 4 the extended form lacks.
        assert art.manager.satcount(art.root.node) == 1

    def test_order_validation(self, fdag):
        node = build_phi1(fdag)
        art = build_tred(fdag, node, kind=KIND_OBDD,
                         manager=ObddManager((2, 1)))
        assert art.order == (2, 1)
        with pytest.raises(CompileError, match="order has 1 variables"):
            build_tred(fdag, node, kind=KIND_OBDD, manager=ObddManager((1,)))

    def test_ddnnf_build_takes_no_manager(self, fdag):
        with pytest.raises(CompileError, match="obdd kind only"):
            build_tred(fdag, build_phi1(fdag), manager=ObddManager((1, 2)))

    def test_kind_is_read_from_the_root(self, fdag):
        art = build_tred(fdag, build_phi1(fdag))
        with pytest.raises(TypeError):
            dataclasses.replace(art, kind=KIND_OBDD)
        assert art.kind == KIND_DDNNF

    def test_manager_is_the_roots_own(self):
        fdag = Dag()
        node, alpha = generate(fdag, InstanceSpec(
            num_lra_atoms=6, num_rational_vars=2, dag_depth=3, seed=5))
        art = build_tred(fdag, node, alpha, kind=KIND_OBDD)
        assert art.manager is art.root.manager
        assert art.order == art.manager.order
        shared = ObddManager(art.order)
        copied = copy_into(art.root, shared)
        # The old manager's handles name other functions than the copy's.
        with pytest.raises(CompileError, match="root's manager"):
            dataclasses.replace(art, root=copied)
        moved = dataclasses.replace(art, root=copied, manager=shared)
        assert count_models(moved) == count_models(art) == 9
        assert equivalent(moved, build_tred(fdag, node, alpha, kind=KIND_OBDD,
                                            manager=shared))
        filled = CompiledArtifact(art.mode, art.alpha, art.lemmas, copied)
        assert filled.manager is shared and filled.order == art.order
        assert build_tred(fdag, node, alpha).order is None

    def test_ddnnf_artifact_takes_no_manager(self, fdag):
        art = build_tred(fdag, build_phi1(fdag))
        with pytest.raises(CompileError, match="root's manager"):
            dataclasses.replace(art, manager=ObddManager((2, 1)))

    @pytest.mark.parametrize("order", [(1, 1), (1, 2, 2)],
                             ids=["1-1", "1-2-2"])
    def test_repeated_order_index_is_refused(self, order):
        with pytest.raises(ObddError, match="permutation"):
            ObddManager(order)


class TestInputUnwritten:
    """The pipelines read the caller's formula arena and add no node to it."""

    SPEC = InstanceSpec(num_lra_atoms=6, num_rational_vars=2, dag_depth=3,
                        seed=5)

    @pytest.mark.parametrize("build", [
        build_tred, build_text,
        lambda *a: build_tred(*a, kind=KIND_OBDD),
        lambda *a: build_text(*a, kind=KIND_OBDD),
    ], ids=["tred", "text", "obdd-tred", "obdd-text"])
    def test_formula_arena_is_unchanged(self, fdag, build):
        node, alpha = generate(fdag, self.SPEC)
        size = len(fdag)
        build(fdag, node, alpha)
        assert len(fdag) == size

    def test_lemmas_are_those_of_the_formula_and_its_negation(self):
        for seed in range(20):
            fdag = Dag()
            node, alpha = generate(fdag, InstanceSpec(
                num_bool_atoms=seed % 3, num_lra_atoms=3 + seed % 6,
                num_rational_vars=1 + seed % 3, dag_depth=2 + seed % 3,
                seed=seed))
            tred = build_tred(fdag, node, alpha)
            text = build_text(fdag, node, alpha)
            assert tred.lemmas == enumerate_lemmas(fdag, node, alpha)
            assert text.lemmas == enumerate_lemmas(
                fdag, fdag.negate(node), alpha, label=TARGET_NEGATION)


class TestTheoremSuite:
    """Oracle-checked pipeline guarantees on a mixed random corpus."""

    def _corpus(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            fdag = Dag()
            n_lra = rng.randint(1, 5)
            n_bool = rng.randint(0, 2)
            atoms = random_atoms(rng, n_bool, n_lra, rng.randint(1, 3))
            node = random_formula(fdag, rng, atoms, depth=rng.randint(1, 3))
            alpha = atoms_of(fdag, node)
            if len(alpha) == 0:
                alpha = AtomSet(atoms)
            yield rng, fdag, node, alpha

    def test_reduction_and_extension_theorems(self):
        oracle = Oracle()
        for rng, fdag, node, alpha in self._corpus(71005, 30):
            tred = build_tred(fdag, node, alpha)
            text = build_text(fdag, node, alpha)
            order = list(range(1, len(alpha) + 1))

            for art in (tred, text):
                report = validate(art.dag, art.root)
                assert report.decomposable and report.deterministic, \
                    report.first_violation

            tred_back = refine(tred.dag, tred.root, alpha, fdag)
            # The text artifact stores the complement of its model set.
            text_back = fdag.not_(refine(text.dag, text.root, alpha, fdag))
            assert oracle.check_treduced(fdag, tred_back, alpha)
            assert oracle.check_textended(fdag, text_back, alpha)
            assert oracle.query("eq", fdag, tred_back, alpha, node)
            assert oracle.query("eq", fdag, text_back, alpha, node)

            prop = abstract(fdag, node, alpha, tred.dag)
            mask = (1 << (1 << len(alpha))) - 1
            tred_bits = tred.dag.truth_bits(tred.root, order)
            prop_bits = tred.dag.truth_bits(prop, order)
            assert tred_bits & ~prop_bits & mask == 0

            prop2 = abstract(fdag, node, alpha, text.dag)
            text_bits = ~text.dag.truth_bits(text.root, order) & mask
            prop2_bits = text.dag.truth_bits(prop2, order)
            assert prop2_bits & ~text_bits & mask == 0

    def test_residual_transformation_lemmas(self):
        oracle = Oracle()
        backend = LraBackend()
        checked = 0
        for rng, fdag, node, alpha in self._corpus(71006, 25):
            tred = build_tred(fdag, node, alpha, lemmas=enumerate_lemmas(
                fdag, node, alpha, backend=backend))
            text = build_text(fdag, node, alpha, lemmas=enumerate_lemmas(
                fdag, fdag.negate(node), alpha, TARGET_NEGATION, backend))
            idx = rng.randint(1, len(alpha))
            pol = rng.random() < 0.5
            atom = alpha.atom_at(idx)
            lit = fdag.lit(atom, pol)

            res = refine(tred.dag, tred.dag.residual(tred.root, {idx: pol}),
                         alpha, fdag)
            assert oracle.check_treduced(fdag, fdag.and_([res, lit]), alpha)

            res2 = fdag.not_(refine(
                text.dag, text.dag.residual(text.root, {idx: pol}),
                alpha, fdag))
            assert oracle.check_textended(
                fdag, fdag.or_([fdag.lit(atom, not pol), res2]), alpha)
            checked += 1
        assert checked == 25

    def test_top_scope_pipelines_agree_with_oracle(self):
        oracle = Oracle()
        for rng, fdag, node, alpha in self._corpus(71007, 10):
            top = enumerate_lemmas(fdag, node, alpha, TARGET_TOP)
            tred = build_tred(fdag, node, alpha, lemmas=top)
            back = refine(tred.dag, tred.root, alpha, fdag)
            assert oracle.check_treduced(fdag, back, alpha)
            assert oracle.query("eq", fdag, back, alpha, node)
            text = build_text(fdag, node, alpha, lemmas=top)
            back2 = fdag.not_(refine(text.dag, text.root, alpha, fdag))
            assert oracle.check_textended(fdag, back2, alpha)
            assert oracle.query("eq", fdag, back2, alpha, node)

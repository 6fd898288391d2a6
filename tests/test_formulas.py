"""Atom normalization, hash-consed DAG construction, NNF, residuals,
abstraction/refinement. Expected values are hand-checked truth tables or
fixed normal forms."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from kcmt.formulas import (
    AND,
    FALSE_KIND,
    IFF,
    LIT,
    OR,
    TRUE_KIND,
    AbstractionError,
    Assignment,
    Atom,
    AtomError,
    AtomSet,
    Dag,
    abstract,
    atoms_of,
    refine,
)
from kcmt.nnf_io import _atom_from_string

from conftest import (
    DEEP,
    X_EQ_1,
    X_GE_2,
    X_LE_0,
    alpha_phi1,
    alternating_chain,
    build_phi1,
    build_phi2,
    implies_chain,
    random_atoms,
    random_formula,
    shallow_depth,
)


# -- atoms -------------------------------------------------------------------


class TestAtomNormalization:
    def test_ge_rewrites_to_le_with_negated_term(self):
        a = Atom.linear({"x": 1}, ">=", 1)
        assert a.coeffs == (("x", -1),)
        assert a.rel == "<="
        assert a.const == Fraction(-1)
        assert str(a) == "-x <= -1"

    def test_gt_rewrites_to_lt(self):
        a = Atom.linear({"x": 1}, ">", 0)
        assert a.coeffs == (("x", -1),)
        assert a.rel == "<"
        assert a.const == 0

    def test_coefficients_scaled_to_coprime_integers(self):
        a = Atom.linear({"x": 2, "y": -4}, "<=", 3)
        assert a.coeffs == (("x", 1), ("y", -2))
        assert a.const == Fraction(3, 2)
        assert str(a) == "x - 2*y <= 3/2"

    def test_rational_coefficients_cleared(self):
        a = Atom.linear({"x": Fraction(1, 2), "y": Fraction(1, 3)}, "<", 1)
        assert a.coeffs == (("x", 3), ("y", 2))
        assert a.const == 6
        assert str(a) == "3*x + 2*y < 6"

    def test_equality_leading_coefficient_positive(self):
        a = Atom.linear({"x": -1, "y": 1}, "=", 5)
        assert a.coeffs == (("x", 1), ("y", -1))
        assert a.const == -5

    def test_inequality_sign_not_flipped(self):
        # Only = atoms get the sign choice; -x <= 1 and x >= -1 differ from
        # x <= ... and must stay as-is.
        a = Atom.linear({"x": -1}, "<=", 1)
        assert a.coeffs == (("x", -1),)
        assert a.const == 1

    def test_zero_coefficients_dropped(self):
        a = Atom.linear({"x": 0, "y": 1}, "<=", 2)
        assert a.coeffs == (("y", 1),)

    def test_same_constraint_same_atom(self):
        assert Atom.linear({"x": 2, "y": 2}, "<=", 2) == Atom.linear(
            {"x": 1, "y": 1}, "<=", 1)
        assert Atom.linear({"x": -1}, "<=", -1) == Atom.linear({"x": 1}, ">=", 1)
        assert Atom.linear({"x": 1}, "=", 1) == Atom.linear({"x": -3}, "=", -3)

    def test_distinct_constraints_distinct_atoms(self):
        assert Atom.linear({"x": 1}, "<=", 0) != Atom.linear({"x": 1}, "<", 0)
        assert Atom.linear({"x": 1}, "<=", 0) != Atom.linear({"x": 1}, "<=", 1)

    def test_degenerate_constraint_rejected(self):
        with pytest.raises(AtomError):
            Atom.linear({"x": 0}, "<=", 1)
        with pytest.raises(AtomError):
            Atom.linear({}, "=", 0)

    def test_unknown_relation_rejected(self):
        with pytest.raises(AtomError):
            Atom.linear({"x": 1}, "!=", 0)

    def test_boolean_atom(self):
        b = Atom.boolean("raining")
        assert b.kind == "bool"
        assert str(b) == "raining"
        assert b.variables() == ()
        with pytest.raises(AtomError):
            Atom.boolean("")

    def test_variables_sorted(self):
        a = Atom.linear({"z": 1, "a": 2}, "<=", 0)
        assert a.variables() == ("a", "z")

    def test_constant_stays_rational(self):
        # A lone coefficient always reduces to +-1; the constant absorbs it.
        a = Atom.linear({"x": 3}, "<=", 1)
        assert a.coeffs == (("x", 1),)
        assert a.const == Fraction(1, 3)
        assert str(a) == "x <= 1/3"


class TestAtomContainers:
    def test_atom_set_order_and_dedup(self):
        s = AtomSet([X_LE_0, X_EQ_1, X_LE_0])
        assert len(s) == 2
        assert list(s) == [X_LE_0, X_EQ_1]
        assert s.index_of(X_EQ_1) == 2
        assert X_GE_2 not in s

    def test_atom_set_union_keeps_left_order(self):
        s = AtomSet([X_LE_0]).union(AtomSet([X_EQ_1, X_LE_0, X_GE_2]))
        assert list(s) == [X_LE_0, X_EQ_1, X_GE_2]

    def test_atom_set_numbers_atoms_one_based(self):
        alpha = alpha_phi1()
        assert alpha.index_of(X_LE_0) == 1
        assert alpha.index_of(X_EQ_1) == 2
        assert alpha.atom_at(1) == X_LE_0
        assert alpha.atom_at(2) == X_EQ_1
        assert len(alpha) == 2
        # alpha[i] is the 0-based sequence lookup.
        mixed = AtomSet([X_GE_2, X_LE_0, X_EQ_1, X_LE_0])
        assert [mixed.index_of(a) for a in mixed] == [1, 2, 3]
        for atom in mixed:
            assert mixed[mixed.index_of(atom) - 1] is atom

    def test_atom_set_numbering_misses_raise(self):
        alpha = alpha_phi1()
        with pytest.raises(AbstractionError):
            alpha.index_of(X_GE_2)
        # 0 and -1 would wrap as list indices.
        for index in (0, -1, len(alpha) + 1):
            with pytest.raises(AbstractionError):
                alpha.atom_at(index)

    def test_assignment_basics(self):
        eta = Assignment({X_LE_0: True, X_EQ_1: False})
        assert eta.value(X_LE_0) is True
        assert eta.value(X_EQ_1) is False
        assert eta.is_total_over(alpha_phi1())
        assert not eta.is_total_over(AtomSet([X_LE_0, X_EQ_1, X_GE_2]))
        assert str(eta) == "x <= 0 & !x = 1"

    def test_assignment_equality_and_hash_ignore_insertion_order(self):
        e1 = Assignment({X_LE_0: True, X_EQ_1: False})
        e2 = Assignment([(X_EQ_1, False), (X_LE_0, True)])
        assert e1 == e2
        assert hash(e1) == hash(e2)
        assert e1 in {e2}


class TestNormalRows:
    """The `Atom` constructor takes a row only as `Atom.linear` would
    leave it, so every way of making an atom yields a normal form."""

    @staticmethod
    def row(coeffs, rel, const):
        return Atom(kind="lra", coeffs=tuple(coeffs.items()), rel=rel,
                    const=Fraction(const))

    @pytest.mark.parametrize("coeffs,rel,const", [
        ({"x": 1}, "<=", 0),
        ({"x": 2, "y": -3}, "<", Fraction(7, 2)),
        ({"a": 1, "b": -1, "c": 5}, "=", -2),
        ({"x": -1}, "<=", Fraction(-1, 3)),
    ])
    def test_normal_rows_are_taken_as_given(self, coeffs, rel, const):
        atom = self.row(coeffs, rel, const)
        assert atom == Atom.linear(coeffs, rel, const)
        assert hash(atom) == hash(Atom.linear(coeffs, rel, const))

    @pytest.mark.parametrize("coeffs,rel", [
        ({"y": 1, "x": 1}, "<="),   # names out of order
        ({"x": 2, "y": 4}, "<"),    # not coprime
        ({"x": 0, "y": 1}, "<="),   # a zero coefficient
        ({"x": -1, "y": 1}, "="),   # negative lead on =
        ({"x": 1}, ">="),           # a relation linear rewrites
    ])
    def test_other_rows_are_refused(self, coeffs, rel):
        with pytest.raises(AtomError):
            self.row(coeffs, rel, 1)

    def test_all_zero_row_is_degenerate_as_in_linear(self):
        with pytest.raises(AtomError) as built:
            self.row({"x": 0}, "<=", Fraction(1, 2))
        with pytest.raises(AtomError) as linear:
            Atom.linear({"x": 0}, "<=", Fraction(1, 2))
        assert str(built.value) == str(linear.value)
        assert str(built.value).startswith("degenerate atom")

    @pytest.mark.parametrize("make", [
        lambda: Atom.linear({"": 1}, "<=", 0),
        lambda: Atom.linear({"x": 1, "": 2}, "<", 1),
        lambda: Atom(kind="real", coeffs=(("x", 1),), rel="<=",
                     const=Fraction(0)),
        lambda: Atom(kind="bool", name="p", coeffs=(("x", 1),), rel="<="),
        lambda: Atom(kind="bool", name="p", rel="<="),
        lambda: Atom(kind="lra", coeffs=(("x", Fraction(1)),), rel="<=",
                     const=Fraction(0)),
        lambda: Atom(kind="lra", coeffs=(("x", 1),), rel="<=", const=0.5),
        lambda: Atom(kind="lra", name="p", coeffs=(("x", 1),), rel="<=",
                     const=Fraction(0)),
    ], ids=["empty name", "empty second name", "unknown kind",
            "Boolean with a row", "Boolean with a relation",
            "Fraction coefficient", "float constant", "named row"])
    def test_constructor_refuses_what_is_not_a_normal_form(self, make):
        with pytest.raises(AtomError):
            make()

    def test_names_the_smtlib_parser_refuses_are_legal(self):
        # Only the SMT-LIB parser restricts names; an atom needs them
        # non-empty and ascending.
        atom = Atom.linear({"-w": 1, "p*q": 2, "2*v": -3}, "<", 1)
        assert atom.variables() == ("-w", "2*v", "p*q")
        assert self.row(dict(atom.coeffs), "<", 1) == atom

    def test_replace_and_unpickling_are_checked(self):
        a = Atom.linear({"x": 1}, "<=", 0)
        with pytest.raises(AtomError):
            dataclasses.replace(a, coeffs=(("x", 2),))
        with pytest.raises(AtomError):
            dataclasses.replace(Atom.boolean("p"), name="")
        # An atom forced out of normal form behind the constructor's back
        # cannot be pickled back in.
        object.__setattr__(a, "coeffs", (("x", 2),))
        blob = pickle.dumps(a)
        with pytest.raises(AtomError):
            pickle.loads(blob)


class TestAtomHash:
    """Atoms cache their hash; it must still follow equality."""

    def test_equal_atoms_built_differently_hash_equal(self):
        a = Atom.linear({"x": 1, "y": -2}, "<=", Fraction(3, 2))
        scaled = Atom.linear({"y": 8, "x": -4}, ">=", -6)
        rational = Atom.linear({"x": Fraction(1, 3), "y": Fraction(-2, 3)},
                               "<=", Fraction(1, 2))
        parsed = _atom_from_string("x - 2*y <= 3/2")
        for b in (scaled, rational, parsed):
            assert b == a and hash(b) == hash(a)
        assert len({a, scaled, rational, parsed}) == 1
        assert Atom.boolean("p") in {_atom_from_string("p")}

    def test_replace_recomputes_the_hash(self):
        a = Atom.linear({"x": 1}, "<=", 0)
        b = dataclasses.replace(a, rel="<")
        assert b == Atom.linear({"x": 1}, "<", 0)
        assert hash(b) == hash(Atom.linear({"x": 1}, "<", 0))
        assert dataclasses.replace(b, rel="<=") in {a}

    def test_sort_key_is_cached_and_follows_replace(self):
        a = Atom.linear({"x": 2, "y": -1}, "<", Fraction(-1, 3))
        assert a.sort_key() == (1, "<", "-1/3", (("x", 2), ("y", -1)))
        assert a.sort_key() is a.sort_key()
        assert Atom.boolean("p").sort_key() == (0, "p", "", ())
        b = dataclasses.replace(a, rel="=")
        assert b.sort_key() == (1, "=", "-1/3", (("x", 2), ("y", -1)))

    def test_unpickled_atom_hashes_as_built_here(self):
        # String hashes differ between processes, so an atom pickled
        # elsewhere must not bring its hash along.
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        code = ("import pickle, sys\n"
                "from kcmt.formulas import Atom\n"
                "sys.stdout.write(pickle.dumps(Atom.linear("
                "{'x': 1, 'y': 2}, '<', 3)).hex())\n")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules[Atom.__module__].__file__)))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        atom = pickle.loads(bytes.fromhex(out.stdout))
        here = Atom.linear({"x": 1, "y": 2}, "<", 3)
        assert atom == here and hash(atom) == hash(here)
        assert atom in {here}


# -- DAG construction --------------------------------------------------------


class TestDagConstruction:
    def test_interning_gives_identical_handles(self, fdag):
        assert build_phi1(fdag) == build_phi1(fdag)
        assert fdag.lit(X_LE_0) == fdag.lit(X_LE_0)
        assert fdag.lit(X_LE_0) != fdag.lit(X_LE_0, False)

    def test_and_flattens_and_dedups(self, fdag):
        a, b, c = (fdag.lit(x) for x in (X_LE_0, X_EQ_1, X_GE_2))
        assert fdag.and_([fdag.and_([a, b]), c]) == fdag.and_([a, b, c])
        assert fdag.and_([a, a, b]) == fdag.and_([a, b])
        assert fdag.children(fdag.and_([a, b, c])) == (a, b, c)

    def test_or_flattens_and_dedups(self, fdag):
        a, b, c = (fdag.lit(x) for x in (X_LE_0, X_EQ_1, X_GE_2))
        assert fdag.or_([a, fdag.or_([b, c])]) == fdag.or_([a, b, c])
        assert fdag.or_([b, b]) == b

    def test_child_order_is_significant(self, fdag):
        a, b = fdag.lit(X_LE_0), fdag.lit(X_EQ_1)
        assert fdag.and_([a, b]) != fdag.and_([b, a])
        assert fdag.children(fdag.and_([b, a])) == (b, a)

    def test_flat_distinct_children_are_interned_as_given(self):
        pdag = Dag()
        a, b, c = pdag.lit(1), pdag.lit(2), pdag.lit(3, False)
        ab, a_or_b = pdag.and_([a, b]), pdag.or_([a, b])
        for op, make, other in ((AND, pdag.and_, a_or_b),
                                (OR, pdag.or_, ab)):
            for kids in ((a, b), (b, a), (a, b, c), (c, other)):
                node = make(iter(kids))
                assert node == make(kids)
                assert pdag.kind(node) == op
                assert pdag.children(node) == kids
        assert pdag.children(pdag.or_([ab, c])) == (ab, c)

    def test_constant_folding(self, fdag):
        a = fdag.lit(X_LE_0)
        assert fdag.and_([a, fdag.TRUE]) == a
        assert fdag.and_([a, fdag.FALSE]) == fdag.FALSE
        assert fdag.or_([a, fdag.FALSE]) == a
        assert fdag.or_([a, fdag.TRUE]) == fdag.TRUE
        assert fdag.and_([]) == fdag.TRUE
        assert fdag.or_([]) == fdag.FALSE

    def test_not_folds(self, fdag):
        a = fdag.lit(X_LE_0)
        assert fdag.not_(fdag.TRUE) == fdag.FALSE
        assert fdag.not_(fdag.FALSE) == fdag.TRUE
        assert fdag.not_(a) == fdag.lit(X_LE_0, False)
        conj = fdag.and_([a, fdag.lit(X_EQ_1)])
        assert fdag.not_(fdag.not_(conj)) == conj

    def test_iff_implies_folds(self, fdag):
        a, b = fdag.lit(X_LE_0), fdag.lit(X_EQ_1)
        assert fdag.iff(a, a) == fdag.TRUE
        assert fdag.iff(a, fdag.TRUE) == a
        assert fdag.iff(fdag.FALSE, b) == fdag.not_(b)
        assert fdag.implies(a, a) == fdag.TRUE
        assert fdag.implies(fdag.FALSE, b) == fdag.TRUE
        assert fdag.implies(a, fdag.FALSE) == fdag.not_(a)
        assert fdag.implies(fdag.TRUE, b) == b

    def test_kind_children_leaf_accessors(self, fdag):
        phi2 = build_phi2(fdag)
        assert fdag.kind(phi2) == IFF
        assert fdag.kind(fdag.TRUE) == TRUE_KIND
        assert fdag.kind(fdag.FALSE) == FALSE_KIND
        lit = fdag.lit(X_LE_0, False)
        assert fdag.kind(lit) == LIT
        assert fdag.leaf(lit) == (X_LE_0, False)
        with pytest.raises(ValueError):
            fdag.leaf(phi2)

    def test_keys_of_with_shared_children(self, fdag):
        # b is both a grandchild (through the OR) and a direct child: the
        # traversal must finish children before parents in either role.
        b, c = fdag.lit(X_EQ_1), fdag.lit(X_GE_2)
        inner = fdag.or_([b, c])
        root = fdag.and_([inner, fdag.not_(b)])
        assert fdag.keys_of(root) == frozenset({X_EQ_1, X_GE_2})
        assert fdag.keys_of(inner) == frozenset({X_EQ_1, X_GE_2})
        assert fdag.keys_of(fdag.TRUE) == frozenset()


# -- NNF, residuals, evaluation ----------------------------------------------


def _all_assignments(atoms):
    for b in range(1 << len(atoms)):
        yield {a: bool((b >> j) & 1) for j, a in enumerate(atoms)}


class TestNnf:
    def test_is_nnf_detects_connectives(self, fdag):
        assert not fdag.is_nnf(build_phi2(fdag))
        assert fdag.is_nnf(build_phi1(fdag))
        assert fdag.is_nnf(fdag.to_nnf(build_phi2(fdag)))

    def test_is_nnf_visits_each_shared_node_once(self, monkeypatch):
        # Each of 18 levels uses the one below twice, as a shared `let`
        # binding does: 60 nodes, but 2^18 paths down to the bottom level.
        dag = Dag()
        p, not_q = dag.lit("p"), dag.lit("q", False)
        node = dag.or_([p, dag.lit("q")])
        for _ in range(18):
            node = dag.or_([dag.and_([node, p]), dag.and_([node, not_q])])
        above_iff = node
        for _ in range(18):
            above_iff = dag.or_([dag.and_([above_iff, p]),
                                 dag.and_([above_iff, dag.iff(p, not_q)])])
        calls = []
        children = Dag.children

        def counted(self, n):
            calls.append(n)
            if len(calls) > len(self):
                raise AssertionError("a shared node was visited twice")
            return children(self, n)

        monkeypatch.setattr(Dag, "children", counted)
        assert dag.is_nnf(node)
        calls.clear()
        assert not dag.is_nnf(above_iff)

    def test_negate_or_is_and_of_negations(self, fdag):
        phi1 = build_phi1(fdag)
        expected = fdag.and_([fdag.lit(X_LE_0, False), fdag.lit(X_EQ_1, False)])
        assert fdag.negate(phi1) == expected

    def test_phi2_nnf_truth_table(self, fdag):
        # not(x<=0) iff (x=1) holds exactly on TF' := {LE=F,EQ=T} and {LE=T,EQ=F}.
        phi2 = build_phi2(fdag)
        nnf = fdag.to_nnf(phi2)
        for vals in _all_assignments([X_LE_0, X_EQ_1]):
            expected = (not vals[X_LE_0]) == vals[X_EQ_1]
            assert fdag.evaluate(phi2, vals) == expected
            assert fdag.evaluate(nnf, vals) == expected

    def test_random_nnf_and_negation_preserve_truth_tables(self):
        rng = random.Random(1201)
        for _ in range(60):
            dag = Dag()
            atoms = random_atoms(rng, rng.randint(0, 2), rng.randint(1, 4), 2)
            node = random_formula(dag, rng, atoms, depth=3)
            order = list(atoms_of(dag, node)) or [atoms[0]]
            full = (1 << (1 << len(order))) - 1
            bits = dag.truth_bits(node, order)
            nnf = dag.to_nnf(node)
            assert dag.is_nnf(nnf)
            assert dag.truth_bits(nnf, order) == bits
            assert dag.truth_bits(dag.negate(node), order) == full & ~bits


class TestResidual:
    def test_residual_on_worked_disjunction(self, fdag):
        phi1 = build_phi1(fdag)
        assert fdag.residual(phi1, {X_LE_0: False}) == fdag.lit(X_EQ_1)
        assert fdag.residual(phi1, {X_LE_0: True}) == fdag.TRUE
        assert fdag.residual(phi1, {X_LE_0: False, X_EQ_1: False}) == fdag.FALSE

    def test_residual_through_iff(self, fdag):
        phi2 = build_phi2(fdag)
        assert fdag.residual(phi2, {X_LE_0: False}) == fdag.lit(X_EQ_1)
        assert fdag.residual(phi2, {X_LE_0: True}) == fdag.lit(X_EQ_1, False)

    def test_residual_empty_assignment_is_identity(self, fdag):
        phi2 = build_phi2(fdag)
        assert fdag.residual(phi2, {}) == phi2

    def test_residual_drops_assigned_keys_and_chains(self):
        rng = random.Random(77)
        for _ in range(40):
            dag = Dag()
            atoms = random_atoms(rng, 1, 3, 2)
            node = random_formula(dag, rng, atoms, depth=3)
            mu = {a: rng.random() < 0.5 for a in atoms[:2]}
            lone = {atoms[2]: rng.random() < 0.5}
            step = dag.residual(dag.residual(node, mu), lone)
            joint = dag.residual(node, {**mu, **lone})
            assert step == joint
            assert not dag.keys_of(joint) & (set(mu) | set(lone))

    def test_memoised_residuals_match_fresh_ones(self):
        # Residual calls along random decision paths, as lemma enumeration
        # and compile_ddnnf make them, plus some multi-key assignments. The
        # paths share sub-DAGs, so later calls are answered from the memo.
        rng = random.Random(2718)
        for _ in range(25):
            dag = Dag()
            atoms = random_atoms(rng, 1, 5, 3)
            node = random_formula(dag, rng, atoms, depth=4)
            calls = []
            for _ in range(6):
                n = node
                for atom in rng.sample(atoms, len(atoms)):
                    mu = {atom: rng.random() < 0.5}
                    calls.append((n, mu))
                    n = dag.residual(n, mu)
                calls.append((node, {a: rng.random() < 0.5
                                     for a in rng.sample(atoms, 2)}))
            warm = [dag.residual(n, mu) for n, mu in calls]
            size = len(dag)
            assert [dag.residual(n, mu) for n, mu in calls] == warm
            assert len(dag) == size
            for (n, mu), want in zip(calls, warm):
                dag._residual_memo.clear()
                assert dag.residual(n, mu) == want, (n, mu)
            assert len(dag) == size

    def test_evaluate_agrees_with_truth_bits(self):
        rng = random.Random(4242)
        for _ in range(30):
            dag = Dag()
            atoms = random_atoms(rng, 1, 3, 2)
            node = random_formula(dag, rng, atoms, depth=3)
            bits = dag.truth_bits(node, atoms)
            for b, vals in enumerate(_all_assignments(atoms)):
                assert dag.evaluate(node, vals) == bool((bits >> b) & 1)


# -- abstraction -------------------------------------------------------------


class TestAbstraction:
    def test_atoms_of_first_occurrence_order(self, fdag):
        node = fdag.and_([
            fdag.lit(X_EQ_1),
            fdag.or_([fdag.lit(X_LE_0), fdag.lit(X_EQ_1, False)]),
        ])
        assert list(atoms_of(fdag, node)) == [X_EQ_1, X_LE_0]
        assert list(atoms_of(fdag, fdag.TRUE)) == []

    def test_abstract_worked_example(self, fdag):
        phi1 = build_phi1(fdag)
        pdag = Dag()
        pid = abstract(fdag, phi1, alpha_phi1(), pdag)
        assert pid == pdag.or_([pdag.lit(1), pdag.lit(2)])

    def test_abstract_requires_covering_atom_set(self, fdag):
        phi1 = build_phi1(fdag)
        with pytest.raises(AbstractionError):
            abstract(fdag, phi1, AtomSet([X_LE_0]), Dag())

    def test_refine_inverts_abstract(self):
        rng = random.Random(900)
        for _ in range(40):
            fdag = Dag()
            atoms = random_atoms(rng, 1, 3, 2)
            node = random_formula(fdag, rng, atoms, depth=3)
            alpha = AtomSet(atoms)
            pdag = Dag()
            pid = abstract(fdag, node, alpha, pdag)
            assert refine(pdag, pid, alpha, fdag) == node

    def test_abstraction_preserves_truth_tables(self):
        rng = random.Random(901)
        for _ in range(40):
            fdag = Dag()
            atoms = random_atoms(rng, 1, 3, 2)
            node = random_formula(fdag, rng, atoms, depth=3)
            pdag = Dag()
            alpha = AtomSet(atoms)
            pid = abstract(fdag, node, alpha, pdag)
            indices = [alpha.index_of(a) for a in atoms]
            assert fdag.truth_bits(node, atoms) == pdag.truth_bits(pid, indices)

    def test_structural_equality_across_arenas(self):
        d1, d2 = Dag(), Dag()
        n1 = d1.and_([d1.lit(1), d1.or_([d1.lit(2, False), d1.lit(3)])])
        n2 = d2.and_([d2.lit(1), d2.or_([d2.lit(2, False), d2.lit(3)])])
        assert d1.structurally_equal(n1, d2, n2)
        flipped = d2.and_([d2.lit(1), d2.or_([d2.lit(2, True), d2.lit(3)])])
        assert not d1.structurally_equal(n1, d2, flipped)
        assert not d1.structurally_equal(n1, d2, d2.TRUE)


# -- formulas nested past the recursion limit ---------------------------------

DEEP_ATOMS = [Atom.boolean(name) for name in "pqr"]


@pytest.fixture(scope="module", params=[implies_chain, alternating_chain])
def deep_pair(request):
    """A chain DEEP levels deep and a shallow equivalent, in one arena."""
    dag = Dag()
    lits = [dag.lit(a) for a in DEEP_ATOMS]
    build = request.param
    return dag, build(dag, DEEP, lits), build(dag, shallow_depth(DEEP), lits)


class TestDeepFormulas:
    """Each walker answers on the deep chain as it does on the shallow one."""

    def test_truth_bits_and_nnf(self, deep_pair):
        dag, deep, shallow = deep_pair
        assert dag.truth_bits(deep, DEEP_ATOMS) == \
            dag.truth_bits(shallow, DEEP_ATOMS)
        for convert in (dag.to_nnf, dag.negate):
            out = convert(deep)
            assert dag.is_nnf(out)
            assert dag.truth_bits(out, DEEP_ATOMS) == \
                dag.truth_bits(convert(shallow), DEEP_ATOMS)

    def test_evaluate(self, deep_pair):
        dag, deep, shallow = deep_pair
        for vals in _all_assignments(DEEP_ATOMS):
            assert dag.evaluate(deep, vals) == dag.evaluate(shallow, vals)

    def test_residual(self, deep_pair):
        dag, deep, shallow = deep_pair
        for atom, value in zip(DEEP_ATOMS, (True, False, True)):
            got = dag.residual(deep, {atom: value})
            want = dag.residual(shallow, {atom: value})
            assert atom not in dag.keys_of(got)
            assert dag.truth_bits(got, DEEP_ATOMS) == \
                dag.truth_bits(want, DEEP_ATOMS)

    def test_leaf_sets(self, deep_pair):
        dag, deep, shallow = deep_pair
        assert dag.keys_of(deep) == dag.keys_of(shallow)
        assert list(atoms_of(dag, deep)) == list(atoms_of(dag, shallow))

    def test_abstract_refine_and_structural_equality(self, deep_pair):
        dag, deep, shallow = deep_pair
        pdag = Dag()
        alpha = AtomSet(DEEP_ATOMS)
        pid = abstract(dag, deep, alpha, pdag)
        assert pdag.truth_bits(pid, [1, 2, 3]) == \
            dag.truth_bits(shallow, DEEP_ATOMS)
        copy = Dag()
        back = refine(pdag, pid, alpha, copy)
        assert dag.structurally_equal(deep, copy, back)
        assert not dag.structurally_equal(deep, copy, copy.not_(back))

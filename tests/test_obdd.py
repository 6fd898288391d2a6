"""OBDD engine: reduction invariants, canonicity, and operation tables."""

import random

import pytest

from kcmt.formulas import Dag
from kcmt.obdd import (
    ObddError,
    ObddManager,
    copy_into,
    entails,
    from_formula,
)

from conftest import (DEEP, alternating_chain, implies_chain, random_prop,
                      shallow_depth)


def eval_bdd(manager: ObddManager, node: int, values: dict) -> bool:
    while not manager.is_terminal(node):
        hi, lo = manager.branches(node)
        node = hi if values[manager.var_at(node)] else lo
    return node == ObddManager.TRUE


def assignments(nvars: int):
    for bits in range(1 << nvars):
        yield {i + 1: bool((bits >> i) & 1) for i in range(nvars)}


def table(manager: ObddManager, node: int, nvars: int) -> tuple:
    return tuple(eval_bdd(manager, node, v) for v in assignments(nvars))


def assert_reduced(manager: ObddManager):
    # No redundant tests and no duplicate triples anywhere in the arena.
    triples = manager._nodes[2:]
    for lvl, hi, lo in triples:
        assert hi != lo
        assert manager.level_of(hi) > lvl and manager.level_of(lo) > lvl
    assert len(set(triples)) == len(triples)


class TestManagerBasics:
    def test_duplicate_order_rejected(self):
        with pytest.raises(ObddError):
            ObddManager((1, 2, 1))

    def test_literal_structure(self):
        m = ObddManager((1, 2))
        pos = m.literal(1)
        assert m.var_at(pos) == 1
        assert m.branches(pos) == (ObddManager.TRUE, ObddManager.FALSE)
        neg = m.literal(1, False)
        assert m.branches(neg) == (ObddManager.FALSE, ObddManager.TRUE)

    def test_unordered_variable_rejected(self):
        m = ObddManager((1, 2))
        with pytest.raises(ObddError):
            m.literal(3)

    def test_same_literal_same_node(self):
        m = ObddManager((1, 2))
        assert m.literal(2) == m.literal(2)

    def test_decide_is_ite_on_a_top_variable(self):
        m = ObddManager((1, 2, 3))
        hi = m.or_(m.literal(2), m.literal(3))
        lo = m.literal(3, False)
        node = m.decide(0, hi, lo)
        x = m.literal(1)
        assert node == m.or_(m.and_(x, hi), m.and_(m.neg(x), lo))
        assert m.decide(0, hi, hi) == hi
        assert m.decide(1, m.TRUE, m.FALSE) == m.literal(2)

    def test_decide_needs_branches_below_the_level(self):
        m = ObddManager((1, 2))
        with pytest.raises(ObddError, match="below"):
            m.decide(1, m.literal(2), m.FALSE)
        with pytest.raises(ObddError, match="below"):
            m.decide(1, m.TRUE, m.literal(1))


class TestApplyOps:
    def test_binary_tables(self):
        m = ObddManager((1, 2))
        a, b = m.literal(1), m.literal(2)
        funcs = {
            m.and_: lambda x, y: x and y,
            m.or_: lambda x, y: x or y,
            m.xor: lambda x, y: x != y,
            m.implies: lambda x, y: (not x) or y,
        }
        for op, fn in funcs.items():
            out = op(a, b)
            for v in assignments(2):
                assert eval_bdd(m, out, v) == fn(v[1], v[2])
        assert_reduced(m)

    def test_negation_table(self):
        m = ObddManager((1, 2))
        out = m.neg(m.literal(2))
        for v in assignments(2):
            assert eval_bdd(m, out, v) == (not v[2])

    def test_iff_example_three_internal_nodes(self):
        # A1 <-> A2 under order A1 < A2: a root plus one node per branch.
        m = ObddManager((1, 2))
        p = Dag()
        r = from_formula(p, p.iff(p.lit(1), p.lit(2)), m)
        assert m.satcount(r.node) == 2
        assert len(m.reachable(r.node)) == 3

    def test_mixed_managers_rejected(self):
        m1, m2 = ObddManager((1, 2)), ObddManager((1, 2))
        a, b = m1.ref(m1.literal(1)), m2.ref(m2.literal(2))
        assert a != m2.ref(m2.literal(1))
        with pytest.raises(ObddError):
            entails(a, b)


class TestFromFormula:
    def test_matches_truth_tables(self):
        rng = random.Random(90101)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            p = Dag()
            node = random_prop(p, rng, nvars, depth=3)
            m = ObddManager(tuple(range(1, nvars + 1)))
            r = from_formula(p, node, m)
            for v in assignments(nvars):
                assert eval_bdd(m, r.node, v) == p.evaluate(node, v)
            assert_reduced(m)

    def test_canonicity_pairs(self):
        # In one manager, truth-table equality and handle identity coincide.
        rng = random.Random(90102)
        hits = 0
        for _ in range(60):
            nvars = rng.randint(1, 3)
            p = Dag()
            m = ObddManager(tuple(range(1, nvars + 1)))
            n1 = random_prop(p, rng, nvars, depth=2)
            n2 = random_prop(p, rng, nvars, depth=2)
            r1, r2 = from_formula(p, n1, m), from_formula(p, n2, m)
            same_table = table(m, r1.node, nvars) == table(m, r2.node, nvars)
            assert same_table == (r1 == r2)
            hits += same_table
        assert hits >= 5

    def test_nnf_rebuild_gives_same_handle(self):
        rng = random.Random(90103)
        for _ in range(30):
            nvars = rng.randint(1, 4)
            p = Dag()
            node = random_prop(p, rng, nvars, depth=3)
            m = ObddManager(tuple(range(1, nvars + 1)))
            assert from_formula(p, node, m) == \
                from_formula(p, p.to_nnf(node), m)

    def test_clause_chain_builds_in_linear_space(self):
        # (and (or 1 2) (or 2 3) ...): conjoined deepest clause first, each
        # apply rebuilds only the levels above the next clause, so the
        # manager stays linear in n; left to right it grew quadratically.
        n = 300
        p = Dag()
        chain = p.and_([p.or_([p.lit(v), p.lit(v + 1)]) for v in range(1, n)])
        m = ObddManager(tuple(range(1, n + 1)))
        r = from_formula(p, chain, m)
        assert len(m) <= 5 * n
        # No two adjacent variables false: Fibonacci(n + 2) models.
        fib = [0, 1]
        while len(fib) < n + 3:
            fib.append(fib[-1] + fib[-2])
        assert m.satcount(r.node) == fib[n + 2]

    @pytest.mark.parametrize("chain", [implies_chain, alternating_chain])
    def test_deep_chain_gives_the_shallow_handle(self, chain):
        p = Dag()
        lits = [p.lit(v) for v in (1, 2, 3)]
        m = ObddManager((1, 2, 3))
        deep = from_formula(p, chain(p, DEEP, lits), m)
        assert deep == from_formula(p, chain(p, shallow_depth(DEEP), lits), m)


class TestCountingAndModels:
    def test_satcount_matches_table(self):
        rng = random.Random(90104)
        for _ in range(40):
            nvars = rng.randint(1, 5)
            p = Dag()
            node = random_prop(p, rng, nvars, depth=3)
            m = ObddManager(tuple(range(1, nvars + 1)))
            r = from_formula(p, node, m)
            assert m.satcount(r.node) == sum(table(m, r.node, nvars))

    def test_terminal_counts(self):
        m = ObddManager((1, 2, 3))
        assert m.satcount(ObddManager.TRUE) == 8
        assert m.satcount(ObddManager.FALSE) == 0

    def test_satcount_with_one_variable_fixed(self):
        rng = random.Random(90106)
        for _ in range(30):
            nvars = rng.randint(2, 4)
            p = Dag()
            node = random_prop(p, rng, nvars, depth=3)
            m = ObddManager(tuple(range(1, nvars + 1)))
            r = from_formula(p, node, m)
            var = rng.randint(1, nvars)
            val = rng.random() < 0.5
            size = len(m)
            assert m.satcount(r.node, {var: val}) == sum(
                eval_bdd(m, r.node, v) for v in assignments(nvars)
                if v[var] == val)
            assert len(m) == size


class TestEntailsAndCopy:
    def test_entails_matches_tables(self):
        rng = random.Random(90107)
        holds = 0
        for _ in range(40):
            nvars = rng.randint(1, 3)
            p = Dag()
            m = ObddManager(tuple(range(1, nvars + 1)))
            r1 = from_formula(p, random_prop(p, rng, nvars, 2), m)
            r2 = from_formula(p, random_prop(p, rng, nvars, 2), m)
            want = all(y for x, y in
                       zip(table(m, r1.node, nvars), table(m, r2.node, nvars))
                       if x)
            assert entails(r1, r2) == want
            holds += want
        assert holds >= 5

    def test_conjunction_entails_conjunct(self):
        m = ObddManager((1, 2))
        a, b = m.literal(1), m.literal(2)
        assert entails(m.ref(m.and_(a, b)), m.ref(a))
        assert not entails(m.ref(a), m.ref(m.and_(a, b)))

    def test_copy_into_other_manager(self):
        p = Dag()
        node = p.iff(p.lit(1), p.or_([p.lit(2), p.lit(3, False)]))
        m1 = ObddManager((1, 2, 3))
        m2 = ObddManager((1, 2, 3))
        r1 = from_formula(p, node, m1)
        r2 = copy_into(r1, m2)
        assert r2.manager is m2
        for v in assignments(3):
            assert eval_bdd(m2, r2.node, v) == eval_bdd(m1, r1.node, v)
        # Diagrams are canonical: copies into a fresh manager coincide.
        m = ObddManager((1, 2, 3))
        assert copy_into(r1, m) == copy_into(r2, m)
        assert len(m2.reachable(r2.node)) == len(m1.reachable(r1.node))

    def test_copy_into_same_manager_is_identity(self):
        p = Dag()
        m = ObddManager((1, 2))
        r = from_formula(p, p.iff(p.lit(1), p.lit(2)), m)
        assert copy_into(r, m).node == r.node

    def test_copy_order_mismatch_rejected(self):
        m1, m2 = ObddManager((1, 2)), ObddManager((2, 1))
        r = m1.ref(m1.literal(1))
        with pytest.raises(ObddError):
            copy_into(r, m2)

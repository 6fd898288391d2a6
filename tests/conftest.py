"""Shared fixtures: the worked formulas and a small random-formula builder."""

import functools
import random

import pytest

from kcmt.formulas import Atom, AtomSet, Dag
from kcmt.generate import InstanceSpec, generate
from kcmt.lemmas import enumerate_lemmas
from kcmt.smtlib import parse_smt2, write_smt2

# Verdict lines registered by the acceptance gate; printed after the run
# because pytest's fd-level capture would otherwise swallow them.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

# The two-atom worked example: phi1 = (x<=0) or (x=1), phi2 = not(x<=0) iff (x=1).
X_LE_0 = Atom.linear({"x": 1}, "<=", 0)
X_EQ_1 = Atom.linear({"x": 1}, "=", 1)
X_GE_2 = Atom.linear({"x": 1}, ">=", 2)

# The two-clause regression formula ((x1<=0) or (x2<=0)) and ((x1>=1) or (x2>=1)).
X1_LE_0 = Atom.linear({"x1": 1}, "<=", 0)
X2_LE_0 = Atom.linear({"x2": 1}, "<=", 0)
X1_GE_1 = Atom.linear({"x1": 1}, ">=", 1)
X2_GE_1 = Atom.linear({"x2": 1}, ">=", 1)


@pytest.fixture
def fdag():
    return Dag()


def build_phi1(dag: Dag) -> int:
    return dag.or_([dag.lit(X_LE_0), dag.lit(X_EQ_1)])


def build_phi2(dag: Dag) -> int:
    return dag.iff(dag.not_(dag.lit(X_LE_0)), dag.lit(X_EQ_1))


def alpha_phi1() -> AtomSet:
    return AtomSet([X_LE_0, X_EQ_1])


def build_two_clause(dag: Dag) -> int:
    return dag.and_([
        dag.or_([dag.lit(X1_LE_0), dag.lit(X2_LE_0)]),
        dag.or_([dag.lit(X1_GE_1), dag.lit(X2_GE_1)]),
    ])


def alpha_two_clause() -> AtomSet:
    return AtomSet([X1_LE_0, X2_LE_0, X1_GE_1, X2_GE_1])


# Nesting depth of the deep-formula tests, far past the interpreter's
# recursion limit.
DEEP = 100_000


def implies_chain(dag: Dag, depth: int, lits: list) -> int:
    """`lits[0] => (lits[1] => (... => not lits[0]))`, `depth` implications
    whose antecedents cycle through the three literals. From depth 3 on,
    every such chain is equivalent to not lits[0] | not lits[1] | not
    lits[2]."""
    node = dag.not_(lits[0])
    for i in reversed(range(depth)):
        node = dag.implies(lits[i % 3], node)
    return node


def alternating_chain(dag: Dag, depth: int, lits: list) -> int:
    """`depth` nested connectives around lits[2]: from the inside out,
    and(lits[0], .), or(lits[1], .), not(.), repeated.

    Three levels map f to T(f) = not lits[1] & (not lits[0] | not f), and
    T(T(T(f))) == T(f), so from depth 3 on the chains of depths d and d + 6
    are equivalent."""
    node = lits[2]
    for i in range(depth):
        if i % 3 == 0:
            node = dag.and_([lits[0], node])
        elif i % 3 == 1:
            node = dag.or_([lits[1], node])
        else:
            node = dag.not_(node)
    return node


def shallow_depth(depth: int) -> int:
    """A depth from 3 to 8 whose chains are equivalent to those of
    `depth`, for either chain builder."""
    return 3 + (depth - 3) % 6


def random_prop(dag: Dag, rng: random.Random, nvars: int, depth: int = 3) -> int:
    """Random propositional formula over integer variables 1..nvars."""
    if depth == 0 or rng.random() < 0.25:
        return dag.lit(rng.randint(1, nvars), rng.random() < 0.5)
    shape = rng.random()
    if shape < 0.40:
        return dag.and_([random_prop(dag, rng, nvars, depth - 1)
                         for _ in range(rng.randint(2, 3))])
    if shape < 0.80:
        return dag.or_([random_prop(dag, rng, nvars, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    if shape < 0.90:
        return dag.not_(random_prop(dag, rng, nvars, depth - 1))
    return dag.iff(random_prop(dag, rng, nvars, depth - 1),
                   random_prop(dag, rng, nvars, depth - 1))


def random_atoms(rng: random.Random, n_bool: int, n_lra: int, n_vars: int) -> list:
    """Small random atom pool: Booleans plus 1-2 variable linear constraints."""
    atoms = [Atom.boolean("b%d" % i) for i in range(1, n_bool + 1)]
    names = ["x%d" % i for i in range(1, n_vars + 1)]
    seen = set(atoms)
    guard = 0
    while len(atoms) < n_bool + n_lra:
        guard += 1
        assert guard < 10000, "atom pool generation is stuck"
        k = rng.choice([1, 1, 2]) if n_vars > 1 else 1
        vs = rng.sample(names, k)
        coeffs = {v: rng.choice([-3, -2, -1, 1, 2, 3]) for v in vs}
        rel = rng.choice(["<=", "<", "=", ">=", ">"])
        atom = Atom.linear(coeffs, rel, rng.randint(-4, 4))
        if atom not in seen:
            seen.add(atom)
            atoms.append(atom)
    return atoms


def random_formula(dag: Dag, rng: random.Random, atoms: list, depth: int = 3) -> int:
    """Random formula over the pool; folds may drop some atoms, so callers
    treat the pool as the atom superset rather than the exact support."""
    leaves = [dag.lit(a, rng.random() < 0.5) for a in atoms]
    extra = [dag.lit(rng.choice(atoms), rng.random() < 0.5)
             for _ in range(max(1, len(atoms) // 2))]
    nodes = leaves + extra
    rng.shuffle(nodes)
    while len(nodes) > 1:
        k = min(len(nodes), rng.choice([2, 2, 2, 3]))
        picked, nodes = nodes[:k], nodes[k:]
        op = rng.choices(["and", "or", "not", "implies", "iff"],
                         weights=[4, 4, 1, 1, 1])[0]
        if op == "and":
            built = dag.and_(picked)
        elif op == "or":
            built = dag.or_(picked)
        elif op == "not":
            built = dag.not_(picked[0])
            nodes.extend(picked[1:])
        elif op == "implies":
            built = dag.implies(picked[0], picked[-1])
            nodes.extend(picked[1:-1])
        else:
            built = dag.iff(picked[0], picked[-1])
            nodes.extend(picked[1:-1])
        nodes.append(built)
        rng.shuffle(nodes)
    return nodes[0]


@functools.lru_cache(maxsize=None)
def bench_instance(seed: int) -> tuple:
    """(fdag, node, alpha, formula lemmas) of criterion 7's instance `seed`,
    as the benchmark's compile op sees it: written as SMT-LIB and parsed
    back, which fixes the atom order. Cached for the whole test run, since the
    lemmas of one instance take a fifth of a second or more."""
    fdag = Dag()
    node, alpha = generate(fdag, InstanceSpec(
        num_lra_atoms=14 + seed % 5, num_rational_vars=3 + seed % 2,
        dag_depth=4, seed=seed))
    fdag, node, alpha = parse_smt2(write_smt2(fdag, node, alpha))
    return fdag, node, alpha, enumerate_lemmas(fdag, node, alpha)

"""Deterministic synthetic SMT(LRA) instance generator.

Instances mirror the shape of the evaluation corpus: non-CNF formulas
(every output with at least two atoms contains an or-of-and) over a mix
of linear-rational and Boolean atoms, with every atom of the instance
occurring in the formula. A spec's seed fully determines the output, so
corpora are reproducible from (spec, seed) pairs alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .formulas import AND, OR, Atom, AtomSet, Dag

DEFAULT_OPERATOR_MIX = (
    ("and", 3.0), ("or", 3.0), ("implies", 1.0), ("iff", 1.0),
    ("xor", 1.0), ("not", 1.0),
)
# Connectives are drawn from the binary entries by weight; the "not"
# weight's share of the total is the chance to negate a built node.
_BINARY_OPS = tuple(e for e in DEFAULT_OPERATOR_MIX if e[0] != "not")
_WRAP_PROB = (dict(DEFAULT_OPERATOR_MIX)["not"]
              / sum(w for _, w in DEFAULT_OPERATOR_MIX))


class GenerateError(ValueError):
    """Invalid instance spec or an unsatisfiable atom request."""


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of one synthetic instance; the seed pins every random choice."""

    num_bool_atoms: int = 0
    num_lra_atoms: int = 4
    num_rational_vars: int = 2
    dag_depth: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, count in (("num_bool_atoms", self.num_bool_atoms),
                            ("num_lra_atoms", self.num_lra_atoms),
                            ("num_rational_vars", self.num_rational_vars)):
            if count < 0:
                raise GenerateError("%s must be >= 0" % name)
        if self.dag_depth < 1:
            raise GenerateError("dag_depth must be >= 1")
        if self.num_bool_atoms + self.num_lra_atoms == 0:
            raise GenerateError("an instance needs at least one atom")
        if self.num_lra_atoms > 0 and self.num_rational_vars == 0:
            raise GenerateError(
                "linear atoms need at least one rational variable")


def _lra_atoms(rng: random.Random, count: int, nvars: int) -> list[Atom]:
    names = ["x%d" % (i + 1) for i in range(nvars)]
    out: list[Atom] = []
    seen: set[Atom] = set()
    attempts = 0
    spread = 6
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise GenerateError(
                "cannot draw %d distinct linear atoms over %d variables"
                % (count, nvars))
        if attempts % (40 * max(count, 1)) == 0:
            spread *= 2  # widen the constant range if collisions pile up
        k = 1 if nvars == 1 else rng.choice((1, 1, 2))
        chosen = rng.sample(names, k)
        coeffs = {v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in chosen}
        rel = rng.choice(("<=", "<", ">=", ">", "="))
        const = Fraction(rng.randint(-spread, spread), rng.choice((1, 1, 2)))
        atom = Atom.linear(coeffs, rel, const)
        if atom not in seen:
            seen.add(atom)
            out.append(atom)
    return out


def _pick_op(rng: random.Random) -> str:
    total = sum(w for _, w in _BINARY_OPS)
    roll = rng.random() * total
    for op, w in _BINARY_OPS:
        roll -= w
        if roll < 0:
            return op
    return _BINARY_OPS[-1][0]


def _has_or_over_and(dag: Dag, node: int) -> bool:
    return any(dag.kind(n) == OR and
               any(dag.kind(c) == AND for c in dag.children(n))
               for n in dag.reachable(dag.to_nnf(node)))


def generate(fdag: Dag, spec: InstanceSpec) -> tuple[int, AtomSet]:
    """Build one instance in `fdag`; returns (formula, atom set).

    Every atom of the returned set occurs in the formula, and the same
    spec always produces the same formula and atom order. Connectives
    follow `DEFAULT_OPERATOR_MIX`, the one operator mix there is.
    """
    rng = random.Random(spec.seed)
    atoms = _lra_atoms(rng, spec.num_lra_atoms, spec.num_rational_vars)
    atoms.extend(Atom.boolean("b%d" % (i + 1))
                 for i in range(spec.num_bool_atoms))
    rng.shuffle(atoms)

    def leafy(slice_: list[Atom]) -> int:
        lits = [fdag.lit(a, rng.random() < 0.5) for a in slice_]
        if len(lits) == 1:
            return lits[0]
        return fdag.and_(lits) if rng.random() < 0.5 else fdag.or_(lits)

    def build(slice_: list[Atom], depth: int) -> int:
        if len(slice_) == 1 or depth <= 0:
            return leafy(slice_)
        k = rng.randint(2, min(3, len(slice_)))
        cuts = sorted(rng.sample(range(1, len(slice_)), k - 1))
        bounds = [0] + cuts + [len(slice_)]
        subs = [build(slice_[a:b], depth - 1)
                for a, b in zip(bounds, bounds[1:])]
        op = _pick_op(rng)
        if op == "and":
            node = fdag.and_(subs)
        elif op == "or":
            node = fdag.or_(subs)
        elif op == "implies":
            node = subs[-1]
            for s in reversed(subs[:-1]):
                node = fdag.implies(s, node)
        elif op == "iff":
            node = subs[-1]
            for s in reversed(subs[:-1]):
                node = fdag.iff(s, node)
        else:
            node = subs[-1]
            for s in reversed(subs[:-1]):
                node = fdag.not_(fdag.iff(s, node))
        if rng.random() < _WRAP_PROB:
            node = fdag.not_(node)
        return node

    node = build(atoms, spec.dag_depth)
    if len(atoms) >= 2 and not _has_or_over_and(fdag, node):
        a, b = rng.sample(atoms, 2)
        if node in (fdag.TRUE, fdag.FALSE):
            # a constant collapsed the draw; fall back to an iff shape
            node = fdag.or_([
                fdag.and_([fdag.lit(a, True), fdag.lit(b, True)]),
                fdag.and_([fdag.lit(a, False), fdag.lit(b, False)]),
            ])
        else:
            node = fdag.or_([node, fdag.and_([
                fdag.lit(a, rng.random() < 0.5),
                fdag.lit(b, rng.random() < 0.5)])])
    return node, AtomSet(atoms)

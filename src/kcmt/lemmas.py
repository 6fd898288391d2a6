"""Enumeration of theory lemmas that rule out the theory-inconsistent total
assignments of a formula.

A lemma is a theory-valid clause over the atom set: its negation is an
unsatisfiable conjunction of literals. The enumerator walks the propositional
models of the (abstracted) target formula depth-first and theory-checks the
partial assignment each time an arithmetic atom gets a value. Every conflict
is minimized and its negation both recorded as a lemma and used to block the
rest of that subtree, so one lemma typically kills many assignments. The
resulting set L satisfies: every theory-inconsistent total model of the
target falsifies some member of L, while theory-consistent assignments
satisfy all of L (lemmas are theory-valid, so they cannot cut those).

The walk is incremental. Each node carries a witness of its arithmetic
prefix: the backend contract is that a sat verdict's witness, when present,
satisfies every queried literal (variables it omits read as 0). An
extension that already holds at the parent's witness is therefore sat
without a backend call, and keeps that witness. Every other prefix is
decided by the backend once, its verdict memoised, so each unsat verdict
and conflict is exactly what the backend returns for that prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    AbstractionMap,
    Assignment,
    AtomSet,
    Dag,
    abstract,
    atoms_of,
)
from .theory import (
    Literal,
    LraBackend,
    TheoryVerdict,
    holds_at,
    minimize_conflict,
)

TARGET_FORMULA = "forFormula"
TARGET_NEGATION = "forNegation"
TARGET_TOP = "forTop"


class LemmaError(ValueError):
    """Ill-formed lemma or lemma-set request."""


@dataclass(frozen=True)
class TLemma:
    """A theory-valid clause, literals in canonical (atom index, polarity)
    order for the atom set it was built against."""

    literals: tuple  # tuple of (Atom, bool)

    def __str__(self) -> str:
        return " | ".join(("" if p else "!") + str(a) for a, p in self.literals)

    def __len__(self) -> int:
        return len(self.literals)


def canonical_lemma(literals, alpha: AtomSet) -> TLemma:
    lits = list(literals)
    if not lits:
        raise LemmaError("a lemma needs at least one literal")
    atoms = [a for a, _ in lits]
    if len(set(atoms)) != len(lits):
        raise LemmaError("duplicate or complementary literals in a lemma")
    for a in atoms:
        if a not in alpha:
            raise LemmaError("lemma literal outside the atom set: %s" % a)
    lits.sort(key=lambda lp: (alpha.position(lp[0]), lp[1]))
    return TLemma(literals=tuple(lits))


@dataclass(frozen=True)
class LemmaSet:
    lemmas: tuple  # tuple of TLemma, canonically sorted, duplicate-free
    target: str  # TARGET_FORMULA | TARGET_NEGATION | TARGET_TOP
    alpha: AtomSet

    def __len__(self) -> int:
        return len(self.lemmas)

    def __iter__(self):
        return iter(self.lemmas)


def rules_out(lemma_set: LemmaSet, assignments) -> bool:
    """True iff every assignment falsifies some lemma (is "ruled out").

    Each assignment must be total over the lemma set's atom set.
    """
    alpha = lemma_set.alpha
    for rho in assignments:
        if not isinstance(rho, Assignment) or not rho.is_total_over(alpha):
            raise LemmaError(
                "rules-out needs total assignments over the atom set: %s" % (rho,))
        if not any(
            all(rho.value(a) != p for a, p in lemma.literals)
            for lemma in lemma_set.lemmas
        ):
            return False
    return True


def abstract_clauses(lemma_set: LemmaSet, amap: AbstractionMap, pdag: Dag) -> int:
    """Conjunction of the lemmas as a propositional formula over amap."""
    return pdag.and_([
        pdag.or_([pdag.lit(amap.index(a), p) for a, p in lemma.literals])
        for lemma in lemma_set.lemmas
    ])


def enumerate_lemmas(dag: Dag, node: int, alpha: AtomSet,
                     scope: str = "formula", backend=None,
                     label: str | None = None) -> LemmaSet:
    """Lemma set ruling out the theory-inconsistent total models of the
    target: the formula itself (scope="formula") or the full assignment
    space (scope="top").

    Deterministic: decisions run in ascending atom index, true branch first,
    and conflicts are minimized in descending index order, so a fixed formula
    and atom order always yield the same lemmas.
    """
    if scope == "formula":
        target_node = node
        target = label or TARGET_FORMULA
    elif scope == "top":
        target_node = dag.TRUE
        target = label or TARGET_TOP
    else:
        raise LemmaError("unknown enumeration scope %r" % scope)
    backend = backend if backend is not None else LraBackend()

    pdag = Dag()
    if scope == "top":
        # The formula is not enumerated, but its atoms must still lie in alpha.
        abstract(dag, node, alpha, pdag)
    pid, amap = abstract(dag, target_node, alpha, pdag)

    n = len(alpha)
    atom_at = {i: amap.atom(i) for i in range(1, n + 1)}
    last_lra = max(
        (i for i in range(1, n + 1) if atom_at[i].kind == "lra"), default=0)

    learned: list[TLemma] = []
    learned_keys: set[tuple] = set()
    # (index, value) -> the other literals, as (index, polarity), of every
    # learned clause whose highest-index literal is falsified by giving atom
    # `index` that value. A conflict found while assigning atom i always
    # involves atom i, since the prefix without it was sat, so i is the
    # clause's highest index and the clause is stored under it.
    by_last: dict[tuple, list[tuple]] = {}
    verdicts: dict[frozenset, TheoryVerdict] = {}

    def learn(core: frozenset) -> None:
        lemma = canonical_lemma(((a, not p) for a, p in core), alpha)
        key = tuple((amap.index(a), p) for a, p in lemma.literals)
        if key not in learned_keys:
            learned_keys.add(key)
            learned.append(lemma)
            last, pol = key[-1]
            by_last.setdefault((last, not pol), []).append(key[:-1])

    def blocked(i: int, val: bool) -> bool:
        # Exact although only the clauses stored under (i, val) are scanned.
        # A clause with highest index j < i that is falsified here was
        # learned at a depth-j conflict node. That node has no children, so
        # it is not this path's depth-j node, and it lies outside that
        # node's subtree: it was learned before this path assigned atom j.
        # The scan at depth j then saw it falsified and pruned the path.
        for rest in by_last.get((i, val), ()):
            if all(values[j] != p for j, p in rest):
                return True
        return False

    def verdict_of(lra_lits: tuple) -> TheoryVerdict:
        key = frozenset(lra_lits)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = backend.check_conjunction(key)
            verdicts[key] = verdict
        return verdict

    values: dict[int, bool] = {}

    def dfs(i: int, lra_lits: tuple, residual: int,
            witness: dict | None) -> None:
        if i > n or i > last_lra:
            # Only Boolean atoms remain: no extension can become
            # theory-inconsistent, so there is nothing left to rule out.
            return
        atom = atom_at[i]
        for val in (True, False):
            res = pdag.residual(residual, {i: val})
            if res == pdag.FALSE:
                continue
            values[i] = val
            try:
                if blocked(i, val):
                    continue
                lits, point = lra_lits, witness
                if atom.kind == "lra":
                    lits = lra_lits + ((atom, val),)
                    # The witness satisfies the prefix; variables it lacks
                    # occur in no prefix literal, so reading them as 0 keeps
                    # it a witness of the extension whenever the new literal
                    # holds there.
                    if point is None or not holds_at(atom, val, point):
                        verdict = verdict_of(lits)
                        if not verdict.is_sat:
                            core = minimize_conflict(
                                backend, lits, verdict.conflict,
                                index_of=amap.index).literals
                            learn(core)
                            continue
                        point = verdict.witness
                dfs(i + 1, lits, res, point)
            finally:
                del values[i]

    if pid != pdag.FALSE:
        dfs(1, (), pid, {})

    ordered = sorted(
        learned,
        key=lambda lm: tuple((amap.index(a), p) for a, p in lm.literals))
    return LemmaSet(lemmas=tuple(ordered), target=target, alpha=alpha)

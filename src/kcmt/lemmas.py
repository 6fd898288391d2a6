"""Enumeration of theory lemmas that rule out the theory-inconsistent total
assignments of a formula.

A lemma is a theory-valid clause over the atom set: its negation is an
unsatisfiable conjunction of literals. The enumerator decides the arithmetic
atoms depth-first, keeping the residual of the (abstracted) target formula,
and theory-checks each prefix. Boolean atoms are never decided, since they
cannot make a conjunction theory-inconsistent. Every conflict is minimized and
its negation both recorded as a lemma and used to block the rest of that
subtree, so one lemma typically kills many assignments. The resulting set L
satisfies: every theory-inconsistent total model of the target falsifies
some member of L, while theory-consistent assignments satisfy all of L
(lemmas are theory-valid, so they cannot cut those).

The walk is incremental, but only as far as the backend's witnesses let
it: which point is a model is the theory's knowledge, not the walk's. Each
node carries a witness of its arithmetic prefix, starting from the
backend's witness of the empty prefix. A witness that can take steps (an
`LraBackend` one gives its `scaled()` point) is asked two things. Does the
new literal hold at it? Then the extension is sat without a backend call,
and keeps that witness. If not, its `moved` point, one moved onto the new
literal, may satisfy the extension and become its witness. Only a prefix
that neither settles is decided by one backend call. A witness without
steps (a plain dict, or None) leaves every extension to the backend, which
is right for any theory. Each node has its own prefix, and no point
satisfies an unsat one, so each unsat verdict and conflict is exactly what
the backend returns for that prefix. Residuals, `blocked` and the learned
clauses never read a witness, so witnesses decide only which prefixes
reach the backend, never the lemmas.

A node's prefix is the values of the first k arithmetic atoms, so one int
code names it: decision j (the value of the j-th arithmetic atom) at bit j,
and a leading 1 at bit k above the decisions. A child's code is its
parent's plus one shifted term: the leading 1 moves up one bit, and the
new value takes its place. The code serves the walk three ways. It keys
the shared outcomes below, it is the one record of the path's values, and
`blocked` tests a learned clause against it with one mask, since each
clause is stored as the bits that falsify it.

Every run over one `AtomSet` object with one backend (the formula run and
the negation run of a compile, say) shares those outcomes: the witness
(moved or the backend's) of a checked sat prefix, the minimized core of an
unsat one, keyed by the prefix's code; the root's witness is kept under
code 1. A node's witness depends on its prefix alone (the parent's, the
parent's moved, or the backend's for the prefix), so every run reaches the
same checked prefixes with the same witnesses, and a shared core is again
exactly what the backend returns for that prefix. Lemma sets are the same
as with a fresh atom set for each run. Nothing is shared between backends
or atom set objects, however equal their atoms.

A conflict found at atom i contains atom i's literal, the highest index,
so the first deletion trial of its minimization is the parent prefix with
the rest of the core, which is sat; `minimize_conflict` answers it from
`sat_within` without a backend call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Assignment, AtomSet, Dag, abstract
from .theory import LraBackend, minimize_conflict

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
    lits.sort(key=lambda lp: (alpha.index_of(lp[0]), lp[1]))
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


def abstract_clauses(lemma_set: LemmaSet, alpha: AtomSet, pdag: Dag) -> int:
    """Conjunction of the lemmas as a propositional formula over the
    variables of `alpha`."""
    return pdag.and_([
        pdag.or_([pdag.lit(alpha.index_of(a), p) for a, p in lemma.literals])
        for lemma in lemma_set.lemmas
    ])


def enumerate_lemmas(dag: Dag, node: int, alpha: AtomSet,
                     scope: str = "formula", backend=None,
                     label: str | None = None) -> LemmaSet:
    """Lemma set ruling out the theory-inconsistent total models of the
    target: the formula itself (scope="formula") or the full assignment
    space (scope="top").

    The formula is abstracted into a scratch arena, which checks that its
    atoms lie in alpha, and `lemmas_of` walks that abstraction.
    """
    pdag = Dag()
    pid = abstract(dag, node, alpha, pdag)
    return lemmas_of(pdag, pid, alpha, scope, backend, label)


def lemmas_of(pdag: Dag, pid: int, alpha: AtomSet,
              scope: str = "formula", backend=None,
              label: str | None = None) -> LemmaSet:
    """`enumerate_lemmas` on an abstraction `pid` already built in `pdag`,
    which keeps the residuals of the walk, over the variables of `alpha`.

    Decisions run over the arithmetic atoms only, in ascending atom index,
    true branch first; Boolean atoms stay open in the residual. Conflicts are
    minimized in descending index order, so a fixed formula and atom order
    always yield the same lemmas.
    """
    if scope == "formula":
        target = label or TARGET_FORMULA
    elif scope == "top":
        target = label or TARGET_TOP
    else:
        raise LemmaError("unknown enumeration scope %r" % scope)
    try:
        outcomes = alpha.outcomes(backend)
    except TypeError:  # an unhashable backend shares no outcomes
        outcomes = {}
    backend = backend if backend is not None else LraBackend()

    if scope == "top":
        pid = pdag.TRUE
    lra = [alpha.index_of(a) for a in alpha if a.kind == "lra"]

    learned: dict[tuple, TLemma] = {}  # keyed by (index, polarity) pairs
    # Atom index -> position: the decision on atom lra[k] is bit k of a code.
    position = {i: k for k, i in enumerate(lra)}
    # (position, value) -> (mask, bits) of every learned clause whose
    # highest-position literal is falsified by giving the atom at that
    # position that value: `mask` has the positions of its other literals,
    # and `bits` the values that falsify them. A conflict found while
    # assigning the atom at position k always involves it, since the prefix
    # without it was sat, so k is the clause's highest position and the
    # clause is stored under k.
    by_last: dict[tuple, list[tuple]] = {}

    def learn(core: frozenset) -> None:
        lemma = canonical_lemma(((a, not p) for a, p in core), alpha)
        key = tuple((alpha.index_of(a), p) for a, p in lemma.literals)
        if key not in learned:
            learned[key] = lemma
            mask = bits = 0
            for i, p in key[:-1]:
                bit = 1 << position[i]
                mask |= bit
                if not p:
                    bits |= bit
            last, pol = key[-1]
            by_last.setdefault((position[last], not pol), []).append(
                (mask, bits))

    def blocked(k: int, val: bool, code: int) -> bool:
        # `code` holds this path's value at every position up to k, so a
        # clause stored under (k, val) is falsified here iff `code` has its
        # bits under its mask. Exact although only those clauses are
        # scanned, since the scan runs first at every node, whatever the
        # residual. A clause with highest position j < k that is falsified
        # here was learned at a conflict node deciding position j. That node
        # has no children, so it is not this path's node at position j, and
        # it lies outside that node's subtree: it was learned before this
        # path assigned position j. The scan at position j then saw it
        # falsified and pruned the path.
        for mask, bits in by_last.get((k, val), ()):
            if code & mask == bits:
                return True
        return False

    def outcome(lits: tuple, prefix: tuple):
        """The witness point of a sat prefix `lits`, or None if its witness
        takes no steps, or the minimized core of an unsat one."""
        verdict = backend.check_conjunction(frozenset(lits))
        if not verdict.is_sat:
            # The parent prefix is sat, so every trial inside it is.
            return minimize_conflict(backend, lits, verdict.conflict,
                                     index_of=alpha.index_of,
                                     sat_within=frozenset(prefix))
        try:
            scaled = verdict.witness.scaled
        except AttributeError:  # a plain dict or None takes no steps
            return None
        return scaled()

    # One loop over pending children: (position, value, code, and the
    # parent's prefix, residual and witness). The false child is pushed
    # first, so the true child's subtree is walked first; a child's
    # `blocked` scan, residual and check wait until it is popped, as in a
    # recursive walk.
    if lra and 1 not in outcomes:
        outcomes[1] = outcome((), ())
    stack = [(0, v, 2 | v, (), pid, outcomes[1]) for v in (False, True)
             if lra]
    while stack:
        k, val, code, prefix, residual, witness = stack.pop()
        if blocked(k, val, code):
            continue
        i = lra[k]
        res = pdag.residual(residual, {i: val})
        if res == pdag.FALSE:
            continue
        atom = alpha.atom_at(i)
        lits, point = prefix + ((atom, val),), witness
        if point is None or not point.holds(atom, val):
            if code in outcomes:
                point = outcomes[code]
            else:
                moved = point and point.moved(atom, val, prefix)
                point = outcomes[code] = moved or outcome(lits, prefix)
            if isinstance(point, frozenset):
                learn(point)
                continue
        k += 1
        if k < len(lra):
            # The leading 1 moves from bit k to bit k + 1.
            stack.append((k, False, code + (1 << k), lits, res, point))
            stack.append((k, True, code + (2 << k), lits, res, point))

    return LemmaSet(lemmas=tuple(learned[key] for key in sorted(learned)),
                    target=target, alpha=alpha)

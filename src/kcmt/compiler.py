"""Compilation into deterministic decomposable circuits and the
theory-aware artifact pipelines built on top of it.

The propositional core turns an NNF input into a decision-DNNF: a DAG
whose AND nodes split over disjoint atom sets and whose OR nodes are
binary decisions on one variable. Smoothing pads decision branches so
every OR ranges over the same atoms; its `v or not v` gadgets are
decisions too, so the result is still a decision-DNNF.

One pipeline, in two modes over one abstraction of the input (variable
i is the atom set's i-th atom), conjoins clausal lemmas with the formula
(`build_tred`) or with its negation (`build_text`) before compiling.
`build_tred` keeps exactly the theory-consistent models of the formula.
`build_text` stands for the paper's tExtended form, formula or negated
lemmas, which adds every inconsistent total assignment to them; it
stores that form's complement, the negation conjoined with its own
lemmas, which means the same model set and compiles to a far smaller
circuit. A d-DNNF cannot be negated in polytime, so the complement is
compiled, not derived. The input's arena is read, never written. The
pipeline can also target a reduced ordered BDD backend, whose
canonicity gives constant-time equivalence checks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from .formulas import (AND, FALSE_KIND, LIT, OR, TRUE_KIND, AtomSet, Dag,
                       abstract, atoms_of, fold, gather, translate)
from .lemmas import (TARGET_FORMULA, TARGET_NEGATION, TARGET_TOP, LemmaSet,
                     abstract_clauses, lemmas_of)
from .obdd import ObddManager, ObddRef, from_formula

MODE_T_REDUCED = "tReduced"
MODE_T_EXTENDED = "tExtended"

KIND_DDNNF = "ddnnf"
KIND_OBDD = "obdd"

# Artifact mode -> the lemma targets its circuit is compiled with.
LEMMA_TARGETS = {MODE_T_REDUCED: (TARGET_FORMULA, TARGET_TOP),
                 MODE_T_EXTENDED: (TARGET_NEGATION, TARGET_TOP)}


class CompileError(ValueError):
    """Unusable compiler input (non-NNF node, bad order, bad scope)."""


def partition(pdag: Dag, node: int) -> list[int]:
    """Split a conjunction into connected components of the incidence
    graph linking conjuncts that share an atom.

    Returns one node per component, the conjunction of its conjuncts,
    ordered by each component's first conjunct. Non-AND nodes form a
    single component.
    """
    if pdag.kind(node) != AND:
        return [node]
    kids = pdag.children(node)
    parent = list(range(len(kids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    holder: dict = {}
    for i, child in enumerate(kids):
        for key in pdag.keys_of(child):
            if key in holder:
                parent[find(i)] = find(holder[key])
            else:
                holder[key] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(kids)):
        groups.setdefault(find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda g: g[0])
    return [kids[g[0]] if len(g) == 1 else pdag.and_([kids[i] for i in g])
            for g in ordered]


def select_literal(pdag: Dag, node: int) -> int:
    """Positive literal of the most frequently referenced variable.

    Frequency counts literal occurrences in child slots of the nodes
    reachable from `node` (each DAG node once), plus the node itself if
    it is a literal. Ties break toward the lowest variable index.
    """
    tag = pdag.kind(node)
    if tag in (TRUE_KIND, FALSE_KIND):
        raise CompileError("a constant mentions no variable")
    counts: dict = {}
    if tag == LIT:
        counts[pdag.leaf(node)[0]] = 1
    for n in pdag.reachable(node):
        if pdag.kind(n) != LIT:
            for child in pdag.children(n):
                if pdag.kind(child) == LIT:
                    var = pdag.leaf(child)[0]
                    counts[var] = counts.get(var, 0) + 1
    best = min(counts, key=lambda v: (-counts[v], v))
    return pdag.lit(best, True)


def compile_ddnnf(pdag: Dag, node: int) -> int:
    """Compile an NNF node into a decision-DNNF in the same arena.

    Branching order: assert a literal conjunct when one exists, or decide
    the variable of a literal disjunct l as l or (not l and the residual
    under not l); split independent components, otherwise decide the
    selected variable and recurse on both residuals. The disjunct rule is
    the dual of the conjunct rule: without it, the complement of a CNF, a
    DNF, is decided one selected variable at a time and grows
    exponentially. Residuals are hash-consed, so the cache is keyed on
    node handles.
    """
    if not pdag.is_nnf(node):
        raise CompileError("compilation input must be in negation normal form")

    def step(n: int) -> Generator:
        tag = pdag.kind(n)
        if tag in (TRUE_KIND, FALSE_KIND, LIT):
            return n
        for child in pdag.children(n):
            if pdag.kind(child) == LIT:
                var, pol = pdag.leaf(child)
                if tag == AND:
                    rest = yield pdag.residual(n, {var: pol})
                    return pdag.and_([child, rest])
                rest = yield pdag.residual(n, {var: not pol})
                return pdag.or_([child, pdag.and_([pdag.lit(var, not pol),
                                                   rest])])
        if tag == AND:
            parts = partition(pdag, n)
            if len(parts) > 1:
                return pdag.and_((yield from gather(parts)))
        var, _ = pdag.leaf(select_literal(pdag, n))
        hi = yield pdag.residual(n, {var: True})
        lo = yield pdag.residual(n, {var: False})
        return pdag.or_([pdag.and_([pdag.lit(var, True), hi]),
                         pdag.and_([pdag.lit(var, False), lo])])

    return fold(node, step, {})


def smooth(pdag: Dag, node: int, nvars: int) -> int:
    """Pad decision branches so every OR ranges over the same atoms, and
    the root over variables 1..nvars.

    Padding conjoins `v or not v` gadgets in ascending variable order.
    """
    if not pdag.is_nnf(node):
        raise CompileError("smoothing input must be in negation normal form")
    target = frozenset(range(1, nvars + 1))
    if not pdag.keys_of(node) <= target:
        raise CompileError("smoothing scope must cover the node's variables")

    def pad(n: int, missing) -> int:
        if not missing:
            return n
        gadgets = [pdag.or_([pdag.lit(v, True), pdag.lit(v, False)])
                   for v in sorted(missing)]
        return pdag.and_([n] + gadgets)

    def visit(n: int) -> Generator:
        tag = pdag.kind(n)
        if tag in (TRUE_KIND, FALSE_KIND, LIT):
            return n
        kids = pdag.children(n)
        if tag == AND:
            return pdag.and_((yield from gather(kids)))
        union = frozenset().union(*(pdag.keys_of(c) for c in kids))
        padded = []
        for c in kids:
            padded.append(pad((yield c), union - pdag.keys_of(c)))
        return pdag.or_(padded)

    body = fold(node, visit, {})
    return pad(body, target - pdag.keys_of(body))


@dataclass
class ValidationReport:
    decomposable: bool
    deterministic: bool
    smooth: bool
    first_violation: str | None = None


def _asserted_literals(pdag: Dag, node: int) -> tuple:
    """Literals a branch asserts, in child order: itself, or its direct
    AND conjuncts."""
    tag = pdag.kind(node)
    if tag == LIT:
        return (pdag.leaf(node),)
    if tag == AND:
        return tuple(pdag.leaf(c) for c in pdag.children(node)
                     if pdag.kind(c) == LIT)
    return ()


def decision_var(pdag: Dag, node: int):
    """Variable a binary OR decides, or None when it has no such shape.

    The OR decides v when one branch asserts v and the other asserts not
    v, which makes the branches mutually exclusive. When several
    variables qualify, the first one the left branch asserts wins. The
    writer and `validate` ask it of every OR.
    """
    kids = pdag.children(node)
    if len(kids) != 2:
        return None
    right = set(_asserted_literals(pdag, kids[1]))
    for v, p in _asserted_literals(pdag, kids[0]):
        if (v, not p) in right:
            return v
    return None


def validate(pdag: Dag, node: int, nvars: int | None = None) -> ValidationReport:
    """Check decomposability, determinism, and smoothness of an NNF node.

    Determinism here is the decision discipline: every OR must be a
    binary decision whose branches assert complementary literals of one
    variable. With `nvars`, smoothness additionally requires the root
    to range over variables 1..nvars exactly.
    """
    if not pdag.is_nnf(node):
        raise CompileError("validation input must be in negation normal form")
    report = ValidationReport(True, True, True)
    violations: list[str] = []

    nodes = sorted(pdag.reachable(node))
    for n in nodes:
        tag = pdag.kind(n)
        if tag == AND and report.decomposable:
            used: set = set()
            for child in pdag.children(n):
                keys = pdag.keys_of(child)
                if used & keys:
                    report.decomposable = False
                    violations.append(
                        "conjunction %d shares atoms between conjuncts" % n)
                    break
                used |= keys
        if tag == OR and report.deterministic:
            if decision_var(pdag, n) is None:
                report.deterministic = False
                violations.append(
                    "disjunction %d is not a binary decision on one variable"
                    % n)
        if tag == OR and report.smooth:
            kids = pdag.children(n)
            first = pdag.keys_of(kids[0])
            if any(pdag.keys_of(c) != first for c in kids[1:]):
                report.smooth = False
                violations.append(
                    "disjunction %d has branches over unequal atom sets" % n)
    if nvars is not None and report.smooth and node != pdag.FALSE:
        expected = frozenset(range(1, nvars + 1))
        if pdag.keys_of(node) != expected:
            report.smooth = False
            violations.append(
                "root ranges over %d of %d variables"
                % (len(pdag.keys_of(node)), nvars))
    report.first_violation = violations[0] if violations else None
    return report


@dataclass
class CompiledArtifact:
    """A compiled formula plus everything queries need to interpret it.

    Variable i of the circuit is atom `alpha.atom_at(i)`. `kind` picks the backend: "ddnnf" roots live in `dag`, "obdd" roots
    in `manager`, which is the root's own manager, filled from the root
    when omitted. `mode` records which lemma transformation produced the
    circuit and therefore which queries it can answer soundly; the root of
    a tExtended artifact is the complement of the tExtended form. A d-DNNF
    artifact's `dag` holds only its circuit, as built or loaded. Queries
    read the circuit as it is and add no node to `dag` or `manager`.
    """
    kind: str
    mode: str
    alpha: AtomSet
    lemmas: LemmaSet
    root: int | ObddRef
    dag: Dag | None = None
    manager: ObddManager | None = None

    def __post_init__(self):
        if isinstance(self.root, ObddRef):
            if self.manager is None:
                self.manager = self.root.manager
            elif self.manager is not self.root.manager:
                raise CompileError("the artifact's manager is not its "
                                   "root's manager")

    @property
    def order(self) -> tuple | None:
        """The OBDD's variable order; None for a d-DNNF."""
        return self.manager.order if self.manager is not None else None

    @property
    def nvars(self) -> int:
        return len(self.alpha)

    def smooth_root(self) -> int:
        """The root smoothed over all of alpha, built in `dag`."""
        if self.kind != KIND_DDNNF:
            raise CompileError("smoothing applies to the ddnnf backend only")
        return smooth(self.dag, self.root, self.nvars)


def _build(mode: str, fdag: Dag, node: int, alpha: AtomSet | None, scope,
           backend, kind, order, manager,
           lemmas: LemmaSet | None) -> CompiledArtifact:
    """Both pipelines: abstract the formula once, into a working arena,
    find the lemmas of the abstraction (tReduced) or of its negation
    (tExtended) there unless `lemmas` is given, conjoin them with the
    abstraction or its negation, compile, and copy a d-DNNF into an arena
    of its own. The d-DNNF is left unsmoothed; `smooth_root` pads it."""
    if alpha is None:
        alpha = atoms_of(fdag, node)
    reduced = mode == MODE_T_REDUCED
    if kind == KIND_OBDD:
        identity = tuple(range(1, len(alpha) + 1))
        if manager is not None and order is not None and \
                tuple(order) != manager.order:
            raise CompileError(
                "order conflicts with the shared manager's order")
        order = manager.order if manager is not None else \
            tuple(order if order is not None else identity)
        if sorted(order) != list(identity):
            raise CompileError("order must be a permutation of variables 1..%d"
                               % len(identity))
        manager = manager if manager is not None else ObddManager(order)
    elif kind != KIND_DDNNF:
        raise CompileError("unknown artifact kind %r" % kind)
    if lemmas is not None:
        # a precomputed set must have been enumerated for the same pipeline
        # and the same atom ordering, or the mode guarantee is lost
        targets = LEMMA_TARGETS[mode]
        if lemmas.target not in targets:
            raise CompileError("lemma set targets %r, expected one of %s"
                               % (lemmas.target, ", ".join(targets)))
        if list(lemmas.alpha) != list(alpha):
            raise CompileError(
                "lemma set was built against a different atom set")
    pdag = Dag()
    prop = abstract(fdag, node, alpha, pdag)
    # tExtended stores the tReduced form of the negation: its complement.
    target = prop if reduced else pdag.negate(prop)
    if lemmas is None:
        label = None if reduced or scope != "formula" else TARGET_NEGATION
        lemmas = lemmas_of(pdag, target, alpha, scope, backend, label)
    combined = pdag.and_([target, abstract_clauses(lemmas, alpha, pdag)])
    if kind == KIND_OBDD:
        root = from_formula(pdag, combined, manager)
        return CompiledArtifact(kind, mode, alpha, lemmas, root)
    root = compile_ddnnf(pdag, pdag.to_nnf(combined))
    circuit = Dag()
    root = translate(pdag, root, circuit, lambda key: key)
    return CompiledArtifact(kind, mode, alpha, lemmas, root, dag=circuit)


def build_tred(fdag: Dag, node: int, alpha: AtomSet | None = None, *,
               scope: str = "formula", backend=None, kind: str = KIND_DDNNF,
               order=None, manager: ObddManager | None = None,
               lemmas: LemmaSet | None = None) -> CompiledArtifact:
    """Compile the conjunction of a formula with its lemma clauses.

    Every propositional model of the result is theory-consistent, so
    consistency, clausal entailment, counting, and model enumeration
    answer the theory-level question by purely propositional means.

    A caller that already enumerated (to time or dump the set) can pass
    `lemmas` to skip re-enumeration; target and atom set must match. A
    d-DNNF is built unsmoothed; `smooth_root` pads it over all of alpha.
    """
    return _build(MODE_T_REDUCED, fdag, node, alpha, scope, backend, kind,
                  order, manager, lemmas)


def build_text(fdag: Dag, node: int, alpha: AtomSet | None = None, *,
               scope: str = "formula", backend=None, kind: str = KIND_DDNNF,
               order=None, manager: ObddManager | None = None,
               lemmas: LemmaSet | None = None) -> CompiledArtifact:
    """Compile the tExtended form of a formula, stored as its complement.

    The tExtended form is the formula or its negated lemma clauses, where
    the lemmas target the formula's negation, so every theory-unsat total
    assignment satisfies it. The artifact stores its complement instead:
    the negation conjoined with those lemma clauses, whose models are
    exactly the theory-consistent models of the negation. The formula is
    valid iff the complement has no model, and a cube is an implicant iff
    no model of the complement extends it, so both queries are one
    propositional count.

    A precomputed `lemmas` set must target the negation (or the full
    assignment space) over the same atom set. A d-DNNF is built
    unsmoothed; `smooth_root` pads it over all of alpha.
    """
    return _build(MODE_T_EXTENDED, fdag, node, alpha, scope, backend, kind,
                  order, manager, lemmas)


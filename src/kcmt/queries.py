"""The eight theory-level queries, answered propositionally on artifacts.

Each query is guarded by the artifact mode that makes the propositional
answer coincide with the theory-level one: consistency, clausal
entailment, counting, and enumeration need a T-reduced artifact;
validity and implicant checks need a T-extended one. Equivalence and
sentential entailment additionally need the canonical OBDD backend,
where they reduce to handle identity and one linear walk.

CO, CE, CT, CT under assumptions, VA and IM all reduce to one count of
the models that extend a set of fixed literals (`_count`): a single
bottom-up pass over the circuit as it is, `Dag.model_count` on a d-DNNF
and `ObddManager.satcount` on an OBDD. Neither adds a node. A T-extended
artifact stores the complement of its model set (see
`compiler.build_text`), so VA and IM are emptiness checks: a count of
zero, over all of alpha or under the cube.

ME expands the partial assignment of every proof tree of the d-DNNF, or
of every root-to-TRUE path of the OBDD, over the variables it leaves
free. Every OR is a decision and every AND is decomposable, so two proof
trees disagree on a decided variable: the expansions are disjoint and
list each model once, with no smoothing and no node added. Assignments
are packed integers, atom 1 in the top bit: a partial one is a pair of
masks (assigned, true), an AND ORs its conjuncts' pairs, and the models
are sorted once, as integers, in descending order, which is atom-index
order with true first. Each model becomes an `Assignment` only as it is
yielded, from literal pairs built once per call.

Wrong-mode calls always raise, never return a wrong answer. Queries
mentioning atoms outside the artifact's atom set are rejected: the atom
set is fixed at compilation time.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import obdd as _obdd
from .compiler import (KIND_OBDD, MODE_T_EXTENDED, MODE_T_REDUCED,
                       CompiledArtifact)
from .formulas import (AND, LIT, OR, TRUE_KIND, AbstractionError, Assignment,
                       Atom)


class QueryError(ValueError):
    """Malformed cube or clause: duplicate atom, or atom outside alpha."""


class ModeError(Exception):
    """Query asked of an artifact whose mode cannot answer it soundly."""


class UnsupportedQueryError(ModeError):
    """Query outside the backend's scope (EQ/SE need matching OBDDs)."""


def _require(artifact: CompiledArtifact, mode: str, query: str) -> None:
    if artifact.mode != mode:
        raise ModeError("%s requires a %s artifact, got %s"
                        % (query, mode, artifact.mode))


def _indexed(artifact: CompiledArtifact,
             literals: Iterable[tuple[Atom, bool]]) -> dict[int, bool]:
    """Map atom-literals to variable indices, rejecting malformed input."""
    out: dict[int, bool] = {}
    for atom, positive in literals:
        try:
            idx = artifact.alpha.index_of(atom)
        except AbstractionError:
            raise QueryError("atom %s is outside the artifact's atom set"
                             % atom) from None
        if idx in out:
            raise QueryError("atom %s appears twice" % atom)
        out[idx] = bool(positive)
    return out


def _bump(stats: dict | None, visits: int = 1) -> None:
    if stats is not None:
        stats["visits"] = stats.get("visits", 0) + visits


def _count(artifact: CompiledArtifact, fixed: dict[int, bool],
           stats: dict | None = None) -> int:
    """Models over alpha that extend `fixed` (variable index to value)."""
    if artifact.kind == KIND_OBDD:
        _bump(stats)
        return artifact.root.manager.satcount(artifact.root.node, fixed)
    _bump(stats, artifact.root + 1)
    return artifact.dag.model_count(artifact.root, artifact.nvars, fixed)


# -- the eight queries -------------------------------------------------------


def is_consistent(artifact: CompiledArtifact,
                  stats: dict | None = None) -> bool:
    """CO: theory satisfiability, as a nonzero model count."""
    _require(artifact, MODE_T_REDUCED, "isConsistent")
    return _count(artifact, {}, stats) > 0


def is_valid(artifact: CompiledArtifact, stats: dict | None = None) -> bool:
    """VA: theory validity, iff the stored complement has no model."""
    _require(artifact, MODE_T_EXTENDED, "isValid")
    return _count(artifact, {}, stats) == 0


def entails_clause(artifact: CompiledArtifact,
                   clause: Sequence[tuple[Atom, bool]],
                   stats: dict | None = None) -> bool:
    """CE: artifact ⊨ clause, iff no model extends the negated clause."""
    _require(artifact, MODE_T_REDUCED, "entailsClause")
    negated = [(atom, not positive) for atom, positive in clause]
    return _count(artifact, _indexed(artifact, negated), stats) == 0


def is_implicant(artifact: CompiledArtifact,
                 cube: Sequence[tuple[Atom, bool]],
                 stats: dict | None = None) -> bool:
    """IM: cube ⊨ artifact, iff no model of the stored complement extends
    the cube."""
    _require(artifact, MODE_T_EXTENDED, "isImplicant")
    return _count(artifact, _indexed(artifact, cube), stats) == 0


def count_models(artifact: CompiledArtifact,
                 stats: dict | None = None) -> int:
    """CT: number of theory-consistent total assignments."""
    _require(artifact, MODE_T_REDUCED, "countModels")
    return _count(artifact, {}, stats)


def count_models_assume(artifact: CompiledArtifact,
                        cube: Sequence[tuple[Atom, bool]],
                        stats: dict | None = None) -> int:
    """CT under assumptions: models extending the cube."""
    _require(artifact, MODE_T_REDUCED, "countModelsAssume")
    return _count(artifact, _indexed(artifact, cube), stats)


def enumerate_models(artifact: CompiledArtifact) -> Iterator[Assignment]:
    """ME: an iterator over all theory-consistent total assignments,
    lexicographic in atom index with true before false. The call itself
    checks the mode and computes the models."""
    _require(artifact, MODE_T_REDUCED, "enumerateModels")
    n = artifact.nvars
    # The partial assignments of each node, bottom-up in handle order, as
    # (assigned mask, true bits) pairs with atom i at bit n - i.
    if artifact.kind == KIND_OBDD:
        manager = artifact.root.manager
        root = artifact.root.node
        parts: dict[int, list[tuple[int, int]]] = {
            manager.FALSE: [], manager.TRUE: [(0, 0)]}
        for node in manager.reachable(root):
            bit = 1 << (n - manager.var_at(node))
            hi, lo = manager.branches(node)
            parts[node] = [(m | bit, t | bit) for m, t in parts[hi]] + \
                [(m | bit, t) for m, t in parts[lo]]
    else:
        pdag = artifact.dag
        root = artifact.root
        parts = {}
        for node in sorted(pdag.reachable(root)):
            tag = pdag.kind(node)
            if tag == LIT:
                var, pol = pdag.leaf(node)
                bit = 1 << (n - var)
                parts[node] = [(bit, bit if pol else 0)]
            elif tag == AND:
                # Conjuncts share no variable, so OR merges their pairs.
                out = [(0, 0)]
                for child in pdag.children(node):
                    out = [(m | cm, t | ct) for m, t in out
                           for cm, ct in parts[child]]
                parts[node] = out
            elif tag == OR:
                parts[node] = [p for child in pdag.children(node)
                               for p in parts[child]]
            else:
                parts[node] = [(0, 0)] if tag == TRUE_KIND else []
    # Each pair's models: its true bits under every subset of its free bits.
    full = (1 << n) - 1
    models = []
    for mask, bits in parts[root]:
        free = sub = full & ~mask
        while True:
            models.append(bits | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    # Atom 1 is the top bit, so descending order is lexicographic, true first.
    models.sort(reverse=True)
    # An Assignment keeps its items in the atoms' sort-key order.
    alpha = artifact.alpha
    literals = [(1 << (n - alpha.index_of(a)), (a, True), (a, False))
                for a in sorted(alpha, key=Atom.sort_key)]
    return (Assignment._sorted(tuple(pos if model & bit else neg
                                     for bit, pos, neg in literals))
            for model in models)


def _matching_obdds(a: CompiledArtifact, b: CompiledArtifact,
                    query: str) -> int:
    """Shared precondition of EQ/SE; returns b's root in a's manager."""
    if a.kind != KIND_OBDD or b.kind != KIND_OBDD:
        raise UnsupportedQueryError(
            "%s is supported on OBDD-backed artifacts only" % query)
    if a.mode != b.mode:
        raise UnsupportedQueryError(
            "%s requires artifacts of the same mode, got %s and %s"
            % (query, a.mode, b.mode))
    if a.alpha != b.alpha:
        raise UnsupportedQueryError(
            "%s requires artifacts over the same atom set" % query)
    if a.order != b.order:
        raise UnsupportedQueryError(
            "%s requires artifacts with the same variable order" % query)
    if a.root.manager is b.root.manager:
        return b.root.node
    return _obdd.copy_into(b.root, a.root.manager).node


def equivalent(a: CompiledArtifact, b: CompiledArtifact,
               stats: dict | None = None) -> bool:
    """EQ: theory equivalence, as canonical-handle identity."""
    other = _matching_obdds(a, b, "equivalent")
    _bump(stats)
    return a.root.node == other


def sentential_entails(a: CompiledArtifact, b: CompiledArtifact,
                       stats: dict | None = None) -> bool:
    """SE: theory entailment between artifacts, as one OBDD implication.

    T-extended artifacts store complements, and a ⊨ b iff not b ⊨ not a,
    so their roots are compared the other way round. Equivalence needs
    no such turn.
    """
    other = _matching_obdds(a, b, "sententialEntails")
    _bump(stats)
    first, second = a.root, a.root.manager.ref(other)
    if a.mode == MODE_T_EXTENDED:
        first, second = second, first
    return _obdd.entails(first, second)

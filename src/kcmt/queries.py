"""The eight theory-level queries, answered propositionally on artifacts.

Each query is guarded by the artifact mode that makes the propositional
answer coincide with the theory-level one: consistency, clausal
entailment, counting, and enumeration need a T-reduced artifact;
validity and implicant checks need a T-extended one. Equivalence and
sentential entailment additionally need the canonical OBDD backend,
where they reduce to handle identity and one linear apply.

CO, CE, CT, CT under assumptions, VA and IM all reduce to one count of
the models that extend a set of fixed literals (`_count`): a single
bottom-up pass over the d-DNNF as loaded, which adds no node to it, or
one restriction per literal and a satcount on an OBDD.

ME expands the partial assignment of every proof tree of the d-DNNF, or
of every root-to-TRUE path of the OBDD, over the variables it leaves
free. Every OR is a decision and every AND is decomposable, so two proof
trees disagree on a decided variable: the expansions are disjoint and
list each model once, with no smoothing and no node added.

Wrong-mode calls always raise, never return a wrong answer. Queries
mentioning atoms outside the artifact's atom set are rejected: the atom
set is fixed at compilation time.
"""

from __future__ import annotations

from functools import cache
from itertools import product
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
            idx = artifact.amap.index(atom)
        except AbstractionError:
            raise QueryError("atom %s is outside the artifact's atom set"
                             % atom) from None
        if idx in out:
            raise QueryError("atom %s appears twice" % atom)
        out[idx] = bool(positive)
    return out


def _bump(stats: dict | None) -> None:
    if stats is not None:
        stats["visits"] = stats.get("visits", 0) + 1


def _count(artifact: CompiledArtifact, fixed: dict[int, bool],
           stats: dict | None = None) -> int:
    """Number of total assignments over alpha that extend `fixed` (variable
    index to value) and satisfy the root; either backend.

    A d-DNNF is read as it is, in one bottom-up pass. With F free
    variables, a node's value is 2**F times its probability when every
    free variable is true with probability 1/2: decisions add, because
    their branches exclude each other, and conjunctions multiply, because
    their conjuncts share no variable. Every partial product of a
    conjunction spans at most F free variables, so `out * value >> F`
    stays an exact integer. Both properties are what `compile_ddnnf`
    builds and what `read_nnf` checks on load.
    """
    if artifact.kind == KIND_OBDD:
        manager = artifact.manager
        node = artifact.root.node
        for var, value in fixed.items():
            node = manager.restrict(node, var, value)
        _bump(stats)
        return manager.satcount(node) >> len(fixed)
    pdag = artifact.dag
    free = artifact.nvars - len(fixed)
    top = 1 << free
    memo: dict[int, int] = {}

    # Plain recursion rather than `formulas.fold`: a decision circuit is at
    # most 2·|alpha|+1 deep, and on the query_warm benchmark the fold's
    # generator per node cost about 50% in wall time and 55% in median
    # query latency.
    def rec(n: int) -> int:
        out = memo.get(n)
        if out is not None:
            return out
        _bump(stats)
        tag = pdag.kind(n)
        if tag == LIT:
            var, positive = pdag.leaf(n)
            value = fixed.get(var)
            if value is None:
                out = top >> 1
            else:
                out = top if value == positive else 0
        elif tag == AND:
            out = top
            for c in pdag.children(n):
                out = out * rec(c) >> free
                if not out:
                    break
        elif tag == OR:
            out = sum(rec(c) for c in pdag.children(n))
        else:
            out = top if tag == TRUE_KIND else 0
        memo[n] = out
        return out

    return rec(artifact.root)


# -- the eight queries -------------------------------------------------------


def is_consistent(artifact: CompiledArtifact,
                  stats: dict | None = None) -> bool:
    """CO: theory satisfiability, as a nonzero model count."""
    _require(artifact, MODE_T_REDUCED, "isConsistent")
    return _count(artifact, {}, stats) > 0


def is_valid(artifact: CompiledArtifact, stats: dict | None = None) -> bool:
    """VA: theory validity, as a full propositional model count."""
    _require(artifact, MODE_T_EXTENDED, "isValid")
    return _count(artifact, {}, stats) == 1 << artifact.nvars


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
    """IM: cube ⊨ artifact, iff every assignment extending the cube is a
    model."""
    _require(artifact, MODE_T_EXTENDED, "isImplicant")
    fixed = _indexed(artifact, cube)
    return _count(artifact, fixed, stats) == \
        1 << (artifact.nvars - len(fixed))


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
    """ME: all theory-consistent total assignments, lexicographic in atom
    index with true before false."""
    _require(artifact, MODE_T_REDUCED, "enumerateModels")
    if artifact.kind == KIND_OBDD:
        manager = artifact.manager
        root = artifact.root.node

        def partials(node: int) -> list[dict]:
            if manager.is_terminal(node):
                return [{}] if node == manager.TRUE else []
            var = manager.var_at(node)
            return [{var: value, **p} for value, child in
                    zip((True, False), manager.branches(node))
                    for p in rec(child)]
    else:
        pdag = artifact.dag
        root = artifact.root

        def partials(node: int) -> list[dict]:
            tag = pdag.kind(node)
            if tag == LIT:
                var, pol = pdag.leaf(node)
                return [{var: pol}]
            if tag == AND:
                out = [{}]
                for child in pdag.children(node):
                    out = [{**m, **tail} for m in out for tail in rec(child)]
                return out
            if tag == OR:
                return [m for child in pdag.children(node)
                        for m in rec(child)]
            return [{}] if tag == TRUE_KIND else []

    rec = cache(partials)
    indices = range(1, artifact.nvars + 1)
    found = []
    for partial in rec(root):
        free = [i for i in indices if i not in partial]
        for values in product((True, False), repeat=len(free)):
            model = {**partial, **dict(zip(free, values))}
            found.append(tuple(model[i] for i in indices))
    # Descending order of the value tuples is lexicographic, true first.
    found.sort(reverse=True)
    atoms = [artifact.amap.atom(i) for i in indices]
    for values in found:
        yield Assignment(list(zip(atoms, values)))


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
    if a.manager is b.manager:
        return b.root.node
    return _obdd.copy_into(b.root, a.manager).node


def equivalent(a: CompiledArtifact, b: CompiledArtifact,
               stats: dict | None = None) -> bool:
    """EQ: theory equivalence, as canonical-handle identity."""
    other = _matching_obdds(a, b, "equivalent")
    _bump(stats)
    return a.root.node == other


def sentential_entails(a: CompiledArtifact, b: CompiledArtifact,
                       stats: dict | None = None) -> bool:
    """SE: theory entailment between artifacts, as one OBDD implication."""
    other = _matching_obdds(a, b, "sententialEntails")
    _bump(stats)
    return _obdd.entails(a.root, a.manager.ref(other))

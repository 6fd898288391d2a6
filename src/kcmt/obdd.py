"""Reduced ordered binary decision diagrams over propositional variables.

One manager owns one variable order and all nodes built under it. Reduction
(no node with identical branches, one node per distinct (var, hi, lo) triple)
makes the representation canonical: two functions built in the same manager
are equivalent exactly when their handles coincide, which is what makes
equivalence and entailment constant- resp. linear-time downstream.

Handles are exposed as `ObddRef` values that remember their manager, so
cross-manager mixups fail loudly instead of comparing unrelated integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

from .formulas import (AND, FALSE_KIND, IFF, IMPLIES, LIT, NOT, OR, TRUE_KIND,
                       Dag, fold, gather)


class ObddError(ValueError):
    """Order violation or cross-manager operand mix."""


@dataclass(frozen=True)
class ObddRef:
    manager: "ObddManager"
    node: int

    @property
    def is_false(self) -> bool:
        return self.node == ObddManager.FALSE

    @property
    def is_true(self) -> bool:
        return self.node == ObddManager.TRUE


class ObddManager:
    """Unique table, apply cache, and the standard operations."""

    FALSE = 0
    TRUE = 1

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ObddError("variable order contains duplicates")
        self.order = order
        self._level = {v: i for i, v in enumerate(order)}
        # nodes[i] = (level, hi, lo); terminals sit at a pseudo-level past
        # the last variable so ordering checks are uniform.
        self._nodes: list[tuple[int, int, int]] = [
            (len(order), 0, 0), (len(order), 0, 0)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple, int] = {}
        # satcount of each counted node over the levels from its own down
        self._counts: dict[int, int] = {self.FALSE: 0, self.TRUE: 1}

    # -- structure ----------------------------------------------------------

    def ref(self, node: int) -> ObddRef:
        return ObddRef(self, node)

    @property
    def false(self) -> ObddRef:
        return self.ref(self.FALSE)

    @property
    def true(self) -> ObddRef:
        return self.ref(self.TRUE)

    def level_of(self, node: int) -> int:
        return self._nodes[node][0]

    def var_at(self, node: int) -> int:
        return self.order[self._nodes[node][0]]

    def branches(self, node: int) -> tuple[int, int]:
        return self._nodes[node][1], self._nodes[node][2]

    def is_terminal(self, node: int) -> bool:
        return node <= 1

    def __len__(self) -> int:
        return len(self._nodes)

    def _make(self, level: int, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        key = (level, hi, lo)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def decide(self, level: int, hi: int, lo: int) -> int:
        """The node that tests the variable at `level`: `hi` where it holds,
        `lo` where it does not.

        Both branches must lie strictly below `level`. This is Bryant's
        ite(x, hi, lo) for a top variable x, and it needs no apply.
        """
        if min(self._nodes[hi][0], self._nodes[lo][0]) <= level:
            raise ObddError("branches must lie below level %d" % level)
        return self._make(level, hi, lo)

    def literal(self, var: int, positive: bool = True) -> int:
        lvl = self._level.get(var)
        if lvl is None:
            raise ObddError("variable %d is not in the order" % var)
        return self._make(lvl, self.TRUE, self.FALSE) if positive else \
            self._make(lvl, self.FALSE, self.TRUE)

    # -- operations ---------------------------------------------------------

    def _check(self, other: ObddRef) -> int:
        if other.manager is not self:
            raise ObddError("operands belong to different managers")
        return other.node

    def neg(self, a: int) -> int:
        key = ("~", a)
        out = self._apply_cache.get(key)
        if out is not None:
            return out
        if a == self.FALSE:
            out = self.TRUE
        elif a == self.TRUE:
            out = self.FALSE
        else:
            lvl, hi, lo = self._nodes[a]
            out = self._make(lvl, self.neg(hi), self.neg(lo))
        self._apply_cache[key] = out
        return out

    def _apply2(self, op: str, a: int, b: int) -> int:
        if op == "&":
            if a == self.FALSE or b == self.FALSE:
                return self.FALSE
            if a == self.TRUE:
                return b
            if b == self.TRUE or a == b:
                return a
        elif op == "|":
            if a == self.TRUE or b == self.TRUE:
                return self.TRUE
            if a == self.FALSE:
                return b
            if b == self.FALSE or a == b:
                return a
        elif op == "^":
            if a == b:
                return self.FALSE
            if a == self.FALSE:
                return b
            if b == self.FALSE:
                return a
            if a == self.TRUE:
                return self.neg(b)
            if b == self.TRUE:
                return self.neg(a)
        else:
            raise ObddError("unknown binary op %r" % op)
        # Symmetric ops: normalize the cache key.
        key = (op, a, b) if a <= b else (op, b, a)
        out = self._apply_cache.get(key)
        if out is not None:
            return out
        la, lb = self._nodes[a][0], self._nodes[b][0]
        lvl = min(la, lb)
        a_hi, a_lo = self._nodes[a][1:] if la == lvl else (a, a)
        b_hi, b_lo = self._nodes[b][1:] if lb == lvl else (b, b)
        out = self._make(lvl, self._apply2(op, a_hi, b_hi),
                         self._apply2(op, a_lo, b_lo))
        self._apply_cache[key] = out
        return out

    def and_(self, a: int, b: int) -> int:
        return self._apply2("&", a, b)

    def or_(self, a: int, b: int) -> int:
        return self._apply2("|", a, b)

    def xor(self, a: int, b: int) -> int:
        return self._apply2("^", a, b)

    def implies(self, a: int, b: int) -> int:
        return self._apply2("|", self.neg(a), b)

    def restrict(self, a: int, var: int, value: bool) -> int:
        lvl = self._level.get(var)
        if lvl is None:
            raise ObddError("variable %d is not in the order" % var)
        cache: dict[int, int] = {}

        def rec(n: int) -> int:
            if self._nodes[n][0] > lvl:
                return n
            out = cache.get(n)
            if out is not None:
                return out
            nl, hi, lo = self._nodes[n]
            if nl == lvl:
                out = hi if value else lo
            else:
                out = self._make(nl, rec(hi), rec(lo))
            cache[n] = out
            return out

        return rec(a)

    def satcount(self, a: int) -> int:
        """Number of total assignments over the full order satisfying a."""
        memo = self._counts

        def rec(node: int) -> int:
            out = memo.get(node)
            if out is not None:
                return out
            lvl, hi, lo = self._nodes[node]
            out = (rec(hi) << (self._nodes[hi][0] - lvl - 1)) + \
                  (rec(lo) << (self._nodes[lo][0] - lvl - 1))
            memo[node] = out
            return out

        return rec(a) << self._nodes[a][0]

    def export_text(self, a: int) -> str:
        """One node per line: id var hiId loId, terminals as 0/1."""
        lines = []
        seen = set()

        def rec(n: int) -> None:
            if n in seen or self.is_terminal(n):
                return
            seen.add(n)
            _, hi, lo = self._nodes[n]
            rec(hi)
            rec(lo)
            lines.append("%d %d %d %d" % (n, self.var_at(n), hi, lo))

        rec(a)
        return "\n".join(lines)


# -- public ref-level API ----------------------------------------------------


def apply(op: str, a: ObddRef, b: ObddRef | None = None) -> ObddRef:
    mgr = a.manager
    if op == "not":
        if b is not None:
            raise ObddError("negation takes one operand")
        return mgr.ref(mgr.neg(a.node))
    if b is None:
        raise ObddError("binary op %r takes two operands" % op)
    bn = mgr._check(b)
    ops = {"and": mgr.and_, "or": mgr.or_, "xor": mgr.xor,
           "implies": mgr.implies}
    if op not in ops:
        raise ObddError("unknown op %r" % op)
    return mgr.ref(ops[op](a.node, bn))


def equal(a: ObddRef, b: ObddRef) -> bool:
    a.manager._check(b)
    return a.node == b.node


def entails(a: ObddRef, b: ObddRef) -> bool:
    mgr = a.manager
    return mgr.and_(a.node, mgr.neg(mgr._check(b))) == ObddManager.FALSE


def from_formula(pdag: Dag, node: int, manager: ObddManager) -> ObddRef:
    """Canonical OBDD of a propositional formula (any connectives)."""

    def visit(n: int) -> Generator:
        tag = pdag.kind(n)
        if tag == TRUE_KIND:
            return ObddManager.TRUE
        if tag == FALSE_KIND:
            return ObddManager.FALSE
        if tag == LIT:
            var, pol = pdag.leaf(n)
            return manager.literal(var, pol)
        if tag == AND:
            out = ObddManager.TRUE
            for c in pdag.children(n):
                out = manager.and_(out, (yield c))
            return out
        if tag == OR:
            out = ObddManager.FALSE
            for c in pdag.children(n):
                out = manager.or_(out, (yield c))
            return out
        if tag == NOT:
            return manager.neg((yield pdag.children(n)[0]))
        if tag == IMPLIES:
            a, b = yield from gather(pdag.children(n))
            return manager.implies(a, b)
        if tag == IFF:
            a, b = yield from gather(pdag.children(n))
            return manager.neg(manager.xor(a, b))
        raise ObddError("unknown node tag %r" % tag)

    return manager.ref(fold(node, visit, {}))


def copy_into(a: ObddRef, target: ObddManager) -> ObddRef:
    """Rebuild a node in another manager with the same variable order."""
    src = a.manager
    if src.order != target.order:
        raise ObddError("managers use different variable orders")
    memo: dict[int, int] = {ObddManager.FALSE: ObddManager.FALSE,
                            ObddManager.TRUE: ObddManager.TRUE}

    def rec(n: int) -> int:
        out = memo.get(n)
        if out is not None:
            return out
        lvl, hi, lo = src._nodes[n]
        out = target._make(lvl, rec(hi), rec(lo))
        memo[n] = out
        return out

    return target.ref(rec(a.node))

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
from typing import Generator, Mapping, Sequence

from .formulas import (AND, FALSE_KIND, IFF, IMPLIES, LIT, NOT, OR, TRUE_KIND,
                       Dag, fold, gather)


class ObddError(ValueError):
    """Order violation or cross-manager operand mix."""


@dataclass(frozen=True)
class ObddRef:
    manager: "ObddManager"
    node: int


class ObddManager:
    """Unique table, apply cache, and the standard operations."""

    FALSE = 0
    TRUE = 1
    # Per binary op, the node that absorbs the other operand (xor has
    # none) and the node that leaves it as it is.
    _IDENTITIES = {"&": (FALSE, TRUE), "|": (TRUE, FALSE), "^": (None, FALSE)}

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ObddError("variable order must be a permutation of 1..%d"
                            % len(order))
        self.order = order
        self._level = {v: i for i, v in enumerate(order)}
        # nodes[i] = (level, hi, lo); terminals sit at a pseudo-level past
        # the last variable so ordering checks are uniform.
        self._nodes: list[tuple[int, int, int]] = [
            (len(order), 0, 0), (len(order), 0, 0)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple, int] = {}

    # -- structure ----------------------------------------------------------

    def ref(self, node: int) -> ObddRef:
        return ObddRef(self, node)

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
        return self._apply2("^", a, self.TRUE)

    def _apply2(self, op: str, a: int, b: int) -> int:
        """`a op b` by Shannon expansion on the top variable of the two.

        Pending expansions wait on an explicit stack, so the depth of a
        diagram is bounded by memory only. The hi branch is expanded before
        the lo branch, and a node is made after both.
        """
        zero, unit = self._IDENTITIES[op]
        nodes, cache, make = self._nodes, self._apply_cache, self._make
        values: list[int] = []
        # (a, b, None) expands a op b; (level, None, key) makes the node of
        # the two values on top of `values` and caches it under `key`.
        todo: list[tuple] = [(a, b, None)]
        while todo:
            a, b, key = todo.pop()
            if key is not None:
                lo = values.pop()
                out = make(a, values.pop(), lo)
                cache[key] = out
                values.append(out)
                continue
            if a == b:
                out = self.FALSE if op == "^" else a
            elif a == zero or b == zero:
                out = zero
            elif a == unit:
                out = b
            elif b == unit:
                out = a
            else:
                # Symmetric ops: normalize the cache key.
                key = (op, a, b) if a <= b else (op, b, a)
                out = cache.get(key)
            if out is None:
                la, lb = nodes[a][0], nodes[b][0]
                lvl = min(la, lb)
                a_hi, a_lo = nodes[a][1:] if la == lvl else (a, a)
                b_hi, b_lo = nodes[b][1:] if lb == lvl else (b, b)
                todo += ((lvl, None, key), (a_lo, b_lo, None),
                         (a_hi, b_hi, None))
            else:
                values.append(out)
        return values[0]

    def and_(self, a: int, b: int) -> int:
        return self._apply2("&", a, b)

    def or_(self, a: int, b: int) -> int:
        return self._apply2("|", a, b)

    def xor(self, a: int, b: int) -> int:
        return self._apply2("^", a, b)

    def implies(self, a: int, b: int) -> int:
        return self._apply2("|", self.neg(a), b)

    def reachable(self, a: int) -> list[int]:
        """The inner nodes that `a` reaches, itself included, in ascending
        handle order. A node is made after its branches, so one sweep down
        the handles from `a` finds them, and their ascending order is
        bottom-up."""
        reached = bytearray(a + 1)
        reached[a] = 1
        out = []
        for n in range(a, self.TRUE, -1):
            if reached[n]:
                out.append(n)
                _, hi, lo = self._nodes[n]
                reached[hi] = reached[lo] = 1
        out.reverse()
        return out

    def satcount(self, a: int, fixed: Mapping[int, bool] | None = None) -> int:
        """Number of total assignments over the full order that extend
        `fixed` (variable to value) and satisfy a, in one bottom-up pass
        over the nodes `a` reaches. With F free variables, a node's value
        is 2**F times its probability when every free variable is true with
        probability 1/2, so a level that an edge skips needs no correction.
        """
        pick: dict[int, bool] = {}
        for var, value in (fixed or {}).items():
            lvl = self._level.get(var)
            if lvl is None:
                raise ObddError("variable %d is not in the order" % var)
            pick[lvl] = value
        nodes = self._nodes
        values = {self.FALSE: 0,
                  self.TRUE: 1 << (len(self.order) - len(pick))}
        for n in self.reachable(a):
            lvl, hi, lo = nodes[n]
            value = pick.get(lvl)
            if value is None:
                values[n] = (values[hi] + values[lo]) >> 1
            else:
                values[n] = values[hi] if value else values[lo]
        return values[a]


def entails(a: ObddRef, b: ObddRef) -> bool:
    """Whether every model of `a` is a model of `b`, by one walk over the
    pairs of nodes that the two reach under a common path; no node is
    built. Below a path, a node other than FALSE has a model and one other
    than TRUE a countermodel, as both test only variables it leaves free."""
    nodes = a.manager._nodes
    seen = set()
    stack = [(a.node, a.manager._check(b))]
    while stack:
        x, y = pair = stack.pop()
        if x == ObddManager.FALSE or y == ObddManager.TRUE or x == y \
                or pair in seen:
            continue
        if x == ObddManager.TRUE or y == ObddManager.FALSE:
            return False
        seen.add(pair)
        lvl = min(nodes[x][0], nodes[y][0])
        x_hi, x_lo = nodes[x][1:] if nodes[x][0] == lvl else (x, x)
        y_hi, y_lo = nodes[y][1:] if nodes[y][0] == lvl else (y, y)
        stack += ((x_lo, y_lo), (x_hi, y_hi))
    return True


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
        if tag == AND or tag == OR:
            # Deepest operand first: each apply then rebuilds only the
            # levels above the next operand's top, not the whole diagram.
            operands = yield from gather(pdag.children(n))
            operands.sort(key=manager.level_of, reverse=True)
            if tag == AND:
                out, apply = ObddManager.TRUE, manager.and_
            else:
                out, apply = ObddManager.FALSE, manager.or_
            for c in operands:
                out = apply(out, c)
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
    copies = {ObddManager.FALSE: ObddManager.FALSE,
              ObddManager.TRUE: ObddManager.TRUE}
    for n in src.reachable(a.node):
        lvl, hi, lo = src._nodes[n]
        copies[n] = target._make(lvl, copies[hi], copies[lo])
    return target.ref(copies[a.node])

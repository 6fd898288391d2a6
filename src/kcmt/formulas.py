"""Hash-consed formula DAGs over theory atoms.

The central structure is `Dag`, an arena of interned formula nodes. Leaves are
arbitrary hashable keys with a polarity, so the same engine serves three roles:

* T-formulas: leaves are `Atom` objects (Boolean propositions or normalized
  linear-rational constraints);
* Boolean abstractions: leaves are the variables 1..n that an `AtomSet`
  numbers its atoms with;
* compiled circuits: the compiler's output lives in the same propositional
  arena as its input, so residual handles double as exact cache keys.

Structurally identical subtrees always intern to the same handle. Constructors
flatten nested same-operator children, fold constants (psi AND top -> psi,
psi AND bot -> bot, and the duals), drop duplicate children, and push negation
into literals, so downstream code only ever sees simplified nodes.

Every walker whose depth follows the input's nesting runs on `fold`, one
explicit-stack, post-order, memoised traversal. A walker supplies a visit
generator that yields each key whose value it needs and returns its own
value; `fold` keeps the pending visits on a list instead of the interpreter's
stack, so the nesting depth of a formula is bounded only by memory.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Generator, Hashable, Iterable, Iterator, Mapping


class AtomError(ValueError):
    """Raised when an atom is not in normal form, or cannot be normalized
    (a degenerate constraint)."""


class AbstractionError(KeyError):
    """Raised when a formula mentions an atom outside the given atom set."""


# Relations kept in normal form. >= and > are rewritten at construction.
REL_LE = "<="
REL_LT = "<"
REL_EQ = "="
_RELATIONS = (REL_LE, REL_LT, REL_EQ)


@dataclass(frozen=True)
class Atom:
    """A Boolean proposition or a normalized linear-rational constraint.

    The constructor enforces the normal form and raises AtomError otherwise.
    A Boolean atom has a non-empty name and no row. LRA atoms are stored as
    `coeffs rel const` with:
      * coeffs: non-empty tuple of (variable, integer coefficient), sorted
        by non-empty variable name, no zeros, coprime;
      * rel in {<=, <, =}; `linear` negates the term of >= and > instead;
      * for = atoms the lexicographically-first variable's coefficient is
        positive (the only relation where the sign is a free choice);
      * the constant scales along with the coefficients and stays rational.

    Two atoms are equal iff their normal forms are identical. A constraint
    with no variables (trivially true or false) is rejected: the framework
    assumes no atom is by itself T-valid or T-inconsistent.

    The hash and the sort key are computed once, at construction, since
    atoms key the sets and dicts of lemma enumeration and loading, and
    every theory check sorts its literals.
    """

    kind: str  # "bool" | "lra"
    name: str = ""
    coeffs: tuple = ()
    rel: str = ""
    const: Fraction = Fraction(0)
    _hash: int = field(init=False, repr=False, compare=False)
    _sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "lra":
            rel, row = self.rel, self.coeffs
            if rel not in _RELATIONS:
                raise AtomError("unknown relation %r" % (rel,))
            prev, g = "", 0
            for v, a in row:
                # Every name sorts after "", so this also refuses an empty one.
                if (type(v) is not str or type(a) is not int or not a
                        or v <= prev):
                    g = 0
                    break
                prev, g = v, gcd(g, a)
            if (g != 1 or self.name or type(self.const) is not Fraction
                    or (rel == REL_EQ and row[0][1] < 0)):
                raise _not_normal(row, rel, self.const)
        elif self.kind != "bool":
            raise AtomError("unknown atom kind %r" % (self.kind,))
        elif not self.name or self.coeffs or self.rel or self.const:
            raise AtomError("a Boolean atom has a non-empty name and no row, "
                            "not %r" % (self,))
        object.__setattr__(self, "_hash", hash(
            (self.kind, self.name, self.coeffs, self.rel, self.const)))
        object.__setattr__(self, "_sort_key", (
            (0, self.name, "", ()) if self.kind == "bool"
            else (1, self.rel, str(self.const), self.coeffs)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so an unpickled atom
        # recomputes its hash rather than carrying the cached one over.
        return (Atom, (self.kind, self.name, self.coeffs, self.rel,
                       self.const))

    @staticmethod
    def boolean(name: str) -> "Atom":
        return Atom(kind="bool", name=name)

    @staticmethod
    def linear(coeffs: Mapping[str, object], rel: str, const: object) -> "Atom":
        c = {v: Fraction(a) for v, a in coeffs.items() if Fraction(a) != 0}
        k = Fraction(const)
        if rel in (">=", ">"):
            c = {v: -a for v, a in c.items()}
            k = -k
            rel = REL_LE if rel == ">=" else REL_LT
        if not c:  # degenerate: the constructor says so
            return Atom(kind="lra", rel=rel, const=k)
        scale = lcm(*(a.denominator for a in c.values()))
        ints = {v: int(a * scale) for v, a in c.items()}
        g = gcd(*ints.values())
        k = k * scale / g
        row = tuple((v, ints[v] // g) for v in sorted(ints))
        if rel == REL_EQ and row[0][1] < 0:
            row = tuple((v, -a) for v, a in row)
            k = -k
        return Atom(kind="lra", coeffs=row, rel=rel, const=k)

    def sort_key(self):
        return self._sort_key

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.coeffs)

    def __str__(self) -> str:
        if self.kind == "bool":
            return self.name
        parts = []
        for i, (v, a) in enumerate(self.coeffs):
            if i == 0:
                if a == 1:
                    parts.append(v)
                elif a == -1:
                    parts.append("-" + v)
                else:
                    parts.append("%d*%s" % (a, v))
            else:
                sign = "+" if a > 0 else "-"
                mag = abs(a)
                parts.append("%s %s" % (sign, v if mag == 1 else "%d*%s" % (mag, v)))
        k = self.const
        kstr = str(k.numerator) if k.denominator == 1 else "%d/%d" % (k.numerator, k.denominator)
        return "%s %s %s" % (" ".join(parts), self.rel, kstr)


def _not_normal(row: tuple, rel: str, const) -> AtomError:
    """Why a row with a known relation is no LRA atom."""
    if not any(a for _, a in row):
        return AtomError(
            "degenerate atom (no variables left): 0 %s %s is trivially "
            "true or false and may not be an atom" % (rel, const))
    return AtomError("linear atom is not in normal form: %r %s %s"
                     % (row, rel, const))


class AtomSet:
    """Ordered, duplicate-free set of atoms, and the one numbering of the
    Boolean abstraction: the i-th atom added is variable i, for i in 1..n
    (`index_of`, `atom_at`). `alpha[i]` is the 0-based sequence lookup."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: list[Atom] = []
        self._index: dict[Atom, int] = {}  # atom -> its variable, 1-based
        # backend -> theory outcomes of lemma enumerations; see `outcomes`
        self._outcomes: dict = {}
        for a in atoms:
            self.add(a)

    def add(self, atom: Atom) -> None:
        if atom not in self._index:
            self._atoms.append(atom)
            self._index[atom] = len(self._atoms)

    def union(self, other: "AtomSet") -> "AtomSet":
        out = AtomSet(self._atoms)
        for a in other:
            out.add(a)
        return out

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._index

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __getitem__(self, i: int) -> Atom:
        return self._atoms[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomSet) and self._atoms == other._atoms

    def index_of(self, atom: Atom) -> int:
        """The variable of `atom`, in 1..n."""
        try:
            return self._index[atom]
        except KeyError:
            raise AbstractionError("atom not in the atom set: %s" % atom) \
                from None

    def atom_at(self, index: int) -> Atom:
        """The atom of variable `index`; nothing outside 1..n has one."""
        if 1 <= index <= len(self._atoms):
            return self._atoms[index - 1]
        raise AbstractionError("no atom with index %d" % index)

    def outcomes(self, backend) -> dict:
        """The theory outcomes that every lemma enumeration over this object
        with `backend` (None: the default one) shares; see `kcmt.lemmas`.
        A new atom set starts with none, and equality ignores them."""
        return self._outcomes.setdefault(backend, {})

    def __repr__(self) -> str:
        return "AtomSet([%s])" % ", ".join(str(a) for a in self._atoms)


class Assignment:
    """Immutable truth assignment over atoms (possibly partial)."""

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Mapping[Atom, bool] | Iterable[tuple[Atom, bool]]):
        items = dict(mapping)
        self._items = tuple(sorted(items.items(), key=lambda kv: kv[0].sort_key()))
        self._hash = None

    @classmethod
    def _sorted(cls, items: tuple[tuple[Atom, bool], ...]) -> "Assignment":
        """An assignment of `items`, trusted to hold distinct atoms already
        in sort-key order, so nothing is merged or sorted."""
        self = object.__new__(cls)
        self._items = items
        self._hash = None
        return self

    def value(self, atom: Atom) -> bool:
        for a, v in self._items:
            if a == atom:
                return v
        raise KeyError(atom)

    def items(self) -> tuple[tuple[Atom, bool], ...]:
        return self._items

    def is_total_over(self, alpha: AtomSet) -> bool:
        assigned = {a for a, _ in self._items}
        return len(assigned) == len(alpha) and all(a in assigned for a in alpha)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self._items == other._items

    def __hash__(self) -> int:
        # Computed on first use: most enumerated models are never hashed.
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __str__(self) -> str:
        return " & ".join(("" if v else "!") + str(a) for a, v in self._items)

    __repr__ = __str__


def fold(root: Hashable, visit: Callable[[Hashable], Generator],
         memo: dict | None) -> object:
    """Value of `root` under `visit`, computed with an explicit stack.

    `visit(key)` is a generator: it yields each key whose value it needs,
    is sent that value back, and returns its own value. A yielded key found
    in `memo` is answered from it without a visit, and every finished
    visit's value is stored there; with `memo=None` every yielded key is
    visited. A yielded key is visited at once, so visits run in the order a
    recursive walker would make its calls, and a visit that returns early
    skips the keys it has not yet yielded.
    """
    if memo is not None and root in memo:
        return memo[root]
    # Each pending visit stays alive until its subtree is done. On a deep
    # formula that many survivors set off repeated full collections, each
    # scanning them all and freeing none, so the cyclic collector pauses
    # for the walk; reference counting still frees what a visit drops.
    collecting = gc.isenabled()
    gc.disable()
    try:
        keys = [root]
        pending = [visit(root)]
        value = None
        while True:
            try:
                need = pending[-1].send(value)
            except StopIteration as done:
                value = done.value
                pending.pop()
                key = keys.pop()
                if memo is not None:
                    memo[key] = value
                if not pending:
                    return value
                continue
            if memo is not None and need in memo:
                value = memo[need]
            else:
                keys.append(need)
                pending.append(visit(need))
                value = None
    finally:
        if collecting:
            gc.enable()


def gather(keys: Iterable) -> Generator:
    """Visit helper for `fold`: the values of `keys`, in order."""
    values = []
    for key in keys:
        values.append((yield key))
    return values


# Node kind tags inside a Dag.
TRUE_KIND = "T"
FALSE_KIND = "F"
LIT = "L"
AND = "&"
OR = "|"
NOT = "~"
IFF = "<->"
IMPLIES = "->"


class Dag:
    """Arena of hash-consed formula nodes over arbitrary leaf keys."""

    def __init__(self):
        self._payload: list[tuple] = []
        self._table: dict[tuple, int] = {}
        self._keys: dict[int, frozenset] = {}
        self._nnf_memo: dict[tuple[int, bool], int] = {}
        # assignment items -> node -> residual. The arena is append-only,
        # so a residual depends on the node and the assignment alone.
        self._residual_memo: dict[frozenset, dict[int, int]] = {}
        self.TRUE = self._intern((TRUE_KIND,))
        self.FALSE = self._intern((FALSE_KIND,))

    # -- interning ---------------------------------------------------------

    def _intern(self, payload: tuple) -> int:
        node = self._table.get(payload)
        if node is None:
            node = len(self._payload)
            self._payload.append(payload)
            self._table[payload] = node
        return node

    def lit(self, key: Hashable, positive: bool = True) -> int:
        return self._intern((LIT, key, bool(positive)))

    def _junction(self, op: str, children: Iterable[int], unit: int, zero: int) -> int:
        """The `op` node over `children`, folded: `unit` children dropped, a
        `zero` child absorbing, a child of kind `op` replaced by its own
        children, and repeats dropped after their first place. Two or more
        distinct children, none a constant and none of kind `op`, are
        interned as given, in their order. The children are gathered as
        the keys of a dict, which keeps each at its first place, and a new
        node is interned here rather than by a call to `_intern`."""
        payload = self._payload
        flat: dict[int, None] = {}
        for c in children:
            p = payload[c]
            if p[0] == op:
                flat.update(dict.fromkeys(p[1]))
            elif c == zero:
                return zero
            elif c != unit:
                flat[c] = None
        if len(flat) > 1:
            key = (op, tuple(flat))
            node = self._table.get(key)
            if node is None:
                node = self._table[key] = len(payload)
                payload.append(key)
            return node
        return next(iter(flat), unit)

    def and_(self, children: Iterable[int]) -> int:
        return self._junction(AND, children, self.TRUE, self.FALSE)

    def or_(self, children: Iterable[int]) -> int:
        return self._junction(OR, children, self.FALSE, self.TRUE)

    def not_(self, child: int) -> int:
        p = self._payload[child]
        if p[0] == TRUE_KIND:
            return self.FALSE
        if p[0] == FALSE_KIND:
            return self.TRUE
        if p[0] == LIT:
            return self.lit(p[1], not p[2])
        if p[0] == NOT:
            return p[1]
        return self._intern((NOT, child))

    def iff(self, a: int, b: int) -> int:
        if a == b:
            return self.TRUE
        if a == self.TRUE:
            return b
        if b == self.TRUE:
            return a
        if a == self.FALSE:
            return self.not_(b)
        if b == self.FALSE:
            return self.not_(a)
        return self._intern((IFF, a, b))

    def implies(self, a: int, b: int) -> int:
        if a == self.TRUE:
            return b
        if a == self.FALSE or b == self.TRUE or a == b:
            return self.TRUE
        if b == self.FALSE:
            return self.not_(a)
        return self._intern((IMPLIES, a, b))

    def _rebuild(self, tag: str, kids: list[int]) -> int:
        """Node of kind `tag` over `kids`, simplified as its constructor
        does."""
        if tag == AND:
            return self.and_(kids)
        if tag == OR:
            return self.or_(kids)
        if tag == NOT:
            return self.not_(kids[0])
        if tag == IMPLIES:
            return self.implies(*kids)
        return self.iff(*kids)

    # -- accessors ---------------------------------------------------------

    def kind(self, node: int) -> str:
        return self._payload[node][0]

    def model_count(self, root: int, nvars: int,
                    fixed: Mapping[int, bool]) -> int:
        """Number of total assignments over keys 1..nvars that extend
        `fixed` (key to value) and satisfy `root`, a decision-DNNF.

        One loop over handles 0..root: a node is interned after its
        children, so ascending handle order is bottom-up. A handle the
        root does not reach costs time but cannot change the answer. With
        F free keys, a node's value is 2**F times its probability when
        every free key is true with probability 1/2: decisions add,
        because their branches exclude each other, and conjunctions
        multiply, because their conjuncts share no key. Every partial
        product of a conjunction spans at most F free keys, so
        `out * value >> F` stays an exact integer.
        """
        free = nvars - len(fixed)
        top = 1 << free
        half = top >> 1
        values: list[int] = []
        payload = self._payload
        for n in range(root + 1):
            p = payload[n]
            tag = p[0]
            if tag == LIT:
                value = fixed.get(p[1])
                values.append(half if value is None
                              else top if value == p[2] else 0)
            elif tag == AND:
                out = top
                for c in p[1]:
                    out = out * values[c] >> free
                    if not out:
                        break
                values.append(out)
            elif tag == OR:
                values.append(sum(map(values.__getitem__, p[1])))
            else:
                values.append(top if tag == TRUE_KIND else 0)
        return values[root]

    def children(self, node: int) -> tuple[int, ...]:
        p = self._payload[node]
        if p[0] in (AND, OR):
            return p[1]
        if p[0] == NOT:
            return (p[1],)
        if p[0] in (IFF, IMPLIES):
            return (p[1], p[2])
        return ()

    def leaf(self, node: int) -> tuple[Hashable, bool]:
        p = self._payload[node]
        if p[0] != LIT:
            raise ValueError("node %d is not a literal" % node)
        return p[1], p[2]

    def reachable(self, node: int) -> set[int]:
        """Every node reachable from `node`, itself included."""
        seen = {node}
        stack = [node]
        while stack:
            for c in self.children(stack.pop()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    def is_nnf(self, node: int) -> bool:
        """No NOT, IFF or IMPLIES node is reachable."""
        return not any(self._payload[n][0] in (NOT, IFF, IMPLIES)
                       for n in self.reachable(node))

    def __len__(self) -> int:
        return len(self._payload)

    def keys_of(self, node: int) -> frozenset:
        """Set of leaf keys reachable from `node` (cached per node)."""
        out = self._keys.get(node)
        if out is None:
            out = fold(node, self._keys_visit, self._keys)
        return out

    def _keys_visit(self, node: int) -> Generator:
        p = self._payload[node]
        if p[0] == LIT:
            return frozenset((p[1],))
        kids = yield from gather(self.children(node))
        return frozenset().union(*kids)

    # -- transformations ---------------------------------------------------

    def to_nnf(self, node: int) -> int:
        """Push negations to literals, eliminating NOT/IFF/IMPLIES nodes."""
        return fold((node, True), self._nnf_visit, self._nnf_memo)

    def negate(self, node: int) -> int:
        """NNF of the negation."""
        return fold((node, False), self._nnf_visit, self._nnf_memo)

    def _nnf_visit(self, key: tuple[int, bool]) -> Generator:
        node, positive = key
        p = self._payload[node]
        tag = p[0]
        if tag == TRUE_KIND:
            return self.TRUE if positive else self.FALSE
        if tag == FALSE_KIND:
            return self.FALSE if positive else self.TRUE
        if tag == LIT:
            return node if positive else self.lit(p[1], not p[2])
        if tag in (AND, OR):
            parts = yield from gather([(c, positive) for c in p[1]])
            if (tag == AND) == positive:
                return self.and_(parts)
            return self.or_(parts)
        if tag == NOT:
            return (yield (p[1], not positive))
        if tag == IMPLIES:
            a = yield (p[1], not positive)
            b = yield (p[2], positive)
            return self.or_([a, b]) if positive else self.and_([a, b])
        if tag == IFF:
            at, bt, af, bf = yield from gather(
                [(p[1], True), (p[2], True), (p[1], False), (p[2], False)])
            if positive:
                return self.or_([self.and_([at, bt]), self.and_([af, bf])])
            return self.or_([self.and_([at, bf]), self.and_([af, bt])])
        raise ValueError("unknown node tag %r" % tag)

    def residual(self, node: int, values: Mapping[Hashable, bool]) -> int:
        """Substitute assigned leaves by constants and propagate.

        The result never mentions an assigned key, and
        residual(phi, mu + l) == residual(residual(phi, mu), l). Results
        are memoised per assignment for the life of the arena, so the
        sub-DAGs that many residuals share are walked once per assignment.
        """
        # Under hash-consing, rebuilding a node that mentions no assigned
        # key gives the node itself, so such a node is kept as it is.
        if self.keys_of(node).isdisjoint(values):
            return node
        memo = self._residual_memo.setdefault(frozenset(values.items()), {})
        if node in memo:
            return memo[node]
        # The nodes below `node` that mention an assigned key and have no
        # residual yet, rebuilt in ascending handle order: a node is
        # interned after its children, so each child is done before its
        # parents. `keys_of(node)` cached the keys of every node below it.
        keys = self._keys
        todo = {node}
        stack = [node]
        while stack:
            for c in self.children(stack.pop()):
                if not keys[c].isdisjoint(values) and c not in memo and \
                        c not in todo:
                    todo.add(c)
                    stack.append(c)
        payload = self._payload
        for n in sorted(todo):
            p = payload[n]
            if p[0] == LIT:
                memo[n] = self.TRUE if values[p[1]] == p[2] else self.FALSE
            else:
                memo[n] = self._rebuild(p[0], [memo.get(c, c)
                                               for c in self.children(n)])
        return memo[node]

    def evaluate(self, node: int, values: Mapping[Hashable, bool]) -> bool:
        payload = self._payload

        def visit(n: int) -> Generator:
            p = payload[n]
            tag = p[0]
            if tag == LIT:
                return values[p[1]] == p[2]
            if tag == AND:
                for c in p[1]:
                    if not (yield c):
                        return False
                return True
            if tag == OR:
                for c in p[1]:
                    if (yield c):
                        return True
                return False
            if tag == NOT:
                return not (yield p[1])
            if tag == IMPLIES:
                return (not (yield p[1])) or (yield p[2])
            if tag == IFF:
                return (yield p[1]) == (yield p[2])
            return tag == TRUE_KIND

        return fold(node, visit, {})

    def truth_bits(self, node: int, order: list) -> int:
        """Truth table as a bitmask over all 2^len(order) assignments.

        Bit b gives the value under the assignment where key order[j] is
        true iff bit j of b is set. One DAG pass, bitwise ops throughout.
        """
        n = len(order)
        width = 1 << n
        full = (1 << width) - 1
        cols: dict[Hashable, int] = {}
        for j, key in enumerate(order):
            block = 1 << j
            m = ((1 << block) - 1) << block  # ones where bit j is set
            span = 2 * block
            while span < width:
                m |= m << span
                span *= 2
            cols[key] = m
        payload = self._payload

        def visit(nd: int) -> Generator:
            p = payload[nd]
            tag = p[0]
            if tag == TRUE_KIND:
                return full
            if tag == FALSE_KIND:
                return 0
            if tag == LIT:
                return cols[p[1]] if p[2] else (full & ~cols[p[1]])
            if tag == AND:
                out = full
                for c in p[1]:
                    out &= yield c
                return out
            if tag == OR:
                out = 0
                for c in p[1]:
                    out |= yield c
                return out
            if tag == NOT:
                return full & ~(yield p[1])
            if tag == IMPLIES:
                return (full & ~(yield p[1])) | (yield p[2])
            return full & ~((yield p[1]) ^ (yield p[2]))

        return fold(node, visit, {})

    def structurally_equal(self, node: int, other: "Dag", other_node: int) -> bool:
        """Positional structural equality across arenas."""

        def visit(key: tuple[int, int]) -> Generator:
            a, b = key
            pa, pb = self._payload[a], other._payload[b]
            if pa[0] != pb[0]:
                return False
            if pa[0] == LIT:
                return pa[1] == pb[1] and pa[2] == pb[2]
            ca, cb = self.children(a), other.children(b)
            if len(ca) != len(cb):
                return False
            for pair in zip(ca, cb):
                if not (yield pair):
                    return False
            return True

        return fold((node, other_node), visit, {})


# -- T-formula layer -------------------------------------------------------


def atoms_of(dag: Dag, node: int) -> AtomSet:
    """Atoms reachable from `node`, in first-occurrence DFS order."""
    out = AtomSet()

    def visit(n: int) -> Generator:
        if dag.kind(n) == LIT:
            out.add(dag.leaf(n)[0])
        else:
            for c in dag.children(n):
                yield c

    fold(node, visit, {})
    return out


def abstract(fdag: Dag, node: int, alpha: AtomSet, pdag: Dag) -> int:
    """Boolean abstraction: same DAG shape, atoms replaced by their index
    in `alpha`, which must hold every atom of the formula."""
    return translate(fdag, node, pdag, alpha.index_of)


def refine(pdag: Dag, node: int, alpha: AtomSet, fdag: Dag) -> int:
    """Inverse of abstract: indices replaced by their atoms."""
    return translate(pdag, node, fdag, alpha.atom_at)


def translate(src: Dag, node: int, dst: Dag, leaf) -> int:
    """Copy `node` into `dst`, mapping each leaf key through `leaf`."""

    def visit(n: int) -> Generator:
        tag = src.kind(n)
        if tag == TRUE_KIND:
            return dst.TRUE
        if tag == FALSE_KIND:
            return dst.FALSE
        if tag == LIT:
            key, pol = src.leaf(n)
            return dst.lit(leaf(key), pol)
        kids = yield from gather(src.children(n))
        return dst._rebuild(tag, kids)

    return fold(node, visit, {})

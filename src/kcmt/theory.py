"""Theory backends: consistency checking for conjunctions of atom-literals.

The LRA backend decides conjunctions of linear-rational constraints exactly:
Gaussian elimination for asserted equalities, Fourier-Motzkin elimination for
inequalities. Both run on integer rows: a literal's row is its atom's
coefficients times the constant's denominator, and every derived row is an
integer combination of two rows divided by the gcd of its entries, so no
step divides. Strictness is tracked symbolically in the derived relations,
so no epsilon guessing happens anywhere; satisfiable systems get a concrete
rational witness via interval back-substitution on exact (num, den) pairs.

Negated equalities are disequalities. They are independent of each other,
so each one is decided against the other literals alone, and a check with
k of them costs at most 1 + 2k eliminations (see `LraBackend`).

Every constraint derived during elimination carries the set of input literals
it descends from, so an unsatisfiable system yields a conflict that is a
subset of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Optional

from .formulas import REL_EQ, REL_LE, REL_LT, Atom

Literal = tuple[Atom, bool]


class TheoryError(ValueError):
    """Ill-formed query, conflict or evaluation point."""


class TheoryInternalError(AssertionError):
    """Solver self-check failed (e.g. a 1-literal core, which cannot exist)."""


@dataclass(frozen=True)
class TheoryVerdict:
    """Outcome of one consistency check.

    Backend contract: a sat verdict's witness, when present, satisfies every
    queried literal, reading any variable it omits as 0. A sat verdict may
    leave the witness as None; an unsat verdict always has a conflict that
    is a subset of the queried literals.
    """

    status: str  # "sat" | "unsat"
    witness: Optional[dict] = None  # variable -> Fraction
    conflict: Optional[frozenset] = None  # frozenset of (Atom, bool)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def _complementary_pair(literals: Iterable[Literal]) -> Optional[frozenset]:
    seen: dict[Atom, bool] = {}
    for atom, pol in literals:
        if atom in seen and seen[atom] != pol:
            return frozenset(((atom, True), (atom, False)))
        seen[atom] = pol
    return None


class _Constraint:
    """coeffs . x rel const over the integers, with the input literals it
    descends from. Coefficients are nonzero; rows are never mutated."""

    __slots__ = ("coeffs", "rel", "const", "origins")

    def __init__(self, coeffs: dict, rel: str, const: int, origins: frozenset):
        self.coeffs = coeffs
        self.rel = rel
        self.const = const
        self.origins = origins


class _Infeasible(Exception):
    def __init__(self, origins: frozenset):
        self.origins = origins


def _combine(r: _Constraint, p: int, s: _Constraint, q: int, rel: str,
             origins: frozenset) -> _Constraint:
    """p*r + q*s (p > 0), divided by the gcd of its entries."""
    sc = s.coeffs
    coeffs = {w: p * a + q * sc.get(w, 0) for w, a in r.coeffs.items()}
    for w, a in sc.items():
        if w not in coeffs:
            coeffs[w] = q * a
    coeffs = {w: a for w, a in coeffs.items() if a}
    const = p * r.const + q * s.const
    g = gcd(const, *coeffs.values())
    if g > 1:
        coeffs = {w: a // g for w, a in coeffs.items()}
        const //= g
    return _Constraint(coeffs, rel, const, origins)


def _check_ground(con: _Constraint) -> bool:
    """True when a variable-free constraint holds; raises _Infeasible otherwise."""
    if con.coeffs:
        return False
    ok = (0 <= con.const if con.rel == REL_LE
          else 0 < con.const if con.rel == REL_LT
          else 0 == con.const)
    if not ok:
        raise _Infeasible(con.origins)
    return True


def _solved(con: _Constraint, var: str, values: dict) -> tuple:
    """The value (num, den), den > 0 and reduced, that makes `con` tight
    when solved for `var`, as a `_between` bound (num, den, strict, lower);
    other variables take `values`, absent ones 0. `var` itself has no value
    yet."""
    num, den = con.const, 1
    for w, c in con.coeffs.items():
        x = values.get(w)
        if x is not None:
            n, d = x
            num, den = num * d - c * n * den, den * d
    a = con.coeffs[var]
    lower = a < 0
    if lower:
        num, a = -num, -a
    den *= a
    g = gcd(num, den)
    return num // g, den // g, con.rel == REL_LT, lower


def _between(bounds: Iterable[tuple], unit: int) -> Optional[tuple[int, int]]:
    """A value (num, den) between the tightest lower and upper bound, each
    (num, den, strict, lower) with den > 0, a strict one winning a tie:
    their midpoint, the one bound -/+ `unit` (1 for a value, d for a
    numerator over d) when the other side is open, or the bound itself when
    the two meet and neither is strict; else None."""
    lo = hi = None
    for bound in bounds:
        num, den, strict, lower = bound
        if lower:
            if lo is None or num * lo[1] > lo[0] * den or (
                    strict and num * lo[1] == lo[0] * den):
                lo = bound
        elif hi is None or num * hi[1] < hi[0] * den or (
                strict and num * hi[1] == hi[0] * den):
            hi = bound
    if lo is None:
        return None if hi is None else (hi[0] - unit * hi[1], hi[1])
    if hi is None:
        return lo[0] + unit * lo[1], lo[1]
    if lo[0] * hi[1] < hi[0] * lo[1]:
        num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(num, den)
        return num // g, den // g
    if lo[0] * hi[1] == hi[0] * lo[1] and not (lo[2] or hi[2]):
        return lo[0], lo[1]
    return None


def _solve_core(constraints: list[_Constraint]) -> dict:
    """Decide a conjunction of <=, <, = constraints; returns a witness.

    Raises _Infeasible with conflict origins when unsatisfiable. Every
    derived row is a positive multiple of the one exact rational
    elimination would derive, so it passes the same ground tests.
    """
    work = list(constraints)
    pivots: list[tuple[str, _Constraint]] = []

    # Gaussian elimination of equalities, one pivot at a time:
    # |a|*c - sign(a)*b*eq cancels var's coefficient b in c.
    while True:
        work = [c for c in work if not _check_ground(c)]
        eq = next((c for c in work if c.rel == REL_EQ), None)
        if eq is None:
            break
        var = min(eq.coeffs)
        a = eq.coeffs[var]
        pivots.append((var, eq))
        rest = []
        for c in work:
            if c is eq:
                continue
            b = c.coeffs.get(var)
            if b is None:
                rest.append(c)
            else:
                rest.append(_combine(c, abs(a), eq, -b if a > 0 else b,
                                     c.rel, c.origins | eq.origins))
        work = rest

    # Fourier-Motzkin elimination of the remaining inequality variables:
    # a_u*lower + (-a_l)*upper cancels var between each bound pair.
    eliminations: list[tuple[str, list, list]] = []
    while work:
        var = min(v for c in work for v in c.coeffs)
        lowers: list[_Constraint] = []
        uppers: list[_Constraint] = []
        rest = []
        for c in work:
            a = c.coeffs.get(var)
            if a is None:
                rest.append(c)
            elif a > 0:
                uppers.append(c)
            else:
                lowers.append(c)
        for lo in lowers:
            al = -lo.coeffs[var]
            for up in uppers:
                rel = REL_LT if REL_LT in (lo.rel, up.rel) else REL_LE
                rest.append(_combine(lo, up.coeffs[var], up, al, rel,
                                     lo.origins | up.origins))
        eliminations.append((var, lowers, uppers))
        work = [c for c in rest if not _check_ground(c)]

    # Feasible: reconstruct a witness in reverse elimination order, on
    # exact (num, den) pairs.
    values: dict[str, tuple[int, int]] = {}
    for var, lowers, uppers in reversed(eliminations):
        value = _between([_solved(c, var, values) for c in lowers + uppers], 1)
        if value is None:
            raise TheoryInternalError(
                "empty interval for %s survived elimination" % var)
        values[var] = value
    for var, eq in reversed(pivots):
        values[var] = _solved(eq, var, values)[:2]
    return {v: Fraction(n, d) for v, (n, d) in values.items()}


def _gap(con: _Constraint, point: dict) -> Fraction:
    """coeffs . point - const; variables the point omits read as 0. Only its
    sign is meaningful, since a row is known up to a positive factor."""
    return sum((a * point.get(v, 0) for v, a in con.coeffs.items()), -con.const)


def _walk(point: dict, target: dict, held: list[_Constraint]) -> dict:
    """A point on the segment from `point` (exclusive) to `target` where no
    `held` row has gap 0.

    Every held row has a nonzero gap at `point`, and its gap is affine along
    the segment, so it vanishes at one step at most: one of the first
    len(held) + 1 steps 1, 1/2, 1/3, ... is clear of all of them.
    """
    names = point.keys() | target.keys()
    for k in range(1, len(held) + 2):
        step = Fraction(1, k)
        trial = {v: point.get(v, 0) + step * (target.get(v, 0) - point.get(v, 0))
                 for v in names}
        if all(_gap(h, trial) != 0 for h in held):
            return trial
    raise TheoryInternalError("no step of the walk keeps every disequality")


class LraBackend:
    """Sound and complete consistency oracle for LRA atom-literals.

    Boolean atoms are theory-free: they only matter through the
    complementary-pair check (`_complementary_pair`). Every sat verdict
    carries a witness that assigns each variable of the queried literals
    and satisfies all of them (see `TheoryVerdict`). The witness is a dict
    of variable -> Fraction whose `scaled()` is the same point as a
    `_ScaledPoint`. Lemma enumeration asks that point whether a new literal
    `holds` there, or for the point `moved` onto it, and takes a point that
    satisfies the extended conjunction (variables it omits occur in no
    queried literal, so they read as 0) as proof that it is sat, without a
    check. That is sound only because this backend decides over the
    rationals: every conjunction that some rational point satisfies is sat.

    Disequalities are independent (Lassez & McAloon, "A Canonical Form for
    Generalized Linear Constraints", JSC 1992): over the rationals,
    C and t1 != c1 and ... and tk != ck is sat iff C is sat and each
    C and ti != ci is, that is C and ti < ci or C and ti > ci. A check
    therefore runs Fourier-Motzkin once on the other literals C, and once
    or twice more for each disequality that the current witness violates:
    at most 1 + 2k runs. The witness then walks toward the sat side of
    that disequality (see `_walk`); the segment stays in the convex C.
    When both sides fail, the conflict is the union of the two runs'
    conflicts, which both contain the disequality.

    Each literal's row is built once per backend instance. A row is a
    positive integer multiple of the literal's constraint (see
    `_solve_core`); the sign of a gap, which is all `_walk` reads, does
    not depend on that scale.
    """

    def __init__(self) -> None:
        # literal -> None (Boolean), a _Constraint, or a disequality's two
        # strict sides (below, above). `_solve_core` never mutates its input
        # constraints, so one row is shared by every check that uses it.
        self._rows: dict[Literal, object] = {}

    def _new_row(self, lit: Literal):
        atom, pol = lit
        if atom.kind == "bool":
            return None
        # coeffs . x rel p/q, scaled by q > 0 to integers.
        origin = frozenset((lit,))
        p, q = atom.const.numerator, atom.const.denominator
        coeffs = {v: a * q for v, a in atom.coeffs}
        neg = {v: -a for v, a in coeffs.items()}
        if pol:
            return _Constraint(coeffs, atom.rel, p, origin)
        if atom.rel == REL_LE:
            return _Constraint(neg, REL_LT, -p, origin)
        if atom.rel == REL_LT:
            return _Constraint(neg, REL_LE, -p, origin)
        return (_Constraint(coeffs, REL_LT, p, origin),
                _Constraint(neg, REL_LT, -p, origin))

    def check_conjunction(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = sorted(set(literals), key=lambda lp: (lp[0].sort_key(), lp[1]))
        pair = _complementary_pair(lits)
        if pair is not None:
            return TheoryVerdict("unsat", conflict=pair)
        base: list[_Constraint] = []
        diseqs: list[tuple[_Constraint, _Constraint]] = []
        rows = self._rows
        for lit in lits:
            try:
                row = rows[lit]
            except KeyError:
                row = rows[lit] = self._new_row(lit)
            if isinstance(row, _Constraint):
                base.append(row)
            elif row is not None:
                diseqs.append(row)
        try:
            point = _solve_core(base)
            for below, above in diseqs:
                if _gap(below, point) != 0:
                    continue
                try:
                    side = _solve_core(base + [below])
                except _Infeasible as lo:
                    try:
                        side = _solve_core(base + [above])
                    except _Infeasible as hi:
                        raise _Infeasible(lo.origins | hi.origins)
                held = [b for b, _ in diseqs if _gap(b, point) != 0]
                point = _walk(point, side, held)
        except _Infeasible as exc:
            return TheoryVerdict("unsat", conflict=exc.origins)
        for atom, _ in lits:
            for v, _a in atom.coeffs:
                point.setdefault(v, Fraction(0))
        return TheoryVerdict("sat", witness=_Witness(point))


def evaluate_literal(atom: Atom, pol: bool, witness: dict) -> bool:
    """Exact truth of an LRA literal at a rational point that assigns every
    variable of the atom, tested on the point's `scaled_point` form. A
    Boolean atom or an unassigned variable raises TheoryError."""
    if atom.kind != "lra":
        raise TheoryError("cannot evaluate a Boolean atom at a point")
    for v, _a in atom.coeffs:
        if v not in witness:
            raise TheoryError("the point assigns no value to variable %r of %s"
                              % (v, atom))
    return scaled_point(witness).holds(atom, pol)


class _ScaledPoint(tuple):
    """A point as (numerators, d): one common denominator d > 0 and each
    variable's value times d, an integer; absent variables read as 0."""

    __slots__ = ()

    def holds(self, atom: Atom, pol: bool) -> bool:
        """Exact truth of an LRA literal here, in integers only:
        coeffs . (nums / d) rel p/q iff q * (coeffs . nums) rel p * d."""
        nums, den = self
        total = sum(a * nums.get(v, 0) for v, a in atom.coeffs)
        total *= atom.const.denominator
        bound = atom.const.numerator * den
        if atom.rel == REL_LE:
            holds = total <= bound
        elif atom.rel == REL_LT:
            holds = total < bound
        else:
            holds = total == bound
        return holds == pol

    def moved(self, atom: Atom, pol: bool, literals: Iterable[Literal]):
        """`moved_point` from here."""
        return moved_point(atom, pol, literals, self)


def scaled_point(point: dict) -> _ScaledPoint:
    """A point of int or Fraction values in `_ScaledPoint` form."""
    den = 1
    for x in point.values():
        den = den * x.denominator // gcd(den, x.denominator)
    return _ScaledPoint(({v: x.numerator * (den // x.denominator)
                          for v, x in point.items()}, den))


class _Witness(dict):
    """`LraBackend`'s sat witness, variable -> Fraction; `scaled()` is its
    `scaled_point` form, built only when asked for."""

    __slots__ = ()
    scaled = scaled_point


def moved_point(atom: Atom, pol: bool, literals: Iterable[Literal],
                scaled: tuple[dict, int]) -> Optional[_ScaledPoint]:
    """A point in `scaled_point` form where `(atom, pol)` holds, made from
    `scaled`, any (numerators, d) pair, by moving one variable of the atom;
    None when none gives one.

    The variables are freed in name order, the others held at their values
    (absent ones at 0). The LRA literals of `literals` and the new one that
    mention the freed variable bound it to an interval, and `_between`
    picks its value: the midpoint, the value itself when the ends meet, or
    the bound -/+ 1 when one side is open. A disequality bounds nothing.
    The point is then checked with `_ScaledPoint.holds` on every literal
    that mentions the variable; one that lands on a disequality fails. A
    literal without it keeps its truth value, so a point `scaled` that
    satisfies `literals` moves to one that satisfies them and `(atom, pol)`.

    All in integers: a variable's value is kept as its numerator over the
    point's denominator d, and each bound on that numerator as an exact
    (num, den) pair, den > 0, compared by cross-multiplication.
    """
    nums, den = scaled
    literals = ((atom, pol), *literals)  # a Boolean atom has no coeffs
    for var, _a in atom.coeffs:
        bounds = []  # (num, den, strict, lower)
        touching = []
        for at, p in literals:
            a = rest = 0
            for w, c in at.coeffs:
                if w == var:
                    a = c
                else:
                    rest += c * nums.get(w, 0)
            if not a:
                continue
            touching.append((at, p))
            # rest/d + a*X/d rel P/Q, times Q*d: a*Q*X rel P*d - Q*rest, a
            # lower bound on X when a < 0 and the literal holds, or a > 0
            # and it does not.
            q = at.const.denominator
            t, b = at.const.numerator * den - q * rest, a * q
            if b < 0:
                t, b = -t, -b
            if at.rel != REL_EQ:
                bounds.append((t, b, (at.rel == REL_LT) == p, (a < 0) == p))
            elif p:  # a disequality bounds nothing
                bounds += ((t, b, False, True), (t, b, False, False))
        value = _between(bounds, den)
        if value is None:
            continue
        x, xd = value
        # The value x/xd of the numerator over d: every numerator times xd,
        # over d*xd, reduced by the gcd of them all.
        moved = {w: n * xd for w, n in nums.items()}
        moved[var] = x
        g = gcd(den * xd, *moved.values())
        point = _ScaledPoint(({w: n // g for w, n in moved.items()},
                              den * xd // g))
        if all(point.holds(at, p) for at, p in touching):
            return point
    return None


def minimize_conflict(backend, literals: Iterable[Literal],
                      conflict: Iterable[Literal],
                      index_of: Optional[Callable[[Atom], int]] = None,
                      sat_within: frozenset = frozenset()) -> frozenset:
    """The core of `conflict`, as a frozenset of literals, by
    deletion-based minimization in descending atom-index order. Dropping
    any one literal of the core leaves a satisfiable set.

    `index_of` supplies the abstraction index; without one, the atom's
    structural sort key fixes the order. `sat_within` is a set of literals
    the caller knows to be satisfiable: a trial inside it is sat without a
    backend call. The input conflict must be unsatisfiable (self-checked),
    and a 1-literal core is impossible by the no-trivial-atom invariant, so
    reaching one is an internal error.
    """
    literals = set(literals)
    core = set(conflict)
    if not core.issubset(literals):
        raise TheoryError("conflict is not a subset of the queried literals")
    if backend.check_conjunction(core).is_sat:
        raise TheoryError("claimed conflict is satisfiable: %s" %
                          sorted(str(a) for a, _ in core))
    if index_of is None:
        def order_key(lp):
            return (lp[0].sort_key(), lp[1])
    else:
        def order_key(lp):
            return (index_of(lp[0]), lp[1])
    for lit in sorted(core, key=order_key, reverse=True):
        if len(core) <= 2:
            break
        trial = core - {lit}
        if trial <= sat_within:
            continue
        if not backend.check_conjunction(trial).is_sat:
            core = trial
    if len(core) < 2:
        raise TheoryInternalError(
            "1-literal core %s contradicts the no-trivial-atom invariant"
            % sorted(str(a) for a, _ in core))
    return frozenset(core)

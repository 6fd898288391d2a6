"""SMT-LIB 2 subset reader and writer.

Supported input: `(set-logic QF_LRA)`, `declare-fun`/`declare-const` of
Real and Bool, and `assert` commands whose terms use and/or/not/=>/xor/iff
(SMT-LIB spells iff as `=` on Bool operands; the bare `iff` symbol is
accepted too) over atoms built from {<=, <, >=, >, =} on linear terms.
Linear terms may use +, -, unary -, rational and integer literals,
division by a nonzero constant, and multiplication with at most one
non-constant factor. Simple `let` bindings are inlined; the names in one
binding list must be pairwise distinct. Everything else is rejected with
a line/column diagnostic.

Parsing returns the conjunction of all asserts plus the atom set in first
occurrence order (after normalization, so `(>= x 1)` and `(< x 1)` are
distinct atoms while `(<= x 0)` and `(>= 0 x)` coincide). The writer emits
a formula DAG back to this subset; reparsing its output reproduces a
structurally equal DAG.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Generator, Mapping

from .formulas import (
    AND,
    FALSE_KIND,
    IFF,
    IMPLIES,
    LIT,
    NOT,
    OR,
    TRUE_KIND,
    Atom,
    AtomError,
    AtomSet,
    Dag,
    atoms_of,
    fold,
    gather,
)


class SmtParseError(ValueError):
    """Input outside the supported subset, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


_IGNORED = frozenset((
    "set-info", "set-option", "check-sat", "exit", "get-model",
    "get-value", "echo",
))
_CONNECTIVES = frozenset(("and", "or", "not", "=>", "xor", "iff"))
_RELS = frozenset(("<=", "<", ">=", ">", "="))
_ARITH = frozenset(("+", "-", "*", "/"))
_RESERVED = frozenset(("<=", "<", "=", "true", "false"))
_OPS = {NOT: "not", AND: "and", OR: "or", IFF: "=", IMPLIES: "=>"}


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtParseError("unterminated quoted symbol", line, col)
            toks.append(_Tok(text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();|":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _read_sexprs(toks: list[_Tok]):
    """Nested lists of tokens; a list remembers the position of its '('."""
    out = []
    stack = [out]
    opens: list[_Tok] = []
    for t in toks:
        if t.text == "(":
            fresh: list = []
            stack[-1].append((fresh, t))
            stack.append(fresh)
            opens.append(t)
        elif t.text == ")":
            if len(stack) == 1:
                raise SmtParseError("unbalanced ')'", t.line, t.col)
            stack.pop()
            opens.pop()
        else:
            stack[-1].append(t)
    if len(stack) != 1:
        t = opens[-1]
        raise SmtParseError("unclosed '('", t.line, t.col)
    return out


def _pos(sx) -> tuple[int, int]:
    if isinstance(sx, _Tok):
        return sx.line, sx.col
    return sx[1].line, sx[1].col


def _err(msg: str, sx) -> SmtParseError:
    line, col = _pos(sx)
    return SmtParseError(msg, line, col)


def _is_numeral(s: str) -> bool:
    body = s[1:] if s[:1] in "+-" and len(s) > 1 else s
    if not body:
        return False
    if body.count(".") > 1:
        return False
    return body.replace(".", "").isdigit()


class _Parser:
    """Elaborates commands into a formula DAG over normalized atoms.

    Terms carry a sort: ("bool", node) or ("arith", coeffs dict, const).
    """

    def __init__(self, fdag: Dag):
        self.fdag = fdag
        self.sorts: dict[str, str] = {}
        self.alpha = AtomSet()
        self.asserts: list[int] = []
        # (coeffs, rel, const) -> the node of that comparison, so a
        # repeated comparison is normalised once.
        self.comparisons: dict[tuple, int] = {}

    # -- commands ----------------------------------------------------------

    def command(self, sx) -> None:
        if isinstance(sx, _Tok):
            raise _err("expected a command list, got %r" % sx.text, sx)
        items, paren = sx
        if not items or not isinstance(items[0], _Tok):
            raise _err("malformed command", paren)
        head = items[0].text
        if head in _IGNORED:
            return
        if head == "set-logic":
            if len(items) != 2 or not isinstance(items[1], _Tok):
                raise _err("set-logic expects one symbol", items[0])
            if items[1].text != "QF_LRA":
                raise _err("unsupported logic %r" % items[1].text, items[1])
            return
        if head == "declare-fun":
            if len(items) != 4 or not isinstance(items[1], _Tok):
                raise _err("declare-fun expects (declare-fun name () Sort)",
                           items[0])
            args = items[2]
            if isinstance(args, _Tok) or args[0]:
                raise _err("uninterpreted functions with arguments are not "
                           "supported", items[2] if isinstance(items[2], _Tok)
                           else items[2][1])
            self._declare(items[1], items[3])
            return
        if head == "declare-const":
            if len(items) != 3 or not isinstance(items[1], _Tok):
                raise _err("declare-const expects (declare-const name Sort)",
                           items[0])
            self._declare(items[1], items[2])
            return
        if head == "assert":
            if len(items) != 2:
                raise _err("assert expects exactly one term", items[0])
            term = fold((items[1], {}), self._term, None)
            if term[0] != "bool":
                raise _err("assert needs a Bool term", items[1])
            self.asserts.append(term[1])
            return
        raise _err("unsupported construct %r" % head, items[0])

    def _declare(self, name_tok: _Tok, sort_sx) -> None:
        if not isinstance(sort_sx, _Tok) or sort_sx.text not in ("Real", "Bool"):
            raise _err("only Real and Bool sorts are supported", sort_sx)
        name = name_tok.text
        if not name or _is_numeral(name):
            raise _err("invalid symbol %r" % name, name_tok)
        # A map line or a CLI literal must read the name back as itself,
        # and true and false name the constants.
        if name in _RESERVED or name[0] in "-!" or \
                any(ch.isspace() or ch in "*," for ch in name):
            raise _err("symbol %r is reserved or would not read back from a"
                       " map or a CLI literal" % name, name_tok)
        if name in self.sorts:
            raise _err("duplicate declaration of %r" % name, name_tok)
        self.sorts[name] = sort_sx.text

    # -- terms -------------------------------------------------------------

    def _term(self, key) -> Generator:
        """Visit for `fold`: elaborate `key`, an (s-expression, let
        environment) pair, yielding the keys of its subterms."""
        sx, env = key
        if isinstance(sx, _Tok):
            return self._leaf(sx, env)
        items, paren = sx
        if not items:
            raise _err("empty term", paren)
        if not isinstance(items[0], _Tok):
            raise _err("expected an operator symbol", items[0])
        op = items[0].text
        args = items[1:]
        if op == "let":
            return (yield from self._let(items, env))
        if op in _CONNECTIVES:
            return (yield from self._connective(op, items[0], args, env))
        if op in _RELS:
            return (yield from self._relation(op, items[0], args, env))
        if op in _ARITH:
            return (yield from self._arith(op, items[0], args, env))
        raise _err("unsupported construct %r" % op, items[0])

    def _leaf(self, tok: _Tok, env: Mapping[str, tuple]):
        s = tok.text
        if s in env:
            return env[s]
        if s == "true":
            return ("bool", self.fdag.TRUE)
        if s == "false":
            return ("bool", self.fdag.FALSE)
        if _is_numeral(s):
            # SMT-LIB numerals are ASCII. `str.isdigit` also takes other
            # digits, such as superscripts, and `Fraction` reads any decimal
            # digit; an ASCII numeral always reads.
            if not s.isascii():
                raise _err("malformed numeral %r" % s, tok)
            return ("arith", {}, Fraction(s))
        sort = self.sorts.get(s)
        if sort is None:
            raise _err("undeclared symbol %r" % s, tok)
        if sort == "Bool":
            return ("bool", self._atom_lit(Atom.boolean(s)))
        return ("arith", {s: Fraction(1)}, Fraction(0))

    def _atom_lit(self, atom: Atom) -> int:
        if atom not in self.alpha:
            self.alpha.add(atom)
        return self.fdag.lit(atom, True)

    def _let(self, items, env) -> Generator:
        if len(items) != 3 or isinstance(items[1], _Tok):
            raise _err("let expects a binding list and a body", items[0])
        bindings, _ = items[1]
        inner = dict(env)
        bound: set[str] = set()
        for b in bindings:
            if isinstance(b, _Tok):
                raise _err("malformed let binding", b)
            pair, bparen = b
            if len(pair) != 2 or not isinstance(pair[0], _Tok):
                raise _err("malformed let binding", bparen)
            name = pair[0].text
            if name in bound:
                raise _err("%r is bound twice in one let" % name, pair[0])
            bound.add(name)
            # parallel let: bindings are elaborated in the outer scope
            inner[name] = yield (pair[1], env)
        return (yield (items[2], inner))

    def _bool_args(self, op_tok: _Tok, args, env) -> Generator:
        if not args:
            raise _err("%r needs at least one argument" % op_tok.text, op_tok)
        out = []
        for a in args:
            t = yield (a, env)
            if t[0] != "bool":
                raise _err("%r needs Bool arguments" % op_tok.text, a)
            out.append(t[1])
        return out

    def _connective(self, op: str, op_tok: _Tok, args, env) -> Generator:
        f = self.fdag
        if op == "not" and len(args) != 1:
            raise _err("not is unary", op_tok)
        kids = yield from self._bool_args(op_tok, args, env)
        if op == "not":
            return ("bool", f.not_(kids[0]))
        if op == "and":
            return ("bool", f.and_(kids))
        if op == "or":
            return ("bool", f.or_(kids))
        if op == "=>":
            if len(kids) < 2:
                raise _err("=> needs at least two arguments", op_tok)
            out = kids[-1]
            for k in reversed(kids[:-1]):
                out = f.implies(k, out)
            return ("bool", out)
        if op == "xor":
            if len(kids) < 2:
                raise _err("xor needs at least two arguments", op_tok)
            out = kids[0]
            for k in kids[1:]:
                out = f.not_(f.iff(out, k))
            return ("bool", out)
        # iff spelled out; `=` on Bool operands routes here as well
        if len(kids) < 2:
            raise _err("iff needs at least two arguments", op_tok)
        parts = [f.iff(a, b) for a, b in zip(kids, kids[1:])]
        return ("bool", f.and_(parts))

    def _relation(self, op: str, op_tok: _Tok, args, env) -> Generator:
        if len(args) < 2:
            raise _err("%r needs at least two arguments" % op, op_tok)
        terms = yield from gather([(a, env) for a in args])
        if op == "=" and terms[0][0] == "bool":
            kids = []
            for t, a in zip(terms, args):
                if t[0] != "bool":
                    raise _err("'=' cannot mix Bool and Real arguments", a)
                kids.append(t[1])
            parts = [self.fdag.iff(a, b) for a, b in zip(kids, kids[1:])]
            return ("bool", self.fdag.and_(parts))
        for t, a in zip(terms, args):
            if t[0] != "arith":
                raise _err("%r needs Real arguments" % op, a)
        parts = []
        for (_, cl, kl), (_, cr, kr), a in zip(terms, terms[1:], args):
            coeffs = dict(cl)
            for v, c in cr.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) - c
            parts.append(self._atom_or_constant(coeffs, op, kr - kl, a))
        return ("bool", self.fdag.and_(parts))

    def _atom_or_constant(self, coeffs, rel, const, sx) -> int:
        key = (frozenset(coeffs.items()), rel, const)
        node = self.comparisons.get(key)
        if node is None:
            try:
                atom = Atom.linear(coeffs, rel, const)
            except AtomError:
                # ground comparison folds to a constant
                lhs, rhs = Fraction(0), const
                ok = {"<=": lhs <= rhs, "<": lhs < rhs, ">=": lhs >= rhs,
                      ">": lhs > rhs, "=": lhs == rhs}[rel]
                node = self.fdag.TRUE if ok else self.fdag.FALSE
            else:
                node = self._atom_lit(atom)
            self.comparisons[key] = node
        return node

    def _arith(self, op: str, op_tok: _Tok, args, env) -> Generator:
        terms = []
        for a in args:
            t = yield (a, env)
            if t[0] != "arith":
                raise _err("%r needs Real arguments" % op, a)
            terms.append((t[1], t[2]))
        if op == "+":
            if not terms:
                raise _err("+ needs at least one argument", op_tok)
            coeffs: dict = {}
            const = Fraction(0)
            for c, k in terms:
                for v, a in c.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) + a
                const += k
            return ("arith", coeffs, const)
        if op == "-":
            if not terms:
                raise _err("- needs at least one argument", op_tok)
            if len(terms) == 1:
                c, k = terms[0]
                return ("arith", {v: -a for v, a in c.items()}, -k)
            coeffs = dict(terms[0][0])
            const = terms[0][1]
            for c, k in terms[1:]:
                for v, a in c.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) - a
                const -= k
            return ("arith", coeffs, const)
        if op == "*":
            if len(terms) < 2:
                raise _err("* needs at least two arguments", op_tok)
            scale = Fraction(1)
            linear = None
            linear_sx = None
            for (c, k), a in zip(terms, args):
                if c:
                    if linear is not None:
                        raise _err("non-linear term: product of two "
                                   "non-constant factors", a)
                    linear, linear_sx = (c, k), a
                else:
                    scale *= k
            if linear is None:
                return ("arith", {}, scale)
            c, k = linear
            return ("arith", {v: a * scale for v, a in c.items()}, k * scale)
        # division: both operands constant, or linear / nonzero constant
        if len(terms) != 2:
            raise _err("/ is binary", op_tok)
        (cn, kn), (cd, kd) = terms
        if cd:
            raise _err("non-linear term: division by a non-constant", args[1])
        if kd == 0:
            raise _err("division by zero", args[1])
        return ("arith", {v: a / kd for v, a in cn.items()}, kn / kd)


def parse_smt2(text: str, fdag: Dag | None = None) -> tuple[Dag, int, AtomSet]:
    """Parse SMT-LIB 2 text into (dag, formula node, atoms).

    The formula is the conjunction of all asserts (an empty script yields
    the true constant); atoms are listed in first-occurrence order.
    """
    fdag = fdag if fdag is not None else Dag()
    parser = _Parser(fdag)
    for sx in _read_sexprs(_tokenize(text)):
        parser.command(sx)
    return fdag, fdag.and_(parser.asserts), parser.alpha


# -- writing ----------------------------------------------------------------


def _num_sexpr(k: Fraction) -> str:
    m = abs(k)
    text = (str(m.numerator) if m.denominator == 1
            else "(/ %d %d)" % (m.numerator, m.denominator))
    return "(- %s)" % text if k < 0 else text


def _atom_sexpr(atom: Atom) -> str:
    if atom.kind == "bool":
        return atom.name
    parts = []
    for v, a in atom.coeffs:
        if a == 1:
            parts.append(v)
        elif a == -1:
            parts.append("(- %s)" % v)
        else:
            parts.append("(* %s %s)" % (_num_sexpr(Fraction(a)), v))
    lhs = parts[0] if len(parts) == 1 else "(+ %s)" % " ".join(parts)
    return "(%s %s %s)" % (atom.rel, lhs, _num_sexpr(atom.const))


def _term_sexpr(fdag: Dag, node: int) -> str:
    """The term as text; a shared subterm is written out at each use."""
    out: list[str] = []

    def visit(n: int) -> Generator:
        tag = fdag.kind(n)
        if tag == TRUE_KIND:
            out.append("true")
        elif tag == FALSE_KIND:
            out.append("false")
        elif tag == LIT:
            atom, pol = fdag.leaf(n)
            text = _atom_sexpr(atom)
            out.append(text if pol else "(not %s)" % text)
        else:
            # parts go to `out` as the walk reaches them, so the text is
            # built once instead of copied into every enclosing term
            out.append("(" + _OPS[tag])
            for c in fdag.children(n):
                out.append(" ")
                yield c
            out.append(")")

    fold(node, visit, None)
    return "".join(out)


def write_smt2(fdag: Dag, node: int, alpha: AtomSet | None = None) -> str:
    """Emit the formula in the supported subset, declarations first.

    `alpha` widens the declarations to a superset of the formula's atoms;
    the assert itself covers only what the formula mentions.
    """
    atoms = alpha if alpha is not None else atoms_of(fdag, node)
    reals: list[str] = []
    bools: list[str] = []
    for a in atoms:
        if a.kind == "bool":
            if a.name not in bools:
                bools.append(a.name)
        else:
            for v in a.variables():
                if v not in reals:
                    reals.append(v)
    lines = ["(set-logic QF_LRA)"]
    lines.extend("(declare-const %s Real)" % v for v in reals)
    lines.extend("(declare-const %s Bool)" % b for b in bools)
    lines.append("(assert %s)" % _term_sexpr(fdag, node))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"

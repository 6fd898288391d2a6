"""SMT-LIB subset parser and writer tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmt.cli import _parse_literals, main
from kcmt.formulas import Atom, Dag, atoms_of
from kcmt.nnf_io import _atom_from_string
from kcmt.smtlib import SmtParseError, parse_smt2, write_smt2

from conftest import (DEEP, X_LE_0, X_EQ_1, alpha_phi1, alternating_chain,
                      build_phi1, implies_chain, random_atoms, random_formula,
                      shallow_depth)


def parse(text):
    return parse_smt2(text)


class TestParsing:
    def test_phi1(self):
        d, n, alpha = parse(
            "(set-logic QF_LRA)\n"
            "(declare-const x Real)\n"
            "(assert (or (<= x 0) (= x 1)))\n"
            "(check-sat)\n")
        ref = Dag()
        phi1 = build_phi1(ref)
        assert d.structurally_equal(n, ref, phi1)
        assert list(alpha) == [X_LE_0, X_EQ_1]

    def test_empty_script_is_true(self):
        d, n, alpha = parse("(set-logic QF_LRA)\n(check-sat)\n")
        assert n == d.TRUE
        assert len(alpha) == 0

    def test_mixed_lra_and_bool_atoms(self):
        d, n, alpha = parse(
            "(declare-fun x () Real)(declare-fun y () Real)"
            "(declare-fun b () Bool)"
            "(assert (and (<= (+ x y) 3) b))")
        assert [str(a) for a in alpha] == ["x + y <= 3", "b"]
        assert len(alpha) == 2

    def test_multiple_asserts_conjoin(self):
        d, n, alpha = parse(
            "(declare-const x Real)"
            "(assert (<= x 0))(assert (not (= x 1)))")
        ref = Dag()
        want = ref.and_([ref.lit(X_LE_0), ref.lit(X_EQ_1, False)])
        assert d.structurally_equal(n, ref, want)

    def test_normalization_merges_equivalent_writings(self):
        d, n, alpha = parse(
            "(declare-const x Real)"
            "(assert (and (<= x 0) (>= 0 x) (<= (* 2 x) 0)))")
        # all three spellings normalize to the same atom
        assert len(alpha) == 1
        assert alpha[0] == X_LE_0
        assert n == d.lit(X_LE_0, True)

    def test_complement_relations_stay_distinct_atoms(self):
        d, n, alpha = parse(
            "(declare-const x Real)"
            "(assert (and (>= x 1) (not (< x 1))))")
        # (>= x 1) normalizes to -x <= -1; (< x 1) is its own atom
        assert len(alpha) == 2
        assert [str(a) for a in alpha] == ["-x <= -1", "x < 1"]

    def test_let_inlining(self):
        d, n, alpha = parse(
            "(declare-const x Real)"
            "(assert (let ((t (+ x 1)) (u (<= x 0))) (or u (= t 2))))")
        ref = Dag()
        phi1 = build_phi1(ref)
        assert d.structurally_equal(n, ref, phi1)

    def test_let_bindings_are_parallel(self):
        # both bindings see the declared variable, so the body's u and
        # (<= t 1) collapse onto the same normalized atom t <= 0
        d, n, alpha = parse(
            "(declare-const t Real)"
            "(assert (let ((t (+ t 1)) (u (<= t 0))) (and u (<= t 1))))")
        assert [str(a) for a in alpha] == ["t <= 0"]
        assert n == d.lit(Atom.linear({"t": 1}, "<=", 0), True)

    def test_chained_relation(self):
        d, n, alpha = parse("(declare-const x Real)(assert (< 0 x 1))")
        assert [str(a) for a in alpha] == ["-x < 0", "x < 1"]
        ref = Dag()
        want = ref.and_([
            ref.lit(Atom.linear({"x": 1}, ">", 0)),
            ref.lit(Atom.linear({"x": 1}, "<", 1)),
        ])
        assert d.structurally_equal(n, ref, want)

    def test_boolean_equality_is_iff(self):
        d, n, alpha = parse(
            "(declare-const a Bool)(declare-const b Bool)"
            "(assert (= a b))")
        ref = Dag()
        want = ref.iff(ref.lit(Atom.boolean("a")), ref.lit(Atom.boolean("b")))
        assert d.structurally_equal(n, ref, want)

    def test_xor_and_implies(self):
        d, n, alpha = parse(
            "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)"
            "(assert (and (xor a b) (=> a b c)))")
        ref = Dag()
        la, lb, lc = (ref.lit(Atom.boolean(s)) for s in "abc")
        want = ref.and_([
            ref.not_(ref.iff(la, lb)),
            ref.implies(la, ref.implies(lb, lc)),
        ])
        assert d.structurally_equal(n, ref, want)

    def test_ground_comparisons_fold(self):
        d, n, _ = parse("(assert (<= 1 2))")
        assert n == d.TRUE
        d2, n2, _ = parse("(declare-const x Real)(assert (and (<= x 0) (< 2 1)))")
        assert n2 == d2.FALSE

    def test_repeated_comparison_is_normalised_once(self, monkeypatch):
        calls = []
        linear = Atom.linear

        def counted(coeffs, rel, const):
            calls.append((rel, const))
            return linear(coeffs, rel, const)

        monkeypatch.setattr(Atom, "linear", staticmethod(counted))
        n_b = 50
        text = "(declare-const x Real)%s(assert (or %s))" % (
            "".join("(declare-const b%d Bool)" % i for i in range(n_b)),
            " ".join("(and (< x 1) b%d (> 1 x) (<= 1 2))" % i
                     for i in range(n_b)))
        d, n, alpha = parse(text)
        # (< x 1) and (> 1 x) are two spellings of one atom; the ground
        # (<= 1 2) goes through Atom.linear too before it folds to true.
        assert len(calls) == 3
        monkeypatch.undo()
        x_lt_1 = Atom.linear({"x": 1}, "<", 1)
        bs = [Atom.boolean("b%d" % i) for i in range(n_b)]
        ref = Dag()
        want = ref.or_([ref.and_([ref.lit(x_lt_1, True), ref.lit(b, True)])
                        for b in bs])
        assert d.structurally_equal(n, ref, want)
        assert list(alpha) == [x_lt_1] + bs

    def test_numeric_literals(self):
        d, n, alpha = parse(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (<= (* 2 x) (/ 1 2)) (> (- y) 1.5)"
            " (= (- x y) (- 3))))")
        assert [str(a) for a in alpha] == ["x <= 1/4", "y < -3/2", "x - y = -3"]

    def test_division_of_linear_term_by_constant(self):
        d, n, alpha = parse(
            "(declare-const x Real)(assert (<= (/ (+ x 1) 2) 0))")
        assert [str(a) for a in alpha] == ["x <= -1"]

    def test_quoted_symbol(self):
        d, n, alpha = parse("(declare-const |x| Real)(assert (<= |x| 0))")
        assert alpha[0] == X_LE_0


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("(assert (ite true true false))", "ite"),
        ("(push 1)", "push"),
        ("(define-fun f () Bool true)", "define-fun"),
        ("(set-logic QF_NIA)", "unsupported logic"),
        ("(declare-fun f (Real) Bool)", "arguments"),
        ("(declare-const x Int)", "Real and Bool"),
        ("(declare-const x Real)(assert (<= (* x x) 1))", "non-linear"),
        ("(declare-const x Real)(declare-const y Real)"
         "(assert (<= (/ x y) 1))", "non-linear"),
        ("(declare-const x Real)(assert (<= (/ x 0) 1))",
         "division by zero"),
        ("(assert b)", "undeclared"),
        ("(declare-const x Real)(declare-const x Bool)", "duplicate"),
        ("(declare-const x Real)(assert x)", "Bool term"),
        ("(declare-const b Bool)(assert (<= b 0))", "Real arguments"),
        ("(declare-const x Real)(assert (and (<= x 0) x))",
         "Bool arguments"),
        ("(assert (or))", None),
        ("(assert", "unclosed"),
        ("(assert true))", "unbalanced"),
        ("(declare-const p Bool)(assert (let ((a p) (a (not p))) a))",
         "bound twice"),
        ("(declare-const || Bool)", "invalid symbol"),
    ])
    def test_rejects_with_position(self, text, fragment):
        with pytest.raises(SmtParseError) as e:
            parse(text)
        msg = str(e.value)
        assert msg.startswith("line ")
        if fragment:
            assert fragment in msg

    @pytest.mark.parametrize("decl", [
        "(declare-const -x Real)",
        "(declare-const |x <= 1| Bool)",
        "(declare-const |a b| Real)",
        "(declare-const |a\tb| Bool)",
        "(declare-const |2*x| Real)",
        "(declare-const |a,b| Bool)",
        "(declare-const !p Bool)",
        "(declare-fun <= () Real)",
        "(declare-const < Bool)",
        "(declare-const = Real)",
        "(declare-const true Bool)",
        "(declare-const false Real)",
    ], ids=["leading-minus", "relation-inside", "space", "tab", "star",
            "comma", "leading-bang", "le", "lt", "eq", "true", "false"])
    def test_rejects_names_a_map_or_cli_cannot_carry(self, decl):
        with pytest.raises(SmtParseError) as e:
            parse("(set-logic QF_LRA)\n" + decl)
        assert "would not read back" in str(e.value)
        assert (e.value.line, e.value.col) == (2, decl.index(" ") + 2)

    def test_position_is_exact(self):
        with pytest.raises(SmtParseError) as e:
            parse("(declare-const x Real)\n(assert\n  (ite true true false))")
        assert e.value.line == 3
        assert e.value.col == 4

    def test_repeated_let_name_is_reported_at_its_second_binding(self):
        line = "(assert (let ((a p) (a (not p))) a))"
        with pytest.raises(SmtParseError) as e:
            parse("(declare-const p Bool)\n" + line)
        assert (e.value.line, e.value.col) == (2, line.index("a (not") + 1)


# Declarations with a full-line and a trailing comment; a malformed line
# follows them on line 5.
DECLS = ("; declarations\n(declare-const x Real) ; a rational\n"
         "(declare-const a Bool)(declare-const b Bool)\n"
         "(declare-const c Bool)\n")


class TestRareConstructs:
    def test_comments_iff_constant_product_and_false(self):
        fdag = Dag()
        _, iff, alpha = parse_smt2(DECLS + "(assert (iff a b c))", fdag)
        assert [str(atom) for atom in alpha] == ["a", "b", "c"]
        _, eq, _ = parse_smt2(DECLS + "(assert (= a b c))", fdag)
        assert iff == eq
        _, prod, _ = parse_smt2(DECLS + "(assert (<= (* 2 3) x))", fdag)
        _, six, _ = parse_smt2(DECLS + "(assert (<= 6 x))", fdag)
        assert prod == six
        text = write_smt2(fdag, fdag.FALSE)
        assert "(assert false)" in text
        assert parse(text)[1] == fdag.FALSE

    @pytest.mark.parametrize("line,message,marker", [
        ("(declare-const |y Real)", "unterminated quoted symbol", "|"),
        ("(set-logic)", "set-logic expects one symbol", "set"),
        ("(declare-fun y Real)",
         "declare-fun expects (declare-fun name () Sort)", "declare"),
        ("(assert a b)", "assert expects exactly one term", "assert"),
        ("(assert (<= x \u00b2))", "malformed numeral '\u00b2'", "\u00b2"),
        ("(assert (<= x \u0661\u0662))",
         "malformed numeral '\u0661\u0662'", "\u0661"),
        ("(assert (<= x \uff11.\uff15))",
         "malformed numeral '\uff11.\uff15'", "\uff11"),
        ("(assert (let ((c a))))", "let expects a binding list and a body",
         "let"),
        ("(assert (let ((c)) c))", "malformed let binding", "(c)"),
        ("(assert (not a b))", "not is unary", "not"),
        ("(assert (=> a))", "=> needs at least two arguments", "=>"),
        ("(assert (xor a))", "xor needs at least two arguments", "xor"),
        ("(assert (iff a))", "iff needs at least two arguments", "iff"),
        ("(assert (< x))", "'<' needs at least two arguments", "<"),
        ("(assert (<= (* x) 0))", "* needs at least two arguments", "*"),
        ("(assert (<= (/ x 1 2) 0))", "/ is binary", "/"),
        ("(assert (= a x))", "'=' cannot mix Bool and Real arguments", "x"),
        ("(assert (<= (+ x a) 0))", "'+' needs Real arguments", "a)"),
        ("(assert (<= (+) 0))", "+ needs at least one argument", "+"),
        ("(assert (<= (-) 0))", "- needs at least one argument", "-"),
    ])
    def test_malformed_script_is_reported_and_exits_2(self, tmp_path, capsys,
                                                      line, message, marker):
        where = "line 5, column %d: " % (line.index(marker) + 1)
        with pytest.raises(SmtParseError) as e:
            parse(DECLS + line)
        assert str(e.value) == where + message
        src = tmp_path / "bad.smt2"
        src.write_text(DECLS + line, encoding="utf-8")
        assert main(["oracle", "co", "--input", str(src)]) == 2
        assert capsys.readouterr().err == "error: %s%s\n" % (where, message)


class TestWriter:
    def test_phi1_round_trip_with_declarations(self):
        fdag = Dag()
        phi1 = build_phi1(fdag)
        text = write_smt2(fdag, phi1)
        assert "(set-logic QF_LRA)" in text
        assert "(declare-const x Real)" in text
        d, n, alpha = parse(text)
        assert d.structurally_equal(n, fdag, phi1)
        assert list(alpha) == [X_LE_0, X_EQ_1]

    def test_boolean_declarations(self):
        fdag = Dag()
        node = fdag.and_([fdag.lit(Atom.boolean("b")), fdag.lit(X_LE_0)])
        text = write_smt2(fdag, node)
        assert "(declare-const b Bool)" in text
        assert "(declare-const x Real)" in text

    def test_alpha_superset_widens_declarations(self):
        fdag = Dag()
        phi1 = build_phi1(fdag)
        from kcmt.formulas import AtomSet
        wide = AtomSet(list(alpha_phi1()) + [Atom.linear({"y": 1}, "<=", 5)])
        text = write_smt2(fdag, phi1, wide)
        assert "(declare-const y Real)" in text

    def test_true_formula(self):
        fdag = Dag()
        text = write_smt2(fdag, fdag.TRUE)
        assert "(assert true)" in text
        d, n, _ = parse(text)
        assert n == d.TRUE

    def test_random_round_trips(self):
        rng = random.Random(90401)
        for _ in range(40):
            fdag = Dag()
            atoms = random_atoms(rng, rng.randint(0, 2), rng.randint(1, 4),
                                 rng.randint(1, 3))
            node = random_formula(fdag, rng, atoms)
            text = write_smt2(fdag, node)
            d, n, _ = parse(text)
            assert d.structurally_equal(n, fdag, node)


class TestDeepTerms:
    """Terms nested past the recursion limit parse, and write back."""

    ATOMS = [Atom.boolean(name) for name in "pqr"]
    DECLARE = "(declare-const p Bool)(declare-const q Bool)" \
        "(declare-const r Bool)(declare-const x Real)"

    @pytest.mark.parametrize("chain", [implies_chain, alternating_chain])
    def test_written_chain_parses_back(self, chain):
        fdag = Dag()
        lits = [fdag.lit(a) for a in self.ATOMS]
        deep = chain(fdag, DEEP, lits)
        d, n, alpha = parse(write_smt2(fdag, deep))
        assert d.structurally_equal(n, fdag, deep)
        shallow = chain(fdag, shallow_depth(DEEP), lits)
        assert d.truth_bits(n, self.ATOMS) == \
            fdag.truth_bits(shallow, self.ATOMS)

    def test_bool_equality_chain(self):
        def text(depth):
            names = [("p", "q", "r")[i % 3] for i in range(depth + 1)]
            return "%s(assert %s%s%s)" % (
                self.DECLARE, "".join("(= %s " % v for v in names[:-1]),
                names[-1], ")" * depth)

        d, n, _ = parse(text(DEEP))
        ds, ns, _ = parse(text(shallow_depth(DEEP)))
        assert d.truth_bits(n, self.ATOMS) == ds.truth_bits(ns, self.ATOMS)

    def test_arithmetic_chain(self):
        term = "(+ 1 " * DEEP + "(* 2 x)" + ")" * DEEP
        _, _, alpha = parse("%s(assert (<= (- %s) 0))" % (self.DECLARE, term))
        assert list(alpha) == [Atom.linear({"x": -2}, "<=", DEEP)]

    def test_let_chain(self):
        depth = 3000
        text = "(let ((a0 p)) " + "".join(
            "(let ((a%d (not a%d))) " % (i, i - 1) for i in range(1, depth)) \
            + "a%d" % (depth - 1) + ")" * depth
        d, n, _ = parse("%s(assert %s)" % (self.DECLARE, text))
        assert n == d.lit(Atom.boolean("p"), False)


# Symbols, numerals and quoted symbols, well-formed or not, from which the
# property test below builds s-expressions.
_WORDS = (
    "p", "q", "x", "y", "true", "false", "undeclared", "and", "or", "not",
    "=>", "xor", "iff", "ite", "let", "+", "-", "*", "/", "<=", "<", ">=",
    ">", "=", "assert", "declare-const", "declare-fun", "set-logic",
    "QF_LRA", "Real", "Bool", "Int", "check-sat", "0", "1", "-2", "3/4",
    "1.5", ".5", "1.2.3", "-", "00", "1e5", "\u00b2", "||", "|a b|", "|1|",
)
_DECLARED = "(declare-const x Real)(declare-const y Real)" \
    "(declare-const p Bool)(declare-const q Bool)"


def _render(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(%s)" % " ".join(_render(t) for t in tree)


def _let_forms(kids):
    binding = st.lists(kids, max_size=3)
    return st.tuples(st.just("let"), st.lists(binding, max_size=3), kids) \
        .map(list)


_TREES = st.recursive(
    st.sampled_from(_WORDS),
    lambda kids: st.one_of(st.lists(kids, max_size=4), _let_forms(kids)),
    max_leaves=30)


@st.composite
def _scripts(draw):
    text = draw(st.sampled_from(
        ["%s", _DECLARED + "%s", _DECLARED + "(assert %s)"])) \
        % _render(draw(_TREES))
    # unbalanced text: drop one character or add a parenthesis
    where = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["keep", "drop", "(", ")"]))
    if edit == "drop":
        return text[:where] + text[where + 1:]
    if edit != "keep":
        return text[:where] + edit + text[where:]
    return text


# Quoted names: plain ones, and ones over the characters that the map and
# the CLI give a meaning.
_NAMES = st.one_of(
    st.sampled_from(("x", "y", "p", "+", "/", ">=", "a.b", "x-1")),
    st.text(st.sampled_from("xy1.+-*/!,<=> \t"), min_size=1, max_size=4))


@st.composite
def _named_scripts(draw):
    x, y, b = draw(st.lists(_NAMES, min_size=3, max_size=3, unique=True))
    return ("(declare-const |%s| Real)(declare-const |%s| Real)"
            "(declare-const |%s| Bool)"
            "(assert (or |%s| (<= (- |%s| (* 2 |%s|)) 1) (= |%s| 3)))"
            % (x, y, b, b, x, y, y))


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(_scripts(), _named_scripts()))
def test_parse_returns_or_raises_only_smt_parse_error(text):
    try:
        _, _, alpha = parse_smt2(text)
    except SmtParseError:
        return
    # Every atom of a parsed script reads back from its map line, and
    # from a CLI literal of either polarity.
    for a in alpha:
        assert _atom_from_string(str(a)) == a
        assert _parse_literals("!%s,%s" % (a, a), alpha, "test") == \
            [(a, False), (a, True)]

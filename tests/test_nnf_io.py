"""Artifact serialization round-trip and format-validation tests."""

import dataclasses
import hashlib
import random
import re
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kcmt import nnf_io
from kcmt.cli import main
from kcmt.compiler import (
    KIND_DDNNF,
    KIND_OBDD,
    MODE_T_EXTENDED,
    build_text,
    build_tred,
    decision_var,
)
from kcmt.formulas import AND, LIT, OR, Atom, AtomError, AtomSet, Dag, atoms_of
from kcmt.generate import InstanceSpec, generate
from kcmt.lemmas import canonical_lemma
from kcmt.obdd import ObddManager, copy_into, from_formula
from kcmt.nnf_io import (
    NnfIoError,
    _atom_from_string,
    read_map,
    read_nnf,
    write_lemmas,
    write_nnf,
)
from kcmt.queries import (
    count_models,
    count_models_assume,
    enumerate_models,
    equivalent,
    is_consistent,
    is_valid,
)
from kcmt.smtlib import parse_smt2

from conftest import (
    X_EQ_1,
    X_LE_0,
    build_phi1,
    build_phi2,
    bench_instance,
    build_two_clause,
    random_atoms,
    random_formula,
    random_prop,
)


def paths(tmp_path, stem="a"):
    return str(tmp_path / ("%s.nnf" % stem)), str(tmp_path / ("%s.map" % stem))


class TestAtomStrings:
    @pytest.mark.parametrize("atom", [
        X_LE_0,
        X_EQ_1,
        Atom.boolean("b1"),
        Atom.linear({"x1": 2, "x2": -3}, "<", Fraction(7, 2)),
        Atom.linear({"y": 1}, ">=", 1),
        Atom.linear({"a": -1, "b": 1, "c": 5}, "=", -2),
    ])
    def test_round_trip(self, atom):
        assert _atom_from_string(str(atom)) == atom

    @pytest.mark.parametrize("bad", [
        "", "x <=", "<= 0", "x <= 0 extra", "x ? 0", "x + <= 0",
        "x +- y <= 1", "2* <= 1", "2*x <= 2", "- <= 1", "x + x <= 1",
    ])
    def test_malformed(self, bad):
        with pytest.raises((ValueError, IndexError)):
            _atom_from_string(bad)


class TestDdnnfRoundTrip:
    def test_tred_phi1(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_phi1(fdag))
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        back = read_nnf(nnf, mp)
        assert back.kind == art.kind and back.mode == art.mode
        assert list(back.alpha) == list(art.alpha)
        assert len(back.lemmas) == 1
        assert back.dag.structurally_equal(back.root, art.dag, art.root)
        assert count_models(back) == 2
        assert list(enumerate_models(back)) == list(enumerate_models(art))

    def test_text_phi2(self, tmp_path):
        fdag = Dag()
        art = build_text(fdag, build_phi2(fdag))
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        back = read_nnf(nnf, mp)
        assert back.mode == MODE_T_EXTENDED
        assert back.dag.structurally_equal(back.root, art.dag, art.root)
        assert is_valid(back) == is_valid(art)

    def test_text_map_names_the_stored_complement(self, tmp_path):
        fdag = Dag()
        art = build_text(fdag, build_phi2(fdag))
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        map_text = Path(mp).read_text()
        assert "\nmode tExtended-complement\n" in map_text
        # The uncomplemented form's mode line is refused, not reinterpreted.
        Path(mp).write_text(map_text.replace("mode tExtended-complement",
                                             "mode tExtended"))
        for read in (lambda: read_nnf(nnf, mp), lambda: read_map(mp)):
            with pytest.raises(NnfIoError, match="line 3: mode tExtended "
                               ".*recompile the artifact"):
                read()

    def test_smoothed_artifact(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_two_clause(fdag))
        art.root = art.smooth_root()
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        back = read_nnf(nnf, mp)
        assert back.dag.structurally_equal(back.root, art.dag, art.root)
        assert count_models(back) == 2

    def test_false_artifact(self, tmp_path):
        fdag = Dag()
        node = fdag.and_([fdag.lit(X_LE_0), fdag.lit(X_EQ_1)])
        art = build_tred(fdag, node)
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        assert "O 0 0" in Path(nnf).read_text().splitlines()
        back = read_nnf(nnf, mp)
        assert back.root == back.dag.FALSE
        assert not is_consistent(back)

    def test_true_artifact_is_single_a0(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, fdag.TRUE, AtomSet([X_LE_0]))
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        lines = Path(nnf).read_text().splitlines()
        assert lines[-1] == "A 0"
        assert lines[1].startswith("nnf 1 0 ")
        assert read_nnf(nnf, mp).root == Dag().TRUE

    def test_random_corpus(self, tmp_path):
        rng = random.Random(90402)
        for i in range(20):
            fdag = Dag()
            atoms = random_atoms(rng, rng.randint(0, 1), rng.randint(1, 4),
                                 rng.randint(1, 3))
            node = random_formula(fdag, rng, atoms)
            build = build_tred if i % 2 else build_text
            art = build(fdag, node, atoms_of(fdag, node).union(AtomSet(atoms)))
            nnf, mp = paths(tmp_path, "r%d" % i)
            write_nnf(art, nnf, mp)
            back = read_nnf(nnf, mp)
            assert back.dag.structurally_equal(back.root, art.dag, art.root)
            if i % 2:
                assert count_models(back) == count_models(art)
                assert is_consistent(back) == is_consistent(art)
            else:
                assert is_valid(back) == is_valid(art)


class TestObddRoundTrip:
    def test_tred_obdd(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        back = read_nnf(nnf, mp)
        assert back.order == art.order
        assert equivalent(back, art)
        assert count_models(back) == 2
        m = ObddManager(art.order)
        assert copy_into(back.root, m) == copy_into(art.root, m)

    def test_custom_order_and_text_mode(self, tmp_path):
        fdag = Dag()
        art = build_text(fdag, build_phi1(fdag), kind=KIND_OBDD, order=(2, 1))
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        back = read_nnf(nnf, mp)
        assert back.order == (2, 1)
        assert back.mode == MODE_T_EXTENDED
        assert equivalent(back, art)

    def test_terminal_roots(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, fdag.and_([fdag.lit(X_LE_0), fdag.lit(X_EQ_1)]),
                         kind=KIND_OBDD)
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        back = read_nnf(nnf, mp)
        assert back.root.node == ObddManager.FALSE

    @pytest.mark.parametrize("build", [build_tred, build_text],
                             ids=["tred", "text"])
    def test_zero_atom_artifacts(self, tmp_path, build):
        # With no atoms the map's order line is a bare `order`.
        back = {}
        for name in ("true", "false"):
            fdag, node, alpha = parse_smt2("(assert %s)" % name)
            art = build(fdag, node, alpha, kind=KIND_OBDD)
            nnf, mp = paths(tmp_path, name)
            write_nnf(art, nnf, mp)
            back[name] = read_nnf(nnf, mp)
            assert back[name].order == ()
            assert back[name].mode == art.mode
            assert equivalent(back[name], art)
        if build is build_tred:
            assert is_consistent(back["true"])
            assert not is_consistent(back["false"])
            assert count_models(back["true"]) == 1
            assert count_models(back["false"]) == 0
        else:
            assert is_valid(back["true"])
            assert not is_valid(back["false"])
        assert not equivalent(back["true"], back["false"])

    def test_random_corpus(self, tmp_path):
        rng = random.Random(90403)
        for i in range(12):
            fdag = Dag()
            atoms = random_atoms(rng, rng.randint(0, 1), rng.randint(1, 3),
                                 rng.randint(1, 2))
            node = random_formula(fdag, rng, atoms)
            alpha = atoms_of(fdag, node).union(AtomSet(atoms))
            art = build_tred(fdag, node, kind=KIND_OBDD)
            nnf, mp = paths(tmp_path, "r%d" % i)
            write_nnf(art, nnf, mp)
            back = read_nnf(nnf, mp)
            assert equivalent(back, art)
            assert count_models(back) == count_models(art)
            m = ObddManager(art.order)
            assert copy_into(back.root, m) == copy_into(art.root, m)


def nnf_dag(nnf_path):
    """A circuit file's NNF as a Dag, read without any checks."""
    pdag, nodes = Dag(), []
    for line in Path(nnf_path).read_text().splitlines():
        toks = line.split()
        if not toks or toks[0] in ("c", "nnf"):
            continue
        if toks[0] == "L":
            v = int(toks[1])
            nodes.append(pdag.lit(abs(v), v > 0))
        elif toks[0] == "A":
            nodes.append(pdag.and_([nodes[int(t)] for t in toks[2:]]))
        else:
            nodes.append(pdag.or_([nodes[int(t)] for t in toks[3:]]))
    return pdag, nodes[-1]


@pytest.mark.parametrize("kind", [KIND_DDNNF, KIND_OBDD])
def test_relabelled_artifact_answers_alike_after_a_round_trip(tmp_path,
                                                              kind):
    # The atom set is the artifact's one numbering: with its atoms listed
    # in another order, variable i names another atom in memory and in the
    # written map alike.
    fdag = Dag()
    node, alpha = generate(fdag, InstanceSpec(
        num_lra_atoms=6, num_rational_vars=2, dag_depth=3, seed=5))
    art = dataclasses.replace(build_tred(fdag, node, alpha, kind=kind),
                              alpha=AtomSet(reversed(list(alpha))))
    nnf, mp = paths(tmp_path)
    write_nnf(art, nnf, mp)
    back = read_nnf(nnf, mp)
    for atom in alpha:
        for pol in (True, False):
            assert count_models_assume(back, [(atom, pol)]) == \
                count_models_assume(art, [(atom, pol)])


class TestObddFold:
    """Loading folds an OBDD file's lines straight into the manager; the
    diagram must be the one `from_formula` builds from the same NNF."""

    def assert_fold_is_from_formula(self, nnf, mp):
        back = read_nnf(nnf, mp)
        pdag, root = nnf_dag(nnf)
        built = from_formula(pdag, root, ObddManager(back.order))
        shared = ObddManager(back.order)
        assert copy_into(back.root, shared).node == \
            copy_into(built, shared).node

    def test_random_corpus(self, tmp_path):
        rng = random.Random(90403)
        for i in range(12):
            fdag = Dag()
            atoms = random_atoms(rng, rng.randint(0, 1), rng.randint(1, 3),
                                 rng.randint(1, 2))
            node = random_formula(fdag, rng, atoms)
            alpha = atoms_of(fdag, node).union(AtomSet(atoms))
            # every third instance under the reversed order
            order = tuple(range(len(alpha), 0, -1)) if i % 3 == 2 else None
            art = build_tred(fdag, node, alpha, kind=KIND_OBDD, order=order)
            nnf, mp = paths(tmp_path, "r%d" % i)
            write_nnf(art, nnf, mp)
            self.assert_fold_is_from_formula(nnf, mp)

    @pytest.mark.parametrize("order", ["1 2", "2 1"])
    def test_hand_written_disjunction(self, tmp_path, order):
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n")
        mp.write_text("kcmt-map 1\nkind obdd\nmode tReduced\n"
                      "target forFormula\norder %s\natoms 2\nx <= 0\n"
                      "x = 1\nlemmas 0\n" % order)
        self.assert_fold_is_from_formula(str(nnf), str(mp))


class TestLemmaDump:
    def test_dimacs_shape(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_phi1(fdag))
        path = str(tmp_path / "a.lem")
        write_lemmas(art, path)
        lines = Path(path).read_text().splitlines()
        assert lines[1] == "p cnf 2 1"
        assert lines[2] == "-1 -2 0"

    def test_two_clause_lemmas(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_two_clause(fdag))
        path = str(tmp_path / "b.lem")
        write_lemmas(art, path)
        lines = Path(path).read_text().splitlines()
        assert lines[1] == "p cnf 4 2"
        assert set(lines[2:]) == {"-1 -3 0", "-2 -4 0"}


class TestHandWrittenFiles:
    MAP_ONE = ("kcmt-map 1\nkind ddnnf\nmode tReduced\ntarget forFormula\n"
               "atoms 1\nx <= 0\nlemmas 0\n")

    @pytest.mark.parametrize("const", ["1.5", "2/4", "+1", "1_0", "-0",
                                       "1/-2", "1/0"])
    def test_unprinted_constant_refused(self, tmp_path, const):
        # A constant is read only as the writer prints it: an integer, or
        # p/q in lowest terms with a positive q, signed by a leading minus.
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 1 0 1\nL 1\n")
        mp.write_text(self.MAP_ONE.replace("x <= 0", "x <= " + const))
        with pytest.raises(NnfIoError, match="line 6: bad atom string"):
            read_nnf(str(nnf), str(mp))
        assert main(["query", "ct", str(nnf), str(mp)]) == 2

    def test_three_line_literal_file(self, tmp_path):
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("c a single positive literal\nnnf 1 0 1\nL 1\n")
        mp.write_text(self.MAP_ONE)
        art = read_nnf(str(nnf), str(mp))
        assert art.root == art.dag.lit(1, True)
        assert art.alpha[0] == X_LE_0
        assert count_models(art) == 1

    def test_or_without_decision_var(self, tmp_path):
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 3 2 1\nL 1\nL -1\nO 0 2 0 1\n")
        mp.write_text(self.MAP_ONE)
        art = read_nnf(str(nnf), str(mp))
        assert count_models(art) == 2

    def test_decision_judged_by_its_branches(self, tmp_path):
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 3 2 2\nL 1\nL -1\nO 2 2 0 1\n")
        mp.write_text(self.MAP_ONE.replace("atoms 1\nx <= 0",
                                           "atoms 2\nx <= 0\nx = 1"))
        art = read_nnf(str(nnf), str(mp))
        assert count_models(art) == 4

    def test_obdd_kind_accepts_any_nnf(self, tmp_path):
        # OBDD artifacts are rebuilt on read, so p or q counts right.
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n")
        mp.write_text("kcmt-map 1\nkind obdd\nmode tReduced\n"
                      "target forFormula\norder 1 2\natoms 2\nx <= 0\n"
                      "x = 1\nlemmas 0\n")
        art = read_nnf(str(nnf), str(mp))
        assert count_models(art) == 3

    @pytest.mark.parametrize("mode,target", [
        ("tReduced", "forTop"), ("tExtended-complement", "forTop"),
        ("tExtended-complement", "forNegation")])
    def test_lemma_targets_each_mode_takes(self, tmp_path, mode, target):
        nnf = tmp_path / "t.nnf"
        mp = tmp_path / "t.map"
        nnf.write_text("nnf 1 0 1\nL 1\n")
        mp.write_text(self.MAP_ONE.replace("mode tReduced", "mode " + mode)
                      .replace("target forFormula", "target " + target))
        art = read_nnf(str(nnf), str(mp))
        assert art.lemmas.target == target

    def test_lemma_clause_read_in_canonical_order(self, tmp_path):
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 1 0 2\nL 1\n")
        mp.write_text(self.MAP_ONE.replace(
            "atoms 1\nx <= 0\nlemmas 0",
            "atoms 2\nx <= 0\nx = 1\nlemmas 1\n-2 -1 0"))
        art = read_nnf(str(nnf), str(mp))
        assert art.lemmas.lemmas == (
            canonical_lemma([(X_EQ_1, False), (X_LE_0, False)], art.alpha),)
        assert [a for a, _ in art.lemmas.lemmas[0].literals] == \
            [X_LE_0, X_EQ_1]

    def test_blank_lines_and_comments_in_body(self, tmp_path):
        nnf = tmp_path / "h.nnf"
        mp = tmp_path / "h.map"
        nnf.write_text("nnf 2 1 1\nL 1\n\nc note\nA 1 0\n")
        mp.write_text(self.MAP_ONE)
        art = read_nnf(str(nnf), str(mp))
        assert art.root == art.dag.lit(1, True)


class TestFormatErrors:
    def _written(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_phi1(fdag))
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        return art, nnf, mp

    def test_map_hash_mismatch(self, tmp_path):
        art, nnf, mp = self._written(tmp_path)
        text = Path(mp).read_text().replace("x <= 0", "x <= 1")
        Path(mp).write_text(text)
        with pytest.raises(NnfIoError, match="hash mismatch"):
            read_nnf(nnf, mp)

    def test_var_count_mismatch(self, tmp_path):
        art, nnf, mp = self._written(tmp_path)
        lines = Path(nnf).read_text().splitlines()
        # strip the hash comment so the forged header is what fails
        lines[0] = "c edited"
        lines[1] = "nnf 7 6 3"
        Path(nnf).write_text("\n".join(lines) + "\n")
        with pytest.raises(NnfIoError, match="3 variables"):
            read_nnf(nnf, mp)

    @pytest.mark.parametrize("body,err", [
        ("nnf 1 0 2\nL 3\n", "outside 1..2"),
        ("nnf 1 0 2\nL 0\n", "outside 1..2"),
        ("nnf 2 1 2\nA 1 1\n", "does not reference an earlier line"),
        ("nnf 2 1 2\nL 1\nA 2 0\n", "announces 2 children but lists 1"),
        ("nnf 2 1 2\nL 1\nO 3 1 0\n", "outside 0..2"),
        ("nnf 2 1 2\nL 1\nB 1 0\n", "unrecognized"),
        ("nnf 9 1 2\nL 1\nA 1 0\n", "announces 9 nodes"),
        ("nnf 2 5 2\nL 1\nA 1 0\n", "announces 5 edges"),
        ("c only a comment\n", "missing 'nnf' header"),
        ("nnf 1 0\nL 1\n", "nnf <nodes> <edges> <vars>"),
        ("nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n", "not a binary decision"),
        ("nnf 3 2 2\nL 1\nL 2\nO 1 2 0 1\n", "not a binary decision"),
        ("nnf 4 3 2\nL 1\nL -1\nL 2\nO 1 3 0 1 2\n",
         "not a binary decision"),
        ("nnf 3 2 2\nL 1\nL -1\nA 2 0 1\n", "share variable 1"),
        ("nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -2\nA 2 2 3\n",
         "share variable 2"),
        ("nnf 2 1 2\nL 1\nA 1 x\n", "node id 'x' is not an integer"),
        ("nnf 2 1 2\nL 1\nA 1 -1\n",
         "node id -1 does not reference an earlier line"),
        ("nnf 3 2 2\nL 1\nO 1 2 0 2\nL -1\n",
         "node id 2 does not reference an earlier line"),
    ])
    def test_malformed_circuits(self, tmp_path, body, err):
        nnf = tmp_path / "bad.nnf"
        mp = tmp_path / "bad.map"
        nnf.write_text(body)
        mp.write_text("kcmt-map 1\nkind ddnnf\nmode tReduced\n"
                      "target forFormula\natoms 2\nx <= 0\nx = 1\nlemmas 0\n")
        with pytest.raises(NnfIoError, match=err):
            read_nnf(str(nnf), str(mp))

    def test_error_carries_line_number(self, tmp_path):
        nnf = tmp_path / "bad.nnf"
        mp = tmp_path / "bad.map"
        nnf.write_text("nnf 2 1 1\nL 1\nB 1 0\n")
        mp.write_text(TestHandWrittenFiles.MAP_ONE)
        with pytest.raises(NnfIoError, match="line 3"):
            read_nnf(str(nnf), str(mp))

    @pytest.mark.parametrize("mutate,err", [
        (lambda t: t.replace("kcmt-map 1", "other 2"), "not a map file"),
        (lambda t: t.replace("kind ddnnf", "kind cnf"), "unknown kind"),
        (lambda t: t.replace("mode tReduced", "mode loose"), "unknown mode"),
        (lambda t: t.replace("target forFormula", "target x"),
         "unknown lemma target"),
        (lambda t: t.replace("atoms 2", "atoms two"), "must be an integer"),
        (lambda t: t.replace("x = 1", "x <= 0"), "duplicate atom"),
        (lambda t: t.replace("x = 1", "x ? 1"), "bad atom string"),
        (lambda t: t.replace("-1 -2 0", "-1 -2"), "end with 0"),
        (lambda t: t.replace("-1 -2 0", "-1 -9 0"), "bad lemma clause"),
        pytest.param(lambda t: t.replace("-1 -2 0", "-1 0 0"),
                     "bad lemma clause", id="lemma index 0"),
        pytest.param(lambda t: t.replace("-1 -2 0", "1 1 0"),
                     "bad lemma clause", id="duplicate lemma literal"),
        pytest.param(lambda t: t.replace("-1 -2 0", "1 -1 0"),
                     "bad lemma clause", id="complementary lemma literals"),
        pytest.param(lambda t: t.replace("-1 -2 0", "-1 x 0"),
                     "signed integers", id="non-integer lemma token"),
        (lambda t: t + "extra\n", "trailing content"),
        pytest.param(lambda t: t.replace("x <= 0", "x <= 1/0"),
                     "bad atom string", id="zero denominator"),
        pytest.param(lambda t: t.replace("x <= 0", "x +- y <= 1"),
                     "bad atom string", id="x +- y <= 1"),
        pytest.param(lambda t: t.replace("x <= 0", "2* <= 1"),
                     "bad atom string", id="2* <= 1"),
        pytest.param(lambda t: t.replace("x <= 0", "2*x <= 2"),
                     "bad atom string", id="2*x <= 2"),
        pytest.param(lambda t: t.replace("x <= 0", "- <= 1"),
                     "bad atom string", id="- <= 1"),
        pytest.param(lambda t: t.replace("lemmas 1\n-1 -2 0\n",
                                         "lemmas -1\n"),
                     "lemma count must be a non-negative integer",
                     id="lemmas -1"),
        pytest.param(lambda t: t.replace("target forFormula",
                                         "target forNegation"),
                     "line 4: lemma target 'forNegation' does not fit mode "
                     "tReduced", id="forNegation under tReduced"),
        pytest.param(lambda t: t.replace("mode tReduced",
                                         "mode tExtended-complement"),
                     "lemma target 'forFormula' does not fit mode "
                     "tExtended-complement",
                     id="forFormula under tExtended-complement"),
        pytest.param(lambda t: t.replace("atoms 2", "atoms -3"),
                     "line 5: atom count must be a non-negative integer",
                     id="atoms -3"),
    ])
    def test_malformed_maps(self, tmp_path, mutate, err):
        art, nnf, mp = self._written(tmp_path)
        text = mutate(Path(mp).read_text())
        Path(mp).write_text(text)
        with pytest.raises(NnfIoError, match=err):
            read_nnf(nnf, mp)

    # Python's `int` reads each shape, so without the digit check every
    # pair loads.
    @pytest.mark.parametrize("map_lines,body,err", [
        ("atoms 2\nx <= 0\nx = 1\nlemmas 0\n", "nnf 1 0 2\nL +2\n",
         "line 2: bad literal '\\+2'"),
        ("atoms 2\nx <= 0\nx = 1\nlemmas 1_0\n" + "-1 -2 0\n" * 10,
         "nnf 1 0 2\nL 1\n", "line 8: lemma count must be an integer"),
        ("atoms \uff12\nx <= 0\nx = 1\nlemmas 0\n", "nnf 1 0 2\nL 1\n",
         "line 5: atom count must be an integer"),
        ("atoms 2\nx <= 0\nx = 1\nlemmas 0\n",
         "nnf \u0663 2 2\nL 1\nL 2\nA 2 0 1\n",
         "line 1: nnf header needs three integers"),
    ], ids=["+2", "1_0", "fullwidth 2", "arabic-indic 3"])
    def test_numbers_are_ascii_digits(self, tmp_path, map_lines, body, err):
        nnf, mp = paths(tmp_path)
        Path(nnf).write_text(body, encoding="utf-8")
        Path(mp).write_text("kcmt-map 1\nkind ddnnf\nmode tReduced\n"
                            "target forFormula\n" + map_lines,
                            encoding="utf-8")
        with pytest.raises(NnfIoError, match=err):
            read_nnf(nnf, mp)

    def test_obdd_order_must_be_permutation(self, tmp_path):
        fdag = Dag()
        art = build_tred(fdag, build_phi1(fdag), kind=KIND_OBDD)
        nnf, mp = paths(tmp_path)
        write_nnf(art, nnf, mp)
        text = Path(mp).read_text().replace("order 1 2", "order 1 3")
        Path(mp).write_text(text)
        with pytest.raises(NnfIoError, match="permutation"):
            read_nnf(nnf, mp)


# -- fuzzing the readers -----------------------------------------------------


_SNIPPETS = ["0", "1", "-1", "/", "-", "+", "*", " ", "\n", "x", "c", "L",
             "A", "O", "<=", "<", "=", "!", "b"]
_NUMBERS = ["0", "-1", "2", "1/3", "-0", "1/0", "0/0", "99999999999999999999"]


def _mutated(text, rng):
    """One to three character, token or line edits at random places."""
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["drop", "insert", "token", "number", "drop line",
                         "copy line", "swap lines"])
        if op == "drop":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + text[i + 1:]
            continue
        if op == "insert":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_SNIPPETS) + text[i:]
            continue
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        toks = lines[k].split(" ")
        if op == "token":
            toks[rng.randrange(len(toks))] = rng.choice(_SNIPPETS)
            lines[k] = " ".join(toks)
        elif op == "number":
            # The last token of a line: a count, a constant or an id.
            toks[-1] = rng.choice(_NUMBERS)
            lines[k] = " ".join(toks)
        elif op == "drop line":
            del lines[k]
        elif op == "copy line":
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
        else:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        text = "\n".join(lines)
    return text


@pytest.fixture(scope="module")
def fuzz_pairs(tmp_path_factory):
    """Circuit and map texts of a tred, a text and an OBDD artifact over
    Boolean, one- and two-variable atoms with rational constants."""
    root = tmp_path_factory.mktemp("fuzz")
    fdag = Dag()
    half = Atom.linear({"x": 1}, "<=", Fraction(1, 2))
    line = Atom.linear({"x": 1, "y": 1}, "=", 3)
    slope = Atom.linear({"x": 2, "y": -1}, "<", Fraction(-1, 3))
    node = fdag.or_([
        fdag.and_([fdag.lit(half), fdag.lit(line)]),
        fdag.and_([fdag.lit(Atom.boolean("b")), fdag.lit(slope, False)]),
        fdag.and_([fdag.lit(half, False), fdag.lit(slope)]),
    ])
    pairs = []
    for art in (build_tred(fdag, node), build_text(fdag, node),
                build_tred(fdag, node, kind=KIND_OBDD)):
        nnf, mp = paths(root)
        write_nnf(art, nnf, mp)
        pairs.append((Path(nnf).read_text(), Path(mp).read_text()))
    return root, pairs


@seed(20261018)
@settings(max_examples=600, deadline=None, database=None)
@given(which=st.integers(0, 2), in_map=st.booleans(), rehash=st.booleans(),
       rng=st.randoms(use_true_random=False))
def test_mutated_pairs_raise_only_nnf_io_error(fuzz_pairs, which, in_map,
                                               rehash, rng):
    """Mutated circuit/map pairs load or raise NnfIoError, nothing else,
    and a map that loads lists its atoms exactly as the writer prints them.
    A mutated map gets its new hash in the circuit half the time, so the
    circuit is read against it."""
    root, pairs = fuzz_pairs
    circuit, map_text = pairs[which]
    if in_map:
        old = hashlib.sha256(map_text.encode()).hexdigest()
        map_text = _mutated(map_text, rng)
        if rehash:
            circuit = circuit.replace(
                old, hashlib.sha256(map_text.encode()).hexdigest())
    else:
        circuit = _mutated(circuit, rng)
    nnf, mp = paths(root, "mutant")
    Path(nnf).write_text(circuit)
    Path(mp).write_text(map_text)
    _check_accepted_map(mp, map_text)
    try:
        read_nnf(nnf, mp)
    except NnfIoError:
        pass


def _check_accepted_map(mp, map_text):
    """True iff `read_map` accepts the map. An accepted map's atom lines must
    be exactly the printed forms of the atoms it returns."""
    try:
        alpha = read_map(mp)
    except NnfIoError:
        return False
    lines = [line.strip() for line in map_text.splitlines()]
    first = next(i for i, line in enumerate(lines)
                 if line.split()[:1] == ["atoms"]) + 1
    assert lines[first:first + len(alpha)] == [str(a) for a in alpha]
    return True


def test_mutated_maps_read_back_only_printed_atoms(fuzz_pairs):
    """A seeded sweep of map mutations: some edits of an atom line (a
    constant -0, a split or renamed term) still parse as an atom, and the
    reader must refuse them rather than renormalise them."""
    root, pairs = fuzz_pairs
    _, mp = paths(root, "sweep")
    accepted = 0
    for s in range(1500):
        map_text = _mutated(pairs[s % 3][1], random.Random(s))
        Path(mp).write_text(map_text)
        accepted += _check_accepted_map(mp, map_text)
    assert 0 < accepted < 1500


# -- the atom reader against the Atom.linear round trip ----------------------


def _reference_atom_from_string(s: str) -> Atom:
    """Inverse of the atom's printed normal form."""
    toks = s.split()
    if not toks:
        raise AtomError("empty atom string")
    rels = [i for i, t in enumerate(toks) if t in ("<=", "<", "=")]
    if not rels:
        if len(toks) != 1:
            raise AtomError("malformed atom string %r" % s)
        return Atom.boolean(toks[0])
    if len(rels) != 1 or rels[0] == 0 or rels[0] != len(toks) - 2:
        raise AtomError("malformed atom string %r" % s)
    rel = toks[rels[0]]
    try:
        const = Fraction(toks[-1])
    except ZeroDivisionError:
        raise AtomError("zero denominator in atom string %r" % s)
    left = toks[:rels[0]]

    def term(tok: str) -> tuple[int, str]:
        if "*" in tok:
            coef, v = tok.split("*", 1)
            k = int(coef)
        elif tok.startswith("-"):
            k, v = -1, tok[1:]
        else:
            k, v = 1, tok
        if not v:
            raise AtomError("empty variable name in atom string %r" % s)
        return k, v

    coeffs: dict[str, int] = {}
    for sign, tok in zip(["+"] + left[1::2], left[::2]):
        k, v = term(tok)
        coeffs[v] = -k if sign == "-" else k
    atom = Atom.linear(coeffs, rel, const)
    # Only the printed normal form reads back. A stray sign or term, a
    # repeated variable or an unreduced row would otherwise be renormalised
    # into some other atom without a word.
    if str(atom) != s:
        raise AtomError("atom string %r is not in normal form" % s)
    return atom


# Names the SMT-LIB parser refuses are kept too. Such a name need not read
# back as itself, but the reader must treat it as the reference does.
_NAMES = ["x", "y", "z", "x1", "x10", "a_b", "B", "-w", "p*q", "2*v"]


def _row(terms, rel, const) -> str:
    """`terms rel const` printed the way `Atom` prints, but as given: no
    term is dropped, reordered or rescaled."""
    parts = []
    for i, (v, a) in enumerate(terms):
        if i == 0:
            parts.append(v if a == 1 else "-" + v if a == -1
                         else "%d*%s" % (a, v))
        else:
            parts.append("%s %s" % ("+" if a > 0 else "-", v if abs(a) == 1
                                    else "%d*%s" % (abs(a), v)))
    return "%s %s %s" % (" ".join(parts), rel, const)


_atoms = st.one_of(
    st.sampled_from(["b", "p1"]).map(Atom.boolean),
    st.builds(Atom.linear,
              st.dictionaries(st.sampled_from(_NAMES),
                              st.integers(-6, 6).filter(bool),
                              min_size=1, max_size=4),
              st.sampled_from(["<=", "<", "=", ">=", ">"]),
              st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))))

_ATOM_MUTATIONS = ["none", "stray sign", "swap", "repeat", "zero", "scale",
                   "negative lead", "constant 4/2"]


def _mutated_atom(atom, mutation, data) -> str:
    s = str(atom)
    if atom.kind == "bool" or mutation == "none":
        return s
    terms, rel, const = list(atom.coeffs), atom.rel, str(atom.const)
    if mutation == "stray sign":
        toks = s.split()
        i = data.draw(st.integers(0, len(toks)))
        sign = data.draw(st.sampled_from(["+", "-"]))
        if data.draw(st.booleans()) and i < len(toks):
            toks[i] = sign + toks[i]
        else:
            toks.insert(i, sign)
        return " ".join(toks)
    if mutation == "swap":
        i = data.draw(st.integers(0, len(terms) - 1))
        j = data.draw(st.integers(0, len(terms) - 1))
        terms[i], terms[j] = terms[j], terms[i]
    elif mutation == "repeat":
        term = data.draw(st.sampled_from(terms))
        terms.insert(data.draw(st.integers(0, len(terms))), term)
    elif mutation == "zero":
        name = data.draw(st.sampled_from(_NAMES))
        terms.insert(data.draw(st.integers(0, len(terms))), (name, 0))
    elif mutation == "scale":
        f = data.draw(st.sampled_from([2, -1]))
        terms = [(v, a * f) for v, a in terms]
        if data.draw(st.booleans()):
            const = str(atom.const * f)
    elif mutation == "negative lead":
        rel = "="
        if terms[0][1] > 0:
            terms = [(v, -a) for v, a in terms]
    else:
        const = "4/2"
    return _row(terms, rel, const)


def _outcome(read, s):
    """What `read(s)` gives: the atom, or the exception's type and text."""
    try:
        return read(s)
    except Exception as e:
        return type(e), str(e)


@seed(20261019)
@settings(max_examples=1500, deadline=None, database=None)
@given(atom=_atoms, mutation=st.sampled_from(_ATOM_MUTATIONS),
       data=st.data())
def test_atom_reader_agrees_with_the_linear_round_trip(atom, mutation,
                                                        data):
    """The reader accepts exactly the strings the `Atom.linear` round trip
    accepts, returns an equal atom, and refuses the rest with the same
    exception and message."""
    s = _mutated_atom(atom, mutation, data)
    got = _outcome(_atom_from_string, s)
    assert got == _outcome(_reference_atom_from_string, s)
    if isinstance(got, Atom):
        assert str(got) == s
    if mutation == "none" and all(v.isidentifier()
                                  for v in atom.variables()):
        assert got == atom


@pytest.mark.parametrize("s", [
    "x <= 4/2", "x <= -0", "x <= +1", "x <= 1/1", "x <= 2/-3", "x <= 1.5",
    "x <= 1_0", "x <= 1/0", "x <= 0/0", "x <= abc", "0*x <= 1",
    "x + 0*x <= 1/2", "0*x + y <= 1", "2*x + 4*y <= 1", "-x + y = 1",
    "y + x <= 1", "x + x <= 1", "x - x <= 1", "*x <= 1", "1*x <= 1",
    "+x <= 1", "--x <= 1", "-x <= 1", "-2*x < 7/3", "x - 2*y <= 3/2",
    "2*x*y <= 1", "x + -y <= 1", "x <= 99999999999999999999",
])
def test_atom_reader_agrees_on_hand_picked_rows(s):
    assert _outcome(_atom_from_string, s) == \
        _outcome(_reference_atom_from_string, s)


# -- OBDD loads hold only the nodes their root reaches -------------------------


def _reachable(manager, root):
    """Nodes reachable from `root`, both terminals included."""
    seen = {manager.FALSE, manager.TRUE, root}
    stack = [root]
    while stack:
        for c in manager.branches(stack.pop()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _variant_literals(seed, natoms):
    """The literal the benchmark conjoins to F for each of its four EQ/SE
    variants; None is F itself."""
    rng = random.Random("variants:%d" % seed)
    picks = rng.sample(range(natoms), 3)
    return [None] + [(j, rng.random() < 0.5) for j in picks]


def test_obdd_load_holds_only_reachable_nodes(tmp_path):
    """Each written decision loads as one node, so a loaded manager holds
    the nodes its root reaches and no half-built arms. Checked on the OBDD
    artifacts of criterion 7's instances 1000-1019 and on the benchmark's
    EQ/SE variants of each, built in one shared manager."""
    for seed in range(1000, 1020):
        fdag, node, alpha, lemmas = bench_instance(seed)
        arts = [build_tred(fdag, node, alpha, lemmas=lemmas, kind=KIND_OBDD)]
        shared = ObddManager(arts[0].order)
        for lit in _variant_literals(seed, len(alpha)):
            f = node
            if lit is not None:
                f = fdag.and_([node, fdag.lit(alpha[lit[0]], lit[1])])
            arts.append(build_tred(fdag, f, alpha, lemmas=lemmas,
                                   kind=KIND_OBDD, manager=shared))
        for v, art in enumerate(arts):
            nnf, mp = paths(tmp_path, "s%d.%d" % (seed, v))
            write_nnf(art, nnf, mp)
            back = read_nnf(nnf, mp)
            assert len(back.manager) == \
                len(_reachable(back.manager, back.root.node)), (seed, v)
            assert copy_into(back.root, art.manager) == art.root


def test_bodies_list_nodes_in_ascending_handle_order(tmp_path):
    """A d-DNNF body writes one line per node its root reaches, and an OBDD
    body one `O` line per inner node, after its two arms; either way in
    ascending handle order, the root's line last."""
    fdag, node, alpha, lemmas = bench_instance(1000)
    nnf, mp = paths(tmp_path)
    art = build_tred(fdag, node, alpha, lemmas=lemmas)
    write_nnf(art, nnf, mp)
    body = [line.split() for line in Path(nnf).read_text().splitlines()[2:]]
    handles = sorted(art.dag.reachable(art.root))
    assert len(body) == len(handles) and handles[-1] == art.root
    for h, toks in zip(handles, body):
        if toks[0] == "L":
            v, p = art.dag.leaf(h)
            assert int(toks[1]) == (v if p else -v)
        else:
            ids = toks[2:] if toks[0] == "A" else toks[3:]
            assert tuple(handles[int(j)] for j in ids) == art.dag.children(h)

    art = build_tred(fdag, node, alpha, lemmas=lemmas, kind=KIND_OBDD)
    write_nnf(art, nnf, mp)
    body = [line.split() for line in Path(nnf).read_text().splitlines()[2:]]
    m = art.manager
    inner = m.reachable(art.root.node)
    written = {}  # line id -> the handle of the node it writes
    decisions = []
    for i, toks in enumerate(body):
        if toks in (["A", "0"], ["O", "0", "0"]):
            written[i] = m.TRUE if toks[0] == "A" else m.FALSE
        elif toks[0] == "O":
            h = inner[len(decisions)]
            hi_arm, lo_arm = body[int(toks[3])], body[int(toks[4])]
            assert int(toks[1]) == m.var_at(h)
            assert (written[int(hi_arm[3])], written[int(lo_arm[3])]) == \
                m.branches(h)
            written[i] = h
            decisions.append(h)
    assert decisions == inner
    assert written[len(body) - 1] == art.root.node


# -- decisions judged by masks, on the circuits the fuzz test parses ----------


def _reference_asserted_literals(pdag, node):
    """Literals a branch asserts, in child order: itself, or its direct
    AND conjuncts."""
    tag = pdag.kind(node)
    if tag == LIT:
        return (pdag.leaf(node),)
    if tag == AND:
        return tuple(pdag.leaf(c) for c in pdag.children(node)
                     if pdag.kind(c) == LIT)
    return ()


def _reference_decision_var(pdag, node):
    """Variable a binary OR decides, or None when it has no such shape.

    The OR decides v when one branch asserts v and the other asserts not
    v, which makes the branches mutually exclusive. When several
    variables qualify, the first one the left branch asserts wins.
    """
    kids = pdag.children(node)
    if len(kids) != 2:
        return None
    right = set(_reference_asserted_literals(pdag, kids[1]))
    for v, p in _reference_asserted_literals(pdag, kids[0]):
        if (v, not p) in right:
            return v
    return None


def _checked_decision_var(pdag, node):
    got = decision_var(pdag, node)
    assert got == _reference_decision_var(pdag, node)
    return got


def _assert_writes_reference_decisions(art, nnf, mp):
    """Every `O v k ...` line that `write_nnf` prints for a d-DNNF artifact
    names `_reference_decision_var` of its node, or 0 where that is None.
    The lines are rebuilt through `and_`/`or_`, which intern a written line
    as it stands. Returns the number of decisions checked."""
    write_nnf(art, nnf, mp)
    pdag, nodes, ors = Dag(), [], 0
    for line in Path(nnf).read_text().splitlines()[2:]:
        tag, *nums = line.split()
        nums = [int(t) for t in nums]
        if tag == "L":
            nodes.append(pdag.lit(abs(nums[0]), nums[0] > 0))
            continue
        kids = [nodes[j] for j in nums[1 if tag == "A" else 2:]]
        nodes.append(pdag.and_(kids) if tag == "A" else pdag.or_(kids))
        if tag == "O" and kids:
            want = _reference_decision_var(pdag, nodes[-1])
            assert nums[0] == (want or 0), line
            ors += 1
    return ors


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(which=st.integers(0, 2), rng=st.randoms(use_true_random=False))
def test_mutated_circuits_decide_as_the_reference(fuzz_pairs, which, rng):
    """On every OR node of a mutated circuit that loads, the decision
    variable is the one the ordered scan names, and so is the variable on
    each `O` line the writer prints for it."""
    root, pairs = fuzz_pairs
    circuit, map_text = pairs[which]
    nnf, mp = paths(root, "decide")
    Path(nnf).write_text(_mutated(circuit, rng))
    Path(mp).write_text(map_text)
    try:
        back = read_nnf(nnf, mp)
    except NnfIoError:
        return
    if back.dag is not None:
        for n in back.dag.reachable(back.root):
            if back.dag.kind(n) == OR:
                _checked_decision_var(back.dag, n)
        _assert_writes_reference_decisions(back, *paths(root, "rewritten"))


def _assert_decides_as_the_reference(pdag, root):
    ors = [n for n in pdag.reachable(root) if pdag.kind(n) == OR]
    for n in ors:
        _checked_decision_var(pdag, n)
    return len(ors)


def test_benchmark_family_decides_as_the_reference():
    """Every OR node of the tred and text circuits of criterion 7's
    instances 1000-1049, and of their smoothed forms, gets the variable
    the ordered scan names."""
    ors = 0
    for seed in range(1000, 1050):
        fdag, node, alpha, lemmas = bench_instance(seed)
        for art in (build_tred(fdag, node, alpha, lemmas=lemmas),
                    build_text(fdag, node, alpha)):
            ors += _assert_decides_as_the_reference(art.dag, art.root)
            ors += _assert_decides_as_the_reference(art.dag,
                                                    art.smooth_root())
    assert ors > 1000


def test_benchmark_family_writes_the_reference_decisions(tmp_path):
    """The written tred and text circuits of criterion 7's instances
    1000-1049, as built and smoothed, name on each `O` line the variable
    the ordered scan names."""
    nnf, mp = paths(tmp_path)
    ors = 0
    for seed in range(1000, 1050):
        fdag, node, alpha, lemmas = bench_instance(seed)
        for art in (build_tred(fdag, node, alpha, lemmas=lemmas),
                    build_text(fdag, node, alpha)):
            ors += _assert_writes_reference_decisions(art, nnf, mp)
            art.root = art.smooth_root()
            ors += _assert_writes_reference_decisions(art, nnf, mp)
    assert ors > 1000


def test_random_disjunctions_decide_as_the_reference():
    """OR nodes where several variables, or none, qualify, and OR nodes
    over atom leaves, which are no variable indices."""
    rng = random.Random(20261019)
    for _ in range(300):
        pdag = Dag()
        _assert_decides_as_the_reference(
            pdag, pdag.to_nnf(random_prop(pdag, rng, rng.randint(1, 4))))
    for _ in range(100):
        fdag = Dag()
        atoms = random_atoms(rng, rng.randint(0, 2), rng.randint(1, 3), 2)
        _assert_decides_as_the_reference(
            fdag, fdag.to_nnf(random_formula(fdag, rng, atoms)))
    pdag = Dag()
    a, b, na, nb = (pdag.lit(2), pdag.lit(1), pdag.lit(2, False),
                    pdag.lit(1, False))
    both = pdag.or_([pdag.and_([a, b]), pdag.and_([nb, na])])
    assert decision_var(pdag, both) == 2
    assert _reference_decision_var(pdag, both) == 2


# -- the reader against the fold-and-check reference --------------------------


def _reference_mask(pdag, node, disjunction, masks, path, lineno):
    """Variables under a new AND or OR node, from its interned children, with
    the two checks of a d-DNNF file: no shared variable under an AND, and
    a binary decision, by `decision_var`, at an OR."""
    mask = 0
    for c in pdag.children(node):
        below = masks[c]
        if mask & below and not disjunction:
            raise nnf_io._fail(
                path, lineno, "conjuncts share variable %d, so the circuit "
                "is not decomposable" % ((mask & below).bit_length() - 1))
        mask |= below
    if disjunction and decision_var(pdag, node) is None:
        raise nnf_io._fail(path, lineno,
                           "O node is not a binary decision on one variable, "
                           "so the circuit is not deterministic")
    return mask


def _reference_integer(tok):
    """A header count or literal: ASCII digits, at most a leading minus."""
    if re.fullmatch("-?[0-9]+", tok) is None:
        raise ValueError(tok)
    return int(tok)


def _reference_body(nnf, map_text, n_atoms, literal, junction):
    """The root of a circuit file, with every check the two kinds share:
    the map hash, the header and each line's syntax and ids. An `L` line is
    `literal(v)` and an `A` or `O` line `junction(tag, kids, lineno)`."""
    raw = Path(nnf).read_text().splitlines()
    header, body_start = None, 0
    for i, line in enumerate(raw):
        s = line.strip()
        if not s:
            continue
        if s.startswith("c"):
            toks = s.split()
            if len(toks) == 3 and toks[1] == "map" and \
                    toks[2] != hashlib.sha256(map_text.encode()).hexdigest():
                raise nnf_io._fail(nnf, i + 1, "map hash mismatch: circuit "
                                   "was written against a different atom map")
            continue
        header, body_start = s, i + 1
        break
    if header is None:
        raise nnf_io._fail(nnf, len(raw) + 1, "missing 'nnf' header")
    toks = header.split()
    if len(toks) != 4 or toks[0] != "nnf":
        raise nnf_io._fail(nnf, body_start,
                           "expected 'nnf <nodes> <edges> <vars>'")
    try:
        n_nodes, n_edges, n_vars = map(_reference_integer, toks[1:])
    except ValueError:
        raise nnf_io._fail(nnf, body_start, "nnf header needs three integers")
    if n_vars != n_atoms:
        raise NnfIoError("%s: circuit ranges over %d variables but the map "
                         "lists %d atoms" % (nnf, n_vars, n_atoms))
    nodes, edges = [], 0
    for i in range(body_start, len(raw)):
        toks = raw[i].split()
        if not toks or toks[0][0] == "c":
            continue
        lineno, tag, ntoks = i + 1, toks[0], len(toks)
        if tag == "L" and ntoks == 2:
            try:
                v = _reference_integer(toks[1])
            except ValueError:
                raise nnf_io._fail(nnf, lineno, "bad literal %r" % toks[1])
            if not 1 <= abs(v) <= n_vars:
                raise nnf_io._fail(nnf, lineno, "literal variable %d outside "
                                   "1..%d" % (v, n_vars))
            nodes.append(literal(v))
            continue
        if tag == "A" and ntoks >= 2:
            try:
                k = int(toks[1])
            except ValueError:
                raise nnf_io._fail(nnf, lineno,
                                   "bad child count %r" % toks[1])
            start = 2
        elif tag == "O" and ntoks >= 3:
            try:
                v, k = int(toks[1]), int(toks[2])
            except ValueError:
                raise nnf_io._fail(nnf, lineno, "bad O node header")
            if not 0 <= v <= n_vars:
                raise nnf_io._fail(nnf, lineno, "decision variable %d outside "
                                   "0..%d" % (v, n_vars))
            start = 3
        else:
            raise nnf_io._fail(nnf, lineno,
                               "unrecognized line %r" % raw[i].strip())
        if ntoks != start + k:
            raise nnf_io._fail(nnf, lineno, "%s node announces %d children "
                               "but lists %d" % (tag, k, ntoks - start))
        try:
            kids = [nodes[j] for j in map(int, toks[start:]) if j >= 0]
        except (ValueError, IndexError):
            kids = ()
        if len(kids) != k:
            raise nnf_io._bad_child(toks[start:], len(nodes), nnf, lineno)
        edges += k
        nodes.append(junction(tag, kids, lineno))
    if not nodes:
        raise NnfIoError("%s: circuit has no nodes" % nnf)
    if len(nodes) != n_nodes:
        raise NnfIoError("%s: header announces %d nodes but the body has %d"
                         % (nnf, n_nodes, len(nodes)))
    if edges != n_edges:
        raise NnfIoError("%s: header announces %d edges but the body has %d"
                         % (nnf, n_edges, edges))
    return nodes[-1]


def _reference_ddnnf(nnf, map_text, n_atoms):
    """The arena and root of a d-DNNF file, each line folded through
    `and_`/`or_` and each new node checked by `_reference_mask`."""
    pdag = Dag()
    masks = {pdag.TRUE: 0, pdag.FALSE: 0}

    def literal(v):
        node = pdag.lit(abs(v), v > 0)
        masks[node] = 1 << abs(v)
        return node

    def junction(tag, kids, lineno):
        node = pdag.and_(kids) if tag == "A" else pdag.or_(kids)
        if node not in masks:
            masks[node] = _reference_mask(pdag, node, tag == "O", masks, nnf,
                                          lineno)
        return node

    root = _reference_body(nnf, map_text, n_atoms, literal, junction)
    return pdag._payload, root


def _reference_obdd(nnf, map_text, n_atoms, order):
    """The root of an OBDD file, each line folded through the literal,
    `and_` and `or_` of a manager under the map's order."""
    m = ObddManager(order)

    def junction(tag, kids, lineno):
        if tag == "A":
            return reduce(m.and_, kids, m.TRUE)
        return reduce(m.or_, kids, m.FALSE)

    return m.ref(_reference_body(nnf, map_text, n_atoms,
                                 lambda v: m.literal(abs(v), v > 0), junction))


class _Diagram:
    """An OBDD root, equal to another one when both copy into the same node
    of one shared manager, whatever manager each was built in."""

    def __init__(self, ref):
        self.ref = ref

    def __eq__(self, other):
        if not isinstance(other, _Diagram) or \
                other.ref.manager.order != self.ref.manager.order:
            return False
        shared = ObddManager(self.ref.manager.order)
        return copy_into(self.ref, shared) == copy_into(other.ref, shared)

    def __repr__(self):
        return "_Diagram(satcount %d under order %r)" % (
            self.ref.manager.satcount(self.ref.node), self.ref.manager.order)


def _loaded(art):
    """What a load must reproduce: the arena and root of a d-DNNF (the
    diagram of an OBDD), and the lemmas."""
    if art.dag is None:
        return _Diagram(art.root), art.lemmas.lemmas
    return art.dag._payload, art.root, art.lemmas.lemmas


def _reference_outcome(nnf, mp):
    """The NnfIoError text or the `_loaded` tuple of the reference reader.
    With no literal table, every lemma clause takes the reader's checked
    path, signed integers sorted by index."""
    map_text = Path(mp).read_text()
    with mock.patch.object(nnf_io, "_literal_table", lambda atoms: {}):
        try:
            kind, _, order, alpha, lemma_set = nnf_io._parse_map(
                map_text, mp)
            if kind == KIND_OBDD:
                return (_Diagram(_reference_obdd(nnf, map_text, len(alpha),
                                                 order)), lemma_set.lemmas)
            return _reference_ddnnf(nnf, map_text, len(alpha)) + (
                lemma_set.lemmas,)
        except NnfIoError as e:
            return str(e)


def _reader_outcome(nnf, mp):
    try:
        return _loaded(read_nnf(nnf, mp))
    except NnfIoError as e:
        return str(e)


@seed(20261020)
@settings(max_examples=600, deadline=None, database=None)
@given(which=st.integers(0, 2), in_map=st.booleans(), rehash=st.booleans(),
       rng=st.randoms(use_true_random=False))
def test_mutated_pairs_read_as_the_reference(fuzz_pairs, which, in_map,
                                             rehash, rng):
    """A mutated circuit or map loads into the reference's arena, root and
    lemmas, or fails with the reference's message, line number included.
    A mutated map gets its new hash in the circuit half the time."""
    root, pairs = fuzz_pairs
    circuit, map_text = pairs[which]
    if in_map:
        old = hashlib.sha256(map_text.encode()).hexdigest()
        map_text = _mutated(map_text, rng)
        if rehash:
            circuit = circuit.replace(
                old, hashlib.sha256(map_text.encode()).hexdigest())
    else:
        circuit = _mutated(circuit, rng)
    nnf, mp = paths(root, "reference")
    Path(nnf).write_text(circuit)
    Path(mp).write_text(map_text)
    assert _reader_outcome(nnf, mp) == _reference_outcome(nnf, mp)


@pytest.mark.parametrize("body", [
    "nnf 2 1 2\nL 1\nA 1 0\n",  # A 1 x is x
    "nnf 3 2 2\nA 0\nL 1\nA 2 0 1\n",  # a constant child
    "nnf 3 2 2\nO 0 0\nL 1\nO 1 2 0 1\n",
    "nnf 3 2 2\nA 0\nL 1\nO 1 2 0 1\n",  # TRUE absorbs the disjunction
    "nnf 3 2 2\nL 1\nL 2\nA 2 0 0\n",  # a repeated child
    "nnf 5 5 2\nL 1\nL 2\nA 2 0 1\nL -2\nA 3 2 3 0\n",  # a nested AND
    "nnf 6 6 2\nL 1\nL -1\nL 2\nA 2 0 2\nA 2 1 2\nO 1 2 3 4\n",
    # a nested OR decides nothing, once flattened
    "nnf 6 6 2\nL 1\nL -1\nL 2\nO 1 2 0 1\nL -2\nO 0 2 3 4\n",
    # a flat AND over an OR sharing its variable
    "nnf 6 6 2\nL 1\nL -1\nL 2\nA 2 0 2\nO 1 2 3 1\nA 2 0 4\n",
    "nnf 6 6 2\nL 1\nL -1\nL 2\nA 2 0 2\nO 1 2 3 1\nA 2 2 4\n",
    # the same node twice, judged once
    "nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nA 2 1 0\nA 2 0 1\n",
    "nnf 4 4 2\nL 1\nL -1\nO 1 2 0 1\nO 1 2 1 0\n",
])
def test_hand_written_shapes_read_as_the_reference(tmp_path, body):
    nnf, mp = paths(tmp_path)
    Path(nnf).write_text(body)
    Path(mp).write_text("kcmt-map 1\nkind ddnnf\nmode tReduced\n"
                        "target forFormula\natoms 2\nx <= 0\nx = 1\n"
                        "lemmas 2\n1 -2 0\n-2 1 0\n")
    assert _reader_outcome(nnf, mp) == _reference_outcome(nnf, mp)


@pytest.mark.parametrize("order", ["1 2", "2 1"])
@pytest.mark.parametrize("body", [
    "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n",  # two literals, an arm or not
    "nnf 3 2 2\nL 2\nL 1\nA 2 0 1\n",
    "nnf 3 2 2\nL 1\nL -1\nA 2 0 1\n",  # an arm over its own level
    # an arm over TRUE is a literal; then a literal second
    "nnf 5 4 2\nL 2\nA 0\nA 2 0 1\nL 1\nA 2 3 2\n",
    "nnf 7 6 2\nL 1\nL 2\nA 2 0 1\nL -1\nL -2\nA 2 3 4\nO 1 2 2 5\n",
    # arms of one polarity, of two levels, and three of them
    "nnf 6 6 2\nL 1\nL 2\nA 2 0 1\nL -2\nA 2 0 3\nO 1 2 2 4\n",
    "nnf 5 4 2\nL 1\nL -2\nO 0 0\nA 2 1 2\nO 0 2 0 3\n",
    "nnf 8 9 2\nL 1\nL 2\nA 2 0 1\nL -1\nL -2\nA 2 3 4\nA 2 3 1\n"
    "O 1 3 2 5 6\n",
    # one decision's arms reused, and a three-way conjunction
    "nnf 9 11 2\nL 2\nO 0 0\nL 1\nA 2 2 0\nL -1\nA 2 4 1\nO 1 2 3 5\n"
    "A 2 4 0\nA 3 6 7 0\n",
    "nnf 4 1 2\nA 0\nO 0 0\nL -1\nA 1 2\n",
    "nnf 1 0 2\nL -2\n",
])
def test_hand_written_obdd_shapes_read_as_the_reference(tmp_path, body,
                                                        order):
    """Lines that are not the writer's arms or decisions, under both orders,
    load as the manager folds them."""
    nnf, mp = paths(tmp_path)
    Path(nnf).write_text(body)
    Path(mp).write_text("kcmt-map 1\nkind obdd\nmode tReduced\n"
                        "target forFormula\norder %s\natoms 2\nx <= 0\n"
                        "x = 1\nlemmas 1\n-1 2 0\n" % order)
    got = _reader_outcome(nnf, mp)
    assert not isinstance(got, str)
    assert got == _reference_outcome(nnf, mp)


def test_benchmark_corpus_reads_as_the_reference(tmp_path):
    """The tred and text files of the benchmark's query corpus members load
    into the reference's arena, root and lemmas."""
    for seed in (1000, 1002):
        fdag, node, alpha, lemmas = bench_instance(seed)
        for art in (build_tred(fdag, node, alpha, lemmas=lemmas),
                    build_text(fdag, node, alpha)):
            nnf, mp = paths(tmp_path)
            write_nnf(art, nnf, mp)
            got = _reader_outcome(nnf, mp)
            assert not isinstance(got, str)
            assert got == _reference_outcome(nnf, mp)

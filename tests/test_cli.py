"""Tests for the command-line surface and its exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kcmt
from kcmt.bench import COLUMNS
from kcmt.cli import main

# The src/ directory holding the kcmt package under test.
SRC_DIR = Path(kcmt.__file__).resolve().parent.parent

PHI1_SMT2 = (
    "(set-logic QF_LRA)\n"
    "(declare-const x Real)\n"
    "(assert (or (<= x 0) (= x 1)))\n"
)
NEG_PHI1_SMT2 = (
    "(set-logic QF_LRA)\n"
    "(declare-const x Real)\n"
    "(assert (not (or (<= x 0) (= x 1))))\n"
)
PHI2_SMT2 = (
    "(set-logic QF_LRA)\n"
    "(declare-const x Real)\n"
    "(assert (= (not (<= x 0)) (= x 1)))\n"
)
UNSAT_SMT2 = (
    "(set-logic QF_LRA)\n"
    "(declare-const x Real)\n"
    "(assert (and (<= x 0) (>= x 1)))\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with the worked-example inputs compiled every way."""
    root = tmp_path_factory.mktemp("cli")
    (root / "phi1.smt2").write_text(PHI1_SMT2)
    (root / "phi2.smt2").write_text(PHI2_SMT2)
    (root / "unsat.smt2").write_text(UNSAT_SMT2)
    jobs = [
        ("phi1", "tred", "ddnnf", "tred"),
        ("phi1", "text", "ddnnf", "text"),
        ("phi1", "tred", "obdd", "o1"),
        ("phi2", "tred", "obdd", "o2"),
        ("unsat", "tred", "ddnnf", "unsat"),
    ]
    for source, mode, target, stem in jobs:
        code = main([
            "compile", "--input", str(root / ("%s.smt2" % source)),
            "--mode", mode, "--target", target,
            "--out", str(root / ("%s.nnf" % stem)),
            "--map", str(root / ("%s.map" % stem)),
        ])
        assert code == 0
    return root


def art(ws, stem):
    return [str(ws / ("%s.nnf" % stem)), str(ws / ("%s.map" % stem))]


def child_env():
    """The environment for a child process that must import this kcmt.

    ``SRC_DIR`` goes first on ``PYTHONPATH``, ahead of any inherited
    entries, so the child cannot pick up a stale installed copy.
    """
    env = dict(os.environ)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), *inherited])
    return env


class TestCompile:
    def test_summary_and_files(self, tmp_path, capsys):
        src = tmp_path / "f.smt2"
        src.write_text(PHI1_SMT2)
        code, out, _ = run(
            capsys, "compile", "--input", str(src), "--mode", "tred",
            "--target", "ddnnf", "--out", str(tmp_path / "f.nnf"),
            "--map", str(tmp_path / "f.map"),
            "--lemmas-out", str(tmp_path / "f.lem"), "--smooth")
        assert code == 0
        assert "tReduced ddnnf: 2 atoms, 1 lemmas" in out
        lem = (tmp_path / "f.lem").read_text().splitlines()
        assert lem[1] == "p cnf 2 1"
        assert lem[2] == "-1 -2 0"
        map_lines = (tmp_path / "f.map").read_text().splitlines()
        assert map_lines[0] == "kcmt-map 1"

    def test_order_file_drives_obdd(self, tmp_path, capsys):
        src = tmp_path / "f.smt2"
        src.write_text(PHI1_SMT2)
        (tmp_path / "ord.txt").write_text("2 1\n")
        code, out, _ = run(
            capsys, "compile", "--input", str(src), "--mode", "tred",
            "--target", "obdd", "--order", str(tmp_path / "ord.txt"),
            "--out", str(tmp_path / "f.nnf"), "--map", str(tmp_path / "f.map"))
        assert code == 0
        assert "order 2 1" in (tmp_path / "f.map").read_text()

    def test_zero_atom_obdd_reads_back(self, tmp_path, capsys):
        src = tmp_path / "t.smt2"
        src.write_text("(assert true)\n")
        nnf, mp = str(tmp_path / "t.nnf"), str(tmp_path / "t.map")
        code, _, _ = run(
            capsys, "compile", "--input", str(src), "--mode", "tred",
            "--target", "obdd", "--out", nnf, "--map", mp)
        assert code == 0
        assert run(capsys, "query", "ct", nnf, mp) == (0, "1\n", "")

    @pytest.mark.parametrize("order", ["1 1", "1 2 2"])
    def test_repeated_order_index_exits_two(self, ws, tmp_path, capsys,
                                            order):
        (tmp_path / "ord.txt").write_text(order + "\n")
        code, _, err = run(
            capsys, "compile", "--input", str(ws / "phi1.smt2"),
            "--mode", "tred", "--target", "obdd",
            "--order", str(tmp_path / "ord.txt"),
            "--out", str(tmp_path / "x.nnf"), "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "order must be a permutation" in err

    def test_non_integer_order_exits_two(self, ws, tmp_path, capsys):
        (tmp_path / "ord.txt").write_text("1 two\n")
        code, _, err = run(
            capsys, "compile", "--input", str(ws / "phi1.smt2"),
            "--mode", "tred", "--target", "obdd",
            "--order", str(tmp_path / "ord.txt"),
            "--out", str(tmp_path / "x.nnf"), "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "must hold whitespace-separated integers" in err

    def test_name_a_map_cannot_carry_exits_two(self, tmp_path, capsys):
        src = tmp_path / "f.smt2"
        src.write_text("(declare-const -x Real)\n(assert (<= -x 0))\n")
        code, _, err = run(
            capsys, "compile", "--input", str(src), "--mode", "tred",
            "--target", "ddnnf", "--out", str(tmp_path / "x.nnf"),
            "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "line 1, column 16" in err
        assert not (tmp_path / "x.map").exists()

    def test_order_rejected_for_ddnnf(self, ws, tmp_path, capsys):
        (tmp_path / "ord.txt").write_text("1 2\n")
        code, _, err = run(
            capsys, "compile", "--input", str(ws / "phi1.smt2"),
            "--mode", "tred", "--target", "ddnnf",
            "--order", str(tmp_path / "ord.txt"),
            "--out", str(tmp_path / "x.nnf"), "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "--order applies to the obdd target" in err

    def test_smooth_rejected_for_obdd(self, ws, tmp_path, capsys):
        code, _, err = run(
            capsys, "compile", "--input", str(ws / "phi1.smt2"),
            "--mode", "tred", "--target", "obdd", "--smooth",
            "--out", str(tmp_path / "x.nnf"), "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "--smooth applies to the ddnnf target" in err

    def test_parse_error_reports_position(self, tmp_path, capsys):
        src = tmp_path / "bad.smt2"
        src.write_text("(assert (foo x))\n")
        code, _, err = run(
            capsys, "compile", "--input", str(src), "--mode", "tred",
            "--target", "ddnnf", "--out", str(tmp_path / "x.nnf"),
            "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "line 1, column" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "compile", "--input", str(tmp_path / "absent.smt2"),
            "--mode", "tred", "--target", "ddnnf",
            "--out", str(tmp_path / "x.nnf"), "--map", str(tmp_path / "x.map"))
        assert code == 2
        assert "absent.smt2" in err

    def test_deep_formula_compiles_and_counts_as_the_oracle(self, tmp_path,
                                                           capsys):
        atoms = ("p", "q", "(< x 1)", "(< x 2)")
        depth = 100_000
        chain = "".join("(=> %s " % atoms[i % 4] for i in range(depth))
        src = tmp_path / "deep.smt2"
        src.write_text(
            "(declare-const x Real)(declare-const p Bool)"
            "(declare-const q Bool)(assert %s(not p)%s)" % (chain, ")" * depth))
        nnf, mp = str(tmp_path / "deep.nnf"), str(tmp_path / "deep.map")
        code, out, _ = run(capsys, "compile", "--input", str(src),
                           "--mode", "tred", "--target", "ddnnf",
                           "--out", nnf, "--map", mp)
        assert code == 0
        assert "4 atoms" in out
        code, counted, _ = run(capsys, "query", "ct", nnf, mp)
        assert code == 0
        code, expected, _ = run(capsys, "oracle", "ct", "--input", str(src),
                                "--alpha-from", mp)
        assert (code, counted) == (0, expected)

    @pytest.mark.parametrize("target", ["ddnnf", "obdd"])
    def test_long_conjunction_of_bounds_compiles(self, tmp_path, capsys,
                                                 target):
        """The lemma walk is as deep as the arithmetic atoms are many, 1,200
        here, far past the interpreter's recursion limit."""
        n = 1200
        src = tmp_path / "bounds.smt2"
        src.write_text("".join("(declare-const x%d Real)" % i
                               for i in range(n)) + "(assert (and %s))" %
                       " ".join("(<= x%d %d)" % (i, i) for i in range(n)))
        nnf, mp = str(tmp_path / "b.nnf"), str(tmp_path / "b.map")
        code, out, err = run(capsys, "compile", "--input", str(src),
                             "--mode", "tred", "--target", target,
                             "--out", nnf, "--map", mp)
        assert (code, err) == (0, "")
        assert "1200 atoms, 0 lemmas" in out
        assert run(capsys, "query", "ct", nnf, mp)[:2] == (0, "1\n")


class TestQuery:
    def test_co_true(self, ws, capsys):
        code, out, _ = run(capsys, "query", "co", *art(ws, "tred"))
        assert (code, out.strip()) == (0, "true")

    def test_co_false_exits_one(self, ws, capsys):
        code, out, _ = run(capsys, "query", "co", *art(ws, "unsat"))
        assert (code, out.strip()) == (1, "false")

    def test_ct(self, ws, capsys):
        code, out, _ = run(capsys, "query", "ct", *art(ws, "tred"))
        assert (code, out.strip()) == (0, "2")
        code, out, _ = run(capsys, "query", "ct", *art(ws, "unsat"))
        assert (code, out.strip()) == (0, "0")

    def test_ce_verdicts(self, ws, capsys):
        code, out, _ = run(capsys, "query", "ce",
                           "--clause", "!x <= 0,!x = 1", *art(ws, "tred"))
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "query", "ce",
                           "--clause", "x = 1", *art(ws, "tred"))
        assert (code, out.strip()) == (1, "false")

    def test_im_on_textended(self, ws, capsys):
        code, out, _ = run(capsys, "query", "im",
                           "--cube", "x <= 0", *art(ws, "text"))
        assert (code, out.strip()) == (0, "true")

    def test_ct_assume(self, ws, capsys):
        code, out, _ = run(capsys, "query", "ct",
                           "--assume", "!x <= 0", *art(ws, "tred"))
        assert (code, out.strip()) == (0, "1")

    def test_me_lists_both_models(self, ws, capsys):
        code, out, _ = run(capsys, "query", "me", *art(ws, "tred"))
        assert code == 0
        assert set(out.splitlines()) == {"x <= 0,!x = 1", "!x <= 0,x = 1"}

    def test_unknown_atom_is_usage_error(self, ws, capsys):
        code, _, err = run(capsys, "query", "ce",
                           "--clause", "y <= 9", *art(ws, "tred"))
        assert code == 2
        assert "unknown atom" in err

    def test_duplicate_literal_is_usage_error(self, ws, capsys):
        code, _, err = run(capsys, "query", "ce",
                           "--clause", "x <= 0,!x <= 0", *art(ws, "tred"))
        assert code == 2

    def test_mode_violations_exit_three(self, ws, capsys):
        code, _, err = run(capsys, "query", "ct", *art(ws, "text"))
        assert code == 3
        assert "mode violation" in err
        code, _, _ = run(capsys, "query", "va", *art(ws, "tred"))
        assert code == 3
        code, _, _ = run(capsys, "query", "eq",
                         "--other", *art(ws, "tred"), *art(ws, "tred"))
        assert code == 3

    def test_old_textended_map_exits_two(self, ws, tmp_path, capsys):
        # A map whose mode line names the tExtended form itself belongs to a
        # circuit of that form, not of its complement; read as the
        # complement, every VA and IM verdict would flip.
        nnf, mp = art(ws, "text")
        map_text = Path(mp).read_text()
        assert "\nmode tExtended-complement\n" in map_text
        old_map = map_text.replace("\nmode tExtended-complement\n",
                                   "\nmode tExtended\n")
        digest = hashlib.sha256(old_map.encode()).hexdigest()
        body = Path(nnf).read_text().split("\n", 1)[1]
        (tmp_path / "old.map").write_text(old_map)
        (tmp_path / "old.nnf").write_text("c map %s\n%s" % (digest, body))
        for verb, extra in (("va", []), ("im", ["--cube", "x <= 0"])):
            code, out, err = run(capsys, "query", verb, *extra,
                                 str(tmp_path / "old.nnf"),
                                 str(tmp_path / "old.map"))
            assert (code, out) == (2, "")
            assert "recompile" in err

    def test_tred_artifact_of_the_negation_is_no_textended(self, ws, tmp_path,
                                                           capsys):
        # The tReduced artifact of not phi has the circuit the tExtended
        # artifact of phi stores; only its mode line tells them apart.
        (tmp_path / "neg.smt2").write_text(NEG_PHI1_SMT2)
        code, _, _ = run(capsys, "compile", "--input",
                         str(tmp_path / "neg.smt2"), "--mode", "tred",
                         "--target", "ddnnf", "--out", str(tmp_path / "n.nnf"),
                         "--map", str(tmp_path / "n.map"))
        assert code == 0
        assert "\nmode tReduced\n" in (tmp_path / "n.map").read_text()
        for verb, extra in (("va", []), ("im", ["--cube", "x <= 0"])):
            code, out, err = run(capsys, "query", verb, *extra,
                                 str(tmp_path / "n.nnf"),
                                 str(tmp_path / "n.map"))
            assert (code, out) == (3, "")
            assert "mode violation" in err

    def test_non_decomposable_circuit_exits_two(self, ws, tmp_path, capsys):
        # p or q, hand-written as a non-deterministic OR: counting it as a
        # d-DNNF would print 4 where the answer is 3.
        (tmp_path / "pq.nnf").write_text("nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n")
        (tmp_path / "pq.map").write_text(
            "kcmt-map 1\nkind ddnnf\nmode tReduced\ntarget forFormula\n"
            "atoms 2\np\nq\nlemmas 0\n")
        code, out, err = run(capsys, "query", "ct", str(tmp_path / "pq.nnf"),
                             str(tmp_path / "pq.map"))
        assert (code, out) == (2, "")
        assert "not a binary decision" in err

    def test_zero_denominator_in_map_exits_two(self, tmp_path, capsys):
        (tmp_path / "z.nnf").write_text("nnf 1 0 2\nL 1\n")
        (tmp_path / "z.map").write_text(
            "kcmt-map 1\nkind ddnnf\nmode tReduced\ntarget forFormula\n"
            "atoms 2\nx <= 1/0\nx = 1\nlemmas 0\n")
        code, out, err = run(capsys, "query", "ct", str(tmp_path / "z.nnf"),
                             str(tmp_path / "z.map"))
        assert (code, out) == (2, "")
        assert "bad atom string" in err

    def test_internal_error_exits_five(self, ws, capsys, monkeypatch):
        def broken(artifact):
            raise RuntimeError("broken\ncounter")

        monkeypatch.setattr("kcmt.cli.count_models", broken)
        code, out, err = run(capsys, "query", "ct", *art(ws, "tred"))
        assert (code, out) == (5, "")
        assert err == "internal error: RuntimeError: broken counter\n"

    def test_eq_obdd_equivalent_pair(self, ws, capsys):
        code, out, _ = run(capsys, "query", "eq",
                           "--other", *art(ws, "o2"), *art(ws, "o1"))
        assert (code, out.strip()) == (0, "true")

    def test_se_both_directions(self, ws, capsys):
        code, out, _ = run(capsys, "query", "se",
                           "--other", *art(ws, "o2"), *art(ws, "o1"))
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "query", "se",
                           "--other", *art(ws, "o1"), *art(ws, "o2"))
        assert (code, out.strip()) == (0, "true")

    def test_eq_order_mismatch_exits_three(self, ws, tmp_path, capsys):
        (tmp_path / "ord.txt").write_text("2 1\n")
        code = main([
            "compile", "--input", str(ws / "phi1.smt2"), "--mode", "tred",
            "--target", "obdd", "--order", str(tmp_path / "ord.txt"),
            "--out", str(tmp_path / "r.nnf"), "--map", str(tmp_path / "r.map")])
        assert code == 0
        capsys.readouterr()
        code, _, err = run(capsys, "query", "eq",
                           "--other", str(tmp_path / "r.nnf"),
                           str(tmp_path / "r.map"), *art(ws, "o1"))
        assert code == 3
        assert "variable order" in err


class TestOracle:
    def test_ct_pinned_to_map(self, ws, capsys):
        code, out, _ = run(capsys, "oracle", "ct",
                           "--input", str(ws / "phi1.smt2"),
                           "--alpha-from", str(ws / "tred.map"))
        assert (code, out.strip()) == (0, "2")

    def test_verdicts(self, ws, capsys):
        code, out, _ = run(capsys, "oracle", "co",
                           "--input", str(ws / "phi1.smt2"))
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "oracle", "va",
                           "--input", str(ws / "phi1.smt2"))
        assert (code, out.strip()) == (1, "false")
        code, out, _ = run(capsys, "oracle", "co",
                           "--input", str(ws / "unsat.smt2"))
        assert (code, out.strip()) == (1, "false")

    def test_me_matches_query(self, ws, capsys):
        code, query_out, _ = run(capsys, "query", "me", *art(ws, "tred"))
        assert code == 0
        code, oracle_out, _ = run(capsys, "oracle", "me",
                                  "--input", str(ws / "phi1.smt2"),
                                  "--alpha-from", str(ws / "tred.map"))
        assert code == 0
        assert set(oracle_out.splitlines()) == set(query_out.splitlines())

    def test_clause_and_cube_verbs(self, ws, capsys):
        code, out, _ = run(capsys, "oracle", "ce",
                           "--clause", "!x <= 0,!x = 1",
                           "--input", str(ws / "phi1.smt2"))
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "oracle", "im", "--cube", "x <= 0",
                           "--input", str(ws / "phi1.smt2"))
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "oracle", "ct", "--assume", "!x <= 0",
                           "--input", str(ws / "phi1.smt2"))
        assert (code, out.strip()) == (0, "1")

    def test_eq_between_smt2_files(self, ws, capsys):
        code, out, _ = run(capsys, "oracle", "eq",
                           "--input", str(ws / "phi1.smt2"),
                           "--other", str(ws / "phi2.smt2"))
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "oracle", "se",
                           "--input", str(ws / "unsat.smt2"),
                           "--other", str(ws / "phi1.smt2"))
        assert (code, out.strip()) == (0, "true")

    def test_alpha_from_must_cover_formula(self, ws, tmp_path, capsys):
        other = tmp_path / "y.smt2"
        other.write_text("(declare-const y Real)(assert (<= y 0))")
        code, _, err = run(capsys, "oracle", "co", "--input", str(other),
                           "--alpha-from", str(ws / "tred.map"))
        assert code == 2
        assert "not in the map" in err


VERBS = ("co", "va", "ce", "im", "ct", "me", "eq", "se")
LITERALS = ("x <= 0", "!x <= 0", "x = 1", "!x = 1", "x <= 0,x = 1",
            "!x <= 0,!x = 1", "!x <= 0,x = 1")


def _commands(capsys, group):
    """The verb -> help-line listing of `kcmt <group> --help`."""
    code, out, _ = run(capsys, group, "--help")
    assert code == 0
    listing = out.split("Commands:\n", 1)[1].splitlines()
    return dict(line.strip().split(None, 1) for line in listing if line)


class TestVerbTable:
    def test_groups_list_the_same_verbs_and_help(self, capsys):
        query = _commands(capsys, "query")
        assert set(query) == set(VERBS)
        assert _commands(capsys, "oracle") == query

    @pytest.mark.parametrize("group", ["query", "oracle"])
    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_help_exits_zero(self, capsys, group, verb):
        code, out, _ = run(capsys, group, verb, "--help")
        assert code == 0
        assert out.startswith("Usage: ")

    @pytest.mark.parametrize("group", ["query", "oracle"])
    def test_empty_assume_is_usage_error(self, ws, capsys, group):
        target = (art(ws, "tred") if group == "query"
                  else ["--input", str(ws / "phi1.smt2")])
        code, out, err = run(capsys, group, "ct", "--assume", "", *target)
        assert (code, out) == (2, "")
        assert "empty literal in --assume" in err

    @pytest.mark.parametrize("verb", VERBS)
    def test_query_matches_oracle(self, ws, capsys, verb):
        """Every artifact that can answer a verb prints what the oracle
        prints, with the same exit code."""
        option = {"ce": "--clause", "im": "--cube", "ct": "--assume"}.get(verb)
        if verb in ("eq", "se"):
            cases = [(["--other", *art(ws, stem)],
                      ["--other", str(ws / ("%s.smt2" % source))])
                     for stem, source in (("o1", "phi1"), ("o2", "phi2"))]
        else:
            cases = [([option, lits],) * 2 for lits in LITERALS if option]
        if verb in ("co", "va", "ct", "me"):
            cases.append(([], []))
        for query_args, oracle_args in cases:
            code, out, _ = run(capsys, "oracle", verb, *oracle_args,
                               "--input", str(ws / "phi1.smt2"),
                               "--alpha-from", str(ws / "tred.map"))
            assert code in (0, 1)
            answers = [run(capsys, "query", verb, *query_args,
                           *art(ws, stem))[:2]
                       for stem in ("tred", "text", "o1")]
            # Exit 3: the artifact's mode cannot answer this verb.
            answers = [a for a in answers if a[0] != 3]
            assert answers, query_args
            assert all(a == (code, out) for a in answers), query_args


class TestGenBench:
    def test_gen_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.smt2", tmp_path / "b.smt2"
        for path in (a, b):
            code, out, _ = run(capsys, "gen", "--seed", "5",
                               "--lra-atoms", "4", "--vars", "2",
                               "--out", str(path))
            assert code == 0
            assert "4 atoms" in out
        assert a.read_text() == b.read_text()

    def test_gen_rejects_bad_spec(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--lra-atoms", "2", "--vars", "0",
                           "--out", str(tmp_path / "x.smt2"))
        assert code == 2
        assert "rational variable" in err

    def test_boolean_heavy_instance_compiles_and_counts(self, tmp_path,
                                                         capsys):
        smt2 = str(tmp_path / "b.smt2")
        code, _, _ = run(capsys, "gen", "--bool-atoms", "12",
                         "--lra-atoms", "14", "--vars", "3", "--depth", "4",
                         "--seed", "1000", "--out", smt2)
        assert code == 0
        nnf, mp = str(tmp_path / "b.nnf"), str(tmp_path / "b.map")
        code, _, _ = run(capsys, "compile", "--input", smt2, "--mode", "tred",
                         "--target", "ddnnf", "--out", nnf, "--map", mp)
        assert code == 0
        assert run(capsys, "query", "ct", nnf, mp) == (0, "262400\n", "")

    def test_bench_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(json.dumps({
            "instances": [
                {"name": "a", "seed": 1, "lraAtoms": 4, "vars": 2}],
            "clauses": 3,
        }))
        out_csv = tmp_path / "report.csv"
        code, out, _ = run(capsys, "bench", "--spec", str(cfg),
                           "--out", str(out_csv), "--jobs", "2")
        assert code == 0
        assert "rows -> %s" % out_csv in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert all(line.endswith("yes") for line in lines[1:])

    def test_bench_rejects_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("{\"bogus\": 1}")
        code, _, err = run(capsys, "bench", "--spec", str(cfg),
                           "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "unknown config keys" in err



def _with_ff(src: Path, dst: Path) -> str:
    """`dst` as a copy of `src` with a 0xff byte, which no UTF-8 text
    holds, in its last line; returns its path."""
    dst.write_bytes(src.read_bytes().rstrip(b"\n") + b" \xff\n")
    return str(dst)


class TestNonUtf8Input:
    """A file that is not UTF-8 text is malformed input: exit 2, with an
    error that names the file, whatever the locale."""

    def assert_refused(self, capsys, bad, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and bad in err
        assert "not UTF-8 text" in err

    def test_map_of_a_query(self, ws, tmp_path, capsys):
        bad = _with_ff(ws / "tred.map", tmp_path / "bad.map")
        self.assert_refused(capsys, bad, "query", "ct",
                            str(ws / "tred.nnf"), bad)

    def test_map_of_an_oracle_alpha(self, ws, tmp_path, capsys):
        bad = _with_ff(ws / "tred.map", tmp_path / "bad.map")
        self.assert_refused(capsys, bad, "oracle", "ct",
                            "--input", str(ws / "phi1.smt2"),
                            "--alpha-from", bad)

    def test_circuit_of_a_query(self, ws, tmp_path, capsys):
        bad = _with_ff(ws / "tred.nnf", tmp_path / "bad.nnf")
        self.assert_refused(capsys, bad, "query", "ct", bad,
                            str(ws / "tred.map"))

    def test_smt2_input_of_compile(self, ws, tmp_path, capsys):
        bad = _with_ff(ws / "phi1.smt2", tmp_path / "bad.smt2")
        self.assert_refused(capsys, bad, "compile", "--input", bad,
                            "--mode", "tred", "--target", "ddnnf",
                            "--out", str(tmp_path / "f.nnf"),
                            "--map", str(tmp_path / "f.map"))
        assert not (tmp_path / "f.nnf").exists()

    def test_bench_config(self, tmp_path, capsys):
        good = tmp_path / "bench.cfg"
        good.write_text(json.dumps({"instances": [{"name": "a", "seed": 1}]}))
        bad = _with_ff(good, tmp_path / "bad.cfg")
        self.assert_refused(capsys, bad, "bench", "--spec", bad,
                            "--out", str(tmp_path / "r.csv"))

class TestEntryPoints:
    def test_bare_invocation_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 0
        assert "Usage" in out

    def test_help_flag(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "compile" in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_console_script(self, ws):
        """The declared ``kcmt`` script, run as an installer would wrap it."""
        tomllib = pytest.importorskip("tomllib")
        with open(SRC_DIR.parent / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["kcmt"]
        module, _, attr = target.partition(":")
        wrapper = "import sys; from %s import %s; sys.exit(%s())" % (
            module, attr, attr)
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "query", "ct", *art(ws, "tred")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    @pytest.mark.skipif(shutil.which("kcmt") is None,
                        reason="kcmt console script not installed")
    def test_installed_console_script(self, ws):
        proc = subprocess.run(
            [shutil.which("kcmt"), "query", "ct", *art(ws, "tred")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    def test_module_invocation(self, ws):
        proc = subprocess.run(
            [sys.executable, "-m", "kcmt", "query", "co", *art(ws, "unsat")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1
        assert proc.stdout.strip() == "false"

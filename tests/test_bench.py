"""Tests for the benchmark harness."""

import csv
import json
import os
import subprocess
import sys

import pytest

import kcmt
from kcmt.bench import COLUMNS, BenchError, bench_run, load_config, validate_config
from kcmt.cli import main

TIMING = ("tEnumMs", "compileMs", "queryMs")

UNSAT_SMT2 = (
    "(set-logic QF_LRA)(declare-const x Real)"
    "(assert (and (<= x 0) (>= x 1)))"
)


def stable(rows):
    """Rows with wall-clock fields dropped, for determinism comparisons."""
    return [{k: v for k, v in r.items() if k not in TIMING} for r in rows]


class TestConfig:
    def test_load_applies_defaults(self, tmp_path):
        p = tmp_path / "bench.cfg"
        p.write_text(json.dumps({"instances": []}))
        cfg = load_config(str(p))
        assert cfg["clauses"] == 10
        assert cfg["oracleBound"] == 16
        assert cfg["enumTimeoutS"] == 3600.0
        assert cfg["queryTimeoutS"] == 600.0

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "bench.cfg"
        p.write_text("{not json")
        with pytest.raises(BenchError, match="not valid JSON"):
            load_config(str(p))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read config"):
            load_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"bogus": 1}, "unknown config keys"),
            ({"instances": {}}, "instances must be a list"),
            ({"instances": [3]}, "instance 0 must be an object"),
            ({"instances": [{"seed": 1, "smt2": "x"}]}, "mixes smt2"),
            ({"instances": [{"sede": 1}]}, "unknown fields"),
            ({"instances": [{"smt2": 7}]}, "smt2 must be a string"),
            ({"clauses": -1}, "non-negative integer"),
            ({"oracleBound": 1.5}, "non-negative integer"),
            ({"compileTimeoutS": 0}, "positive number"),
            # JSON booleans are not numbers, though Python's bool is an int.
            ({"clauses": True}, "non-negative integer"),
            ({"clauseSeed": False}, "non-negative integer"),
            ({"enumTimeoutS": True}, "positive number"),
            ({"instances": [{"lraAtoms": True}]},
             "instance 0: lraAtoms must be an integer"),
            ({"instances": [{"seed": 1, "vars": False}]},
             "instance 0: vars must be an integer"),
            ({"instances": [{"depth": 2.5}]},
             "instance 0: depth must be an integer"),
            ([], "config must be a JSON object"),
        ],
    )
    def test_invalid_configs_rejected(self, raw, fragment):
        with pytest.raises(BenchError, match=fragment):
            validate_config(raw)

    def test_non_positive_override_rejected(self):
        with pytest.raises(BenchError, match="timeout-s"):
            bench_run({"instances": []}, None, timeout_s=0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(BenchError, match="jobs must be at least 1"):
            bench_run({"instances": []}, None, jobs=jobs)

    def test_boolean_config_exits_2(self, tmp_path):
        p = tmp_path / "bench.cfg"
        p.write_text(json.dumps({"clauses": True, "instances": []}))
        assert main(["bench", "--spec", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 2


class TestRows:
    def test_empty_instance_list_writes_header_only(self, tmp_path):
        out = tmp_path / "report.csv"
        rows = bench_run({"instances": []}, str(out))
        assert rows == []
        assert out.read_text().strip() == ",".join(COLUMNS)

    def test_ten_seeded_instances_all_oracle_consistent(self, tmp_path):
        cfg = {
            "instances": [
                {"name": "r%d" % s, "seed": s, "lraAtoms": 4 + s % 3,
                 "vars": 2, "boolAtoms": s % 2}
                for s in range(10)
            ],
            "clauses": 5,
        }
        out = tmp_path / "report.csv"
        rows = bench_run(cfg, str(out))
        assert {r["instance"] for r in rows} == {"r%d" % s for s in range(10)}
        assert all(r["oracleOk"] == "yes" for r in rows)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert stable(parsed) == stable(rows)
        assert list(parsed[0].keys()) == list(COLUMNS)

    def test_unsat_instance_reports_false_and_zero(self):
        rows = bench_run(
            {"instances": [{"name": "unsat", "smt2": UNSAT_SMT2}],
             "clauses": 2},
            None,
        )
        by_query = {r["query"]: r for r in rows}
        assert by_query["co"]["answer"] == "false"
        assert by_query["ct"]["answer"] == "0"
        assert all(r["oracleOk"] == "yes" for r in rows)

    @pytest.mark.parametrize("smt2", ["(assert true)", ""],
                             ids=["true", "empty"])
    def test_instance_without_atoms_draws_no_clause(self, tmp_path, smt2):
        cfg = {"instances": [{"name": "t", "smt2": smt2}], "clauses": 3}
        rows = bench_run(cfg, None)
        assert [(r["query"], r["answer"]) for r in rows] == \
            [("co", "true"), ("ct", "1")]
        p = tmp_path / "bench.cfg"
        p.write_text(json.dumps(cfg))
        assert main(["bench", "--spec", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 0

    def test_battery_shape(self):
        rows = bench_run(
            {"instances": [{"seed": 3, "lraAtoms": 5, "vars": 2}],
             "clauses": 6},
            None,
        )
        kinds = [r["query"].split(":")[0] for r in rows]
        assert kinds[:2] == ["co", "ct"]
        assert kinds.count("ce") == 6
        open_clauses = [r for r in rows
                        if r["query"].startswith("ce:")
                        and r["answer"] == "false"]
        assert kinds.count("ct") == 1 + len(open_clauses)

    def test_assume_queries_negate_open_clauses(self):
        rows = bench_run(
            {"instances": [{"seed": 4, "lraAtoms": 5, "vars": 2}],
             "clauses": 8},
            None,
        )
        open_lits = [r["query"][3:] for r in rows
                     if r["query"].startswith("ce:") and r["answer"] == "false"]
        assume_lits = [r["query"][3:] for r in rows
                       if r["query"].startswith("ct:")]

        def flip(text):
            return ",".join(
                lit[1:] if lit.startswith("!") else "!" + lit
                for lit in text.split(","))

        assert [flip(t) for t in open_lits] == assume_lits

    def test_instance_fields_constant_within_instance(self):
        rows = bench_run(
            {"instances": [{"seed": 6, "lraAtoms": 4, "vars": 2}]},
            None,
        )
        for key in ("instance", "atoms", "inputNodes", "lemmaCount",
                    "tEnumMs", "compileMs", "dagNodes"):
            assert len({r[key] for r in rows}) == 1
        assert int(rows[0]["atoms"]) == 4
        assert int(rows[0]["lemmaCount"]) >= 0
        assert int(rows[0]["dagNodes"]) >= 1

    def test_parallel_run_matches_serial(self):
        cfg = {
            "instances": [
                {"name": "a", "seed": 1, "lraAtoms": 4, "vars": 2},
                {"name": "b", "seed": 2, "lraAtoms": 5, "vars": 2},
                {"name": "c", "smt2": UNSAT_SMT2},
            ],
            "clauses": 3,
        }
        assert stable(bench_run(cfg, None)) == \
            stable(bench_run(cfg, None, jobs=3))

    def test_pool_is_no_larger_than_the_instance_list(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records its size and maps in this process."""

            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(t) for t in tasks]

        monkeypatch.setattr("multiprocessing.Pool", InProcessPool)
        two = {"instances": [{"smt2": UNSAT_SMT2}, {"smt2": UNSAT_SMT2}],
               "clauses": 1}
        serial = stable(bench_run(two, None))
        assert stable(bench_run(two, None, jobs=8)) == serial
        assert sizes == [2]
        bench_run({"instances": [{"smt2": UNSAT_SMT2}]}, None, jobs=8)
        bench_run(two, None, jobs=1)
        assert sizes == [2]

    def test_repeat_run_is_deterministic(self):
        cfg = {"instances": [{"seed": 9, "lraAtoms": 5, "vars": 3}],
               "clauses": 5, "clauseSeed": 2}
        assert stable(bench_run(cfg, None)) == stable(bench_run(cfg, None))

    def test_timeout_marks_row_and_run_continues(self):
        cfg = {
            "instances": [
                {"name": "a", "seed": 1, "lraAtoms": 4, "vars": 2},
                {"name": "b", "seed": 2, "lraAtoms": 4, "vars": 2},
            ],
        }
        rows = bench_run(cfg, None, timeout_s=1e-9)
        assert [r["instance"] for r in rows] == ["a", "b"]
        for row in rows:
            assert row["query"] == "enumerate"
            assert row["answer"] == "timeout"
            assert row["oracleOk"] == "skip"
            assert row["lemmaCount"] == ""

    def test_compile_timeout_gives_one_row(self):
        cfg = {"instances": [{"seed": 1, "lraAtoms": 4, "vars": 2}],
               "compileTimeoutS": 1e-9}
        [row] = bench_run(cfg, None)
        assert (row["query"], row["answer"], row["oracleOk"]) == \
            ("compile", "timeout", "skip")
        assert row["lemmaCount"] != "" and row["dagNodes"] == ""

    def test_query_timeout_marks_every_query_row(self):
        cfg = {"instances": [{"seed": 1, "lraAtoms": 4, "vars": 2}],
               "clauses": 3, "queryTimeoutS": 1e-9}
        rows = bench_run(cfg, None)
        assert [r["query"][:2] for r in rows[:5]] == \
            ["co", "ct", "ce", "ce", "ce"]
        for row in rows:
            assert (row["answer"], row["oracleOk"]) == ("timeout", "skip")
            assert row["queryMs"] != "" and row["dagNodes"] != ""

    def test_oracle_skipped_outside_bound(self):
        rows = bench_run(
            {"instances": [{"seed": 5, "lraAtoms": 5, "vars": 2}],
             "clauses": 2, "oracleBound": 3},
            None,
        )
        assert all(r["oracleOk"] == "skip" for r in rows)

    def test_bad_inline_instance_names_the_instance(self):
        cfg = {"instances": [{"name": "oops", "smt2": "(assert (foo x))"}]}
        with pytest.raises(BenchError, match="oops"):
            bench_run(cfg, None)


def test_import_kcmt_does_not_load_multiprocessing():
    """Only a bench run with more than one worker needs a process pool."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kcmt.__file__)))
    code = ("import sys, kcmt\n"
            "print('multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"

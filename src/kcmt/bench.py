"""Benchmark harness over the compile-then-query pipeline.

A JSON config names the instances (seeded generator draws or inline
SMT-LIB text), and each instance is compiled once and then answers a
query battery: consistency, model count, clausal entailment on random
clauses of size 1 to 3, and counting under the negation of every
non-entailed clause (the number of counterexamples to the entailment).
Answers are cross-checked against the exhaustive enumerator whenever
the atom count is within the configured bound.

Per-phase budgets (enumeration, compilation, per-query) mark rows as
timed out without aborting the run. Nothing is preempted: every phase,
the cross-check enumerator included, runs to completion and is then
marked by its measured wall-clock time. Real deadlines are open item 7,
"Budgets", in ROADMAP.md.
"""

import csv
import json
import random
import time

from .compiler import build_tred
from .formulas import Dag
from .generate import InstanceSpec, generate
from .lemmas import enumerate_lemmas
from .oracle import Oracle
from .queries import (
    count_models,
    count_models_assume,
    entails_clause,
    is_consistent,
)
from .smtlib import parse_smt2

__all__ = ["COLUMNS", "BenchError", "load_config", "bench_run"]

COLUMNS = ("instance", "atoms", "inputNodes", "lemmaCount", "tEnumMs",
           "compileMs", "dagNodes", "query", "answer", "queryMs", "oracleOk")

_DEFAULTS = {
    "clauses": 10,
    "clauseSeed": 0,
    "oracleBound": 16,
    "enumTimeoutS": 3600.0,
    "compileTimeoutS": 3600.0,
    "queryTimeoutS": 600.0,
}

_GEN_KEYS = {
    "seed": "seed",
    "boolAtoms": "num_bool_atoms",
    "lraAtoms": "num_lra_atoms",
    "vars": "num_rational_vars",
    "depth": "dag_depth",
}


class BenchError(ValueError):
    """Ill-formed benchmark configuration."""


def load_config(path: str) -> dict:
    """Read and validate a JSON benchmark config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise BenchError("cannot read config: %s" % exc) from exc
    except UnicodeDecodeError as exc:
        raise BenchError("config %s is not UTF-8 text: %s"
                         % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise BenchError("config is not valid JSON: %s" % exc) from exc
    return validate_config(raw)


def validate_config(raw) -> dict:
    if not isinstance(raw, dict):
        raise BenchError("config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS) - {"instances"}
    if unknown:
        raise BenchError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    cfg.setdefault("instances", [])
    if not isinstance(cfg["instances"], list):
        raise BenchError("instances must be a list")
    # Exact types: JSON true and false load as bool, a subclass of int.
    for key in ("clauses", "clauseSeed", "oracleBound"):
        if type(cfg[key]) is not int or cfg[key] < 0:
            raise BenchError("%s must be a non-negative integer" % key)
    for key in ("enumTimeoutS", "compileTimeoutS", "queryTimeoutS"):
        value = cfg[key]
        if type(value) not in (int, float) or value <= 0:
            raise BenchError("%s must be a positive number" % key)
        cfg[key] = float(value)
    for i, entry in enumerate(cfg["instances"]):
        _check_instance(entry, i)
    return cfg


def _check_instance(entry, index: int) -> None:
    if not isinstance(entry, dict):
        raise BenchError("instance %d must be an object" % index)
    keys = set(entry) - {"name"}
    if "smt2" in keys:
        if keys != {"smt2"}:
            raise BenchError(
                "instance %d mixes smt2 text with generator fields" % index)
        if not isinstance(entry["smt2"], str):
            raise BenchError("instance %d: smt2 must be a string" % index)
        return
    bad = keys - set(_GEN_KEYS)
    if bad:
        raise BenchError(
            "instance %d: unknown fields %s" % (index, ", ".join(sorted(bad))))
    for key in sorted(keys):
        if type(entry[key]) is not int:
            raise BenchError(
                "instance %d: %s must be an integer" % (index, key))


def _materialize(entry: dict):
    """Instance entry -> (fdag, node, alpha)."""
    if "smt2" in entry:
        return parse_smt2(entry["smt2"])
    fields = {_GEN_KEYS[k]: v for k, v in entry.items() if k in _GEN_KEYS}
    fdag = Dag()
    node, alpha = generate(fdag, InstanceSpec(**fields))
    return fdag, node, alpha


def _sample_clauses(rng: random.Random, alpha, count: int) -> list:
    """`count` random clauses of 1 to 3 atoms; none over no atoms."""
    clauses = []
    for _ in range(count if len(alpha) else 0):
        size = rng.randint(1, min(3, len(alpha)))
        picks = rng.sample(range(len(alpha)), size)
        clauses.append(
            [(alpha[i], rng.random() < 0.5) for i in sorted(picks)])
    return clauses


def _literal_text(lits) -> str:
    return ",".join(("" if p else "!") + str(a) for a, p in lits)


def _ms(seconds: float) -> str:
    return "%.3f" % (seconds * 1000.0)


def _fmt(answer) -> str:
    if isinstance(answer, bool):
        return "true" if answer else "false"
    return str(answer)


def _run_instance(task) -> list:
    """One instance -> its CSV rows. Top level so a pool can pickle it."""
    index, entry, cfg = task
    name = entry.get("name", "i%d" % index)
    try:
        fdag, node, alpha = _materialize(entry)
    except Exception as exc:
        raise BenchError("instance %s: %s" % (name, exc)) from exc

    base = {
        "instance": name,
        "atoms": str(len(alpha)),
        "inputNodes": str(len(fdag.reachable(node))),
        "lemmaCount": "",
        "tEnumMs": "",
        "compileMs": "",
        "dagNodes": "",
    }

    start = time.perf_counter()
    lemmas = enumerate_lemmas(fdag, node, alpha)
    t_enum = time.perf_counter() - start
    base["tEnumMs"] = _ms(t_enum)
    if t_enum > cfg["enumTimeoutS"]:
        return [dict(base, query="enumerate", answer="timeout",
                     queryMs="", oracleOk="skip")]
    base["lemmaCount"] = str(len(lemmas))

    start = time.perf_counter()
    artifact = build_tred(fdag, node, alpha, lemmas=lemmas)
    t_compile = time.perf_counter() - start
    base["compileMs"] = _ms(t_compile)
    if t_compile > cfg["compileTimeoutS"]:
        return [dict(base, query="compile", answer="timeout",
                     queryMs="", oracleOk="skip")]
    base["dagNodes"] = str(len(artifact.dag.reachable(artifact.root)))

    oracle = None
    if 0 < len(alpha) <= cfg["oracleBound"]:
        oracle = Oracle(bound=cfg["oracleBound"])

    rows = []

    def run(label: str, call, oracle_arg=None, oracle_kind=None):
        start = time.perf_counter()
        answer = call()
        elapsed = time.perf_counter() - start
        if elapsed > cfg["queryTimeoutS"]:
            rows.append(dict(base, query=label, answer="timeout",
                             queryMs=_ms(elapsed), oracleOk="skip"))
            return answer
        ok = "skip"
        if oracle is not None:
            expected = oracle.query(oracle_kind, fdag, node, alpha, oracle_arg)
            ok = "yes" if expected == answer else "no"
        rows.append(dict(base, query=label, answer=_fmt(answer),
                         queryMs=_ms(elapsed), oracleOk=ok))
        return answer

    run("co", lambda: is_consistent(artifact), oracle_kind="co")
    run("ct", lambda: count_models(artifact), oracle_kind="ct")

    rng = random.Random("%d:%d" % (cfg["clauseSeed"], index))
    open_clauses = []
    for clause in _sample_clauses(rng, alpha, cfg["clauses"]):
        entailed = run("ce:" + _literal_text(clause),
                       lambda c=clause: entails_clause(artifact, c),
                       oracle_arg=clause, oracle_kind="ce")
        if not entailed:
            open_clauses.append(clause)
    for clause in open_clauses:
        cube = [(atom, not positive) for atom, positive in clause]
        run("ct:" + _literal_text(cube),
            lambda c=cube: count_models_assume(artifact, c),
            oracle_arg=cube, oracle_kind="ct")
    return rows


def bench_run(config: dict, out_path: str | None, jobs: int = 1,
              timeout_s: float | None = None) -> list:
    """Run the battery over every instance and write the CSV report.

    `timeout_s` overrides all three phase budgets. At most `jobs` workers
    run, one per instance at most. Returns the rows.
    """
    if jobs < 1:
        raise BenchError("jobs must be at least 1")
    cfg = validate_config(config)
    if timeout_s is not None:
        if timeout_s <= 0:
            raise BenchError("timeout-s must be positive")
        for key in ("enumTimeoutS", "compileTimeoutS", "queryTimeoutS"):
            cfg[key] = float(timeout_s)
    tasks = [(i, entry, cfg) for i, entry in enumerate(cfg["instances"])]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here, so that `import kcmt` does not load it.
        from multiprocessing import Pool
        with Pool(workers) as pool:
            per_instance = pool.map(_run_instance, tasks, chunksize=1)
    else:
        per_instance = [_run_instance(t) for t in tasks]
    rows = [row for batch in per_instance for row in batch]
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(COLUMNS))
            writer.writeheader()
            writer.writerows(rows)
    return rows

"""kcmt benchmark: one workload per process, result as one JSON line.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

`--seed` seeds the op streams (query mix, cubes, op order); `--base`
(default 1000) picks the instance seeds of the corpus, see corpus.py.
With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics and writes its spans to
perfbench/out/. See README.md for the metric definitions.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("compile", "query_warm", "query_cold")

# per-layer time metric -> (span names, inclusive of child spans)
LAYER_TIMES = {
    "smtlib.parse_ms": (("smtlib.parse",), False),
    "theory.ms": (("theory.check",), False),
    "lemmas.enum_ms": (("lemmas.enum",), True),
    "lemmas.neg_enum_ms": (("lemmas.neg_enum",), True),
    "lemmas.self_ms": (("lemmas.enum", "lemmas.neg_enum"), False),
    "compiler.tred_ms": (("compiler.build_tred",), False),
    "compiler.text_ms": (("compiler.build_text",), False),
    "compiler.smooth_ms": (("compiler.smooth_root",), False),
    "obdd.build_ms": (("obdd.build_tred",), False),
    "nnf_io.write_ms": (("nnf_io.write",), False),
    "nnf_io.read_ms": (("nnf_io.read",), False),
}
LAYER_COUNTS = ("theory.checks", "theory.unsat", "lemmas.count",
                "lemmas.literals", "compiler.nodes", "compiler.pad_nodes",
                "obdd.nodes", "nnf_io.bytes", "queries.visits",
                "queries.arena_growth")


def put_kcmt_on_path():
    if not os.path.isfile(os.path.join(SRC, "kcmt", "__init__.py")):
        sys.exit("perfbench: kcmt sources not found under %s" % SRC)
    sys.path.insert(0, SRC)


def end_to_end(setup_times, tally):
    """Times are at the speed of the host at rest (workloads.HostSpeed).
    Latency percentiles are over each op's median repetition, and `wall_s`
    is their sum: one pass at median op times."""
    from workloads import percentile
    per_op = tally.per_op()
    ms = [s * 1000.0 for s in per_op]
    edges, obdd_nodes = tally.emitted
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p99_ms": (percentile(ms, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "circuit_edges": (edges, "count"),
        "obdd_nodes": (obdd_nodes, "count"),
    }


def per_layer(tracer, tally):
    """Each time or count is totalled per unit of work and the median
    taken over units: a traced pass when the stream does that work, else
    the set-up. Query latencies are medians per call."""
    from spans import SETUP
    from workloads import KINDS
    durations = tracer.durations()
    passes = sorted({p for p, _ in durations} | {p for p, _ in tracer.counts})
    passes = [p for p in passes if p != SETUP]

    def per_unit(names, value):
        units = [p for p in passes if any(value(p, n) is not None
                                          for n in names)] or [SETUP]
        return statistics.median(sum(value(p, n) or 0 for n in names)
                                 for p in units)

    def span_total(inclusive):
        def value(p, name):
            got = durations.get((p, name))
            return None if got is None else sum(
                d[0 if inclusive else 1] for d in got)
        return value

    def count(p, name):
        return tracer.counts.get((p, name))

    out = {}
    for metric, (names, inclusive) in LAYER_TIMES.items():
        out[metric] = (per_unit(names, span_total(inclusive)) * 1000.0, "ms")
    for metric in LAYER_COUNTS:
        out[metric] = (per_unit((metric,), count),
                       "bytes" if metric == "nnf_io.bytes" else "count")
    checks = out["theory.checks"][0]
    out["theory.us_per_check"] = (
        out["theory.ms"][0] * 1000.0 / checks if checks else 0.0, "us")
    lemmas = out["lemmas.count"][0]
    out["lemmas.checks_per_lemma"] = (checks / lemmas if lemmas else 0.0,
                                      "ratio")
    for kind in KINDS:
        calls = [d[0] for p in passes
                 for d in durations.get((p, "queries." + kind), ())]
        if kind == "me":
            out["queries.me_ms"] = (statistics.median(calls) * 1e3, "ms")
        else:
            out["queries.%s_us" % kind] = (statistics.median(calls) * 1e6,
                                           "us")
    out["trace.overhead_s"] = (statistics.median(tally.traced_walls)
                               - statistics.median(tally.walls), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", type=int, default=1000,
                        help="first instance seed of the corpus")
    args = parser.parse_args(argv)
    put_kcmt_on_path()
    from spans import NullTracer, Tracer
    from workloads import run

    tracer = Tracer() if args.trace else NullTracer()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup_times, tally = run(args.workload, args.seed, args.seconds,
                                 tracer, args.base, workdir)
    finally:
        shutil.rmtree(workdir)
    if args.trace:
        metrics = per_layer(tracer, tally)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl"
                                  % (args.workload, args.seed)))
    else:
        print("perfbench: host speed %.3f of the reference"
              % tally.speed.relative(), file=sys.stderr)
        metrics = end_to_end(setup_times, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

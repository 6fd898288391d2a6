"""The three workloads, driven through the public kcmt API.

All three are closed loops with one client: one op in flight, the next
sent when the previous returns, no pool and no threads. Each workload
repeats a seeded pass (a fixed list of ops) while the time budget lasts,
so every pass does the same work and its counters repeat exactly.

- compile: an op takes one instance from SMT-LIB text to three written
  artifacts. Lemma enumeration does nearly all of the work.
- query_warm: set-up compiles and loads the instances; a pass is a long
  stream of queries against in-memory artifacts, reloaded (untimed)
  before each pass so smoothing caches and arena growth start afresh.
- query_cold: the same artifacts and query mix, shaped like the CLI: an
  op reads the artifact(s) from disk and answers exactly one query.
"""

import dataclasses
import fractions
import os
import random
import signal
import statistics
import sys
import time
import traceback

from kcmt import (KIND_OBDD, ObddManager, build_text, build_tred, copy_into,
                  count_models, count_models_assume, entails_clause,
                  enumerate_lemmas, enumerate_models, equivalent,
                  is_consistent, is_implicant, is_valid, parse_smt2,
                  read_nnf, sentential_entails, write_nnf)
from kcmt.lemmas import TARGET_NEGATION

import corpus
from spans import SETUP, NullTracer

NULL = NullTracer()
# An untraced run sets up at least SETUP_REPS times and for at least
# SETUP_MIN_S seconds, so that a cheap set-up's median rests on many samples.
SETUP_REPS = 3
SETUP_MIN_S = 5.0
WARM_PASS = 2000  # queries per query_warm pass
COLD_PASS = 400  # ops per query_cold pass
CHECK_CUBES = 4  # seeded cubes per kind in a compile op's answer check
# Host speed (HostSpeed): a sample every CAL_GAP_S seconds. CAL_REF_S is the
# median sample inside runs on a 2-core Xeon VM, so that scaled times read
# close to the plain times measured there.
CAL_GAP_S = 0.02
CAL_WINDOW = 10
CAL_REF_S = 0.000350
# Mostly counting under assumptions, as in criterion 7, plus the other
# seven kinds; weights are percentages. ME is kept below 1% so that the
# p99 latency measures the query tail rather than ME alone.
QUERY_MIX = (("cta", 56), ("ce", 14), ("im", 14), ("co", 2), ("ct", 2),
             ("va", 2), ("me", 0.5), ("eq", 4.75), ("se", 4.75))
KINDS = tuple(k for k, _ in QUERY_MIX)
TARGET = {"co": "tred", "ct": "tred", "cta": "tred", "ce": "tred",
          "me": "tred", "va": "text", "im": "text"}


# -- one instance through the pipeline -----------------------------------


@dataclasses.dataclass
class Compiled:
    fdag: object
    node: int
    alpha: object
    lemmas: object
    arts: dict  # tred, text, obdd -> artifact
    files: dict  # same keys -> (nnf path, map path)


def compile_instance(tr, text, workdir, stem):
    """The compile op: parse, enumerate, compile three ways, write."""
    fdag, node, alpha = tr.call("smtlib.parse", parse_smt2, text)
    backend = tr.backend()
    lemmas = tr.call("lemmas.enum", enumerate_lemmas, fdag, node, alpha,
                     backend=backend)
    tred = tr.call("compiler.build_tred", build_tred, fdag, node, alpha,
                   lemmas=lemmas)
    arena = len(tred.dag)
    tred.root = tr.call("compiler.smooth_root", tred.smooth_root)
    pad = len(tred.dag) - arena
    neg = tr.call("lemmas.neg_enum", enumerate_lemmas, fdag,
                  fdag.negate(node), alpha, backend=backend,
                  label=TARGET_NEGATION)
    text_art = tr.call("compiler.build_text", build_text, fdag, node, alpha,
                       lemmas=neg)
    obdd = tr.call("obdd.build_tred", build_tred, fdag, node, alpha,
                   lemmas=lemmas, kind=KIND_OBDD)
    arts = {"tred": tred, "text": text_art, "obdd": obdd}
    files = {}
    for key, art in arts.items():
        files[key] = _paths(workdir, "%s.%s" % (stem, key))
        tr.call("nnf_io.write", write_nnf, art, *files[key])
    tr.count("lemmas.count", len(lemmas) + len(neg))
    tr.count("lemmas.literals",
             sum(len(lm) for lm in lemmas) + sum(len(lm) for lm in neg))
    tr.count("compiler.pad_nodes", pad)
    tr.count("obdd.nodes", len(obdd.manager))
    return Compiled(fdag, node, alpha, lemmas, arts, files)


def _paths(workdir, stem):
    return (os.path.join(workdir, stem + ".nnf"),
            os.path.join(workdir, stem + ".map"))


def _header(nnf_path):
    """(nodes, edges) from a circuit file's `nnf` line."""
    with open(nnf_path) as fh:
        for line in fh:
            if line.startswith("nnf"):
                _, nodes, edges, _ = line.split()
                return int(nodes), int(edges)
    raise ValueError("%s has no nnf header" % nnf_path)


def emitted(tr, comp):
    """(d-DNNF edges, OBDD nodes) in the files of one compile op."""
    ddnnf = [_header(comp.files[k][0]) for k in ("tred", "text")]
    obdd_nodes, _ = _header(comp.files["obdd"][0])
    tr.count("compiler.nodes", sum(n for n, _ in ddnnf))
    tr.count("nnf_io.bytes", sum(os.path.getsize(p)
                                 for pair in comp.files.values()
                                 for p in pair))
    return sum(e for _, e in ddnnf), obdd_nodes


# -- queries ---------------------------------------------------------------


def ask(tr, kind, art, lits=None, other=None):
    """Answer one query; `other` is the second artifact of EQ/SE."""
    name = "queries." + kind
    stats = {} if tr.enabled else None
    if kind == "co":
        out = tr.call(name, is_consistent, art, stats)
    elif kind == "ct":
        out = tr.call(name, count_models, art, stats)
    elif kind == "cta":
        out = tr.call(name, count_models_assume, art, lits, stats)
    elif kind == "ce":
        out = tr.call(name, entails_clause, art, lits, stats)
    elif kind == "va":
        out = tr.call(name, is_valid, art, stats)
    elif kind == "im":
        out = tr.call(name, is_implicant, art, lits, stats)
    elif kind == "me":
        out = tr.call(name, lambda: list(enumerate_models(art)))
    elif kind == "eq":
        out = tr.call(name, equivalent, art, other, stats)
    elif kind == "se":
        out = tr.call(name, sentential_entails, art, other, stats)
    else:
        raise ValueError("unknown query kind %r" % kind)
    if stats:
        tr.count("queries.visits", stats["visits"])
    return out


def ask_growing(tr, kind, art, lits):
    """`ask` on a d-DNNF artifact, counting the nodes its arena gains."""
    before = len(art.dag)
    out = ask(tr, kind, art, lits)
    tr.count("queries.arena_growth", len(art.dag) - before)
    return out


def _normalize(kind, answer, position):
    if kind == "me":
        return [corpus.mask(eta, position) for eta in answer]
    return answer


def _random_lits(rng, natoms):
    k = rng.randint(2, 4)
    return tuple((j, rng.random() < 0.5)
                 for j in sorted(rng.sample(range(natoms), k)))


# -- compile ---------------------------------------------------------------


def setup_compile(tr, base, workdir):
    """The inputs: SMT-LIB text of the compile workload's instances."""
    return [(seed, text) for seed, text in corpus.corpus(base)
            if seed - base in corpus.COMPILE_OFFSETS]


def compile_pass(texts, ref, workdir, seed):
    def one_pass(tr, tally):
        rng = random.Random("compile:%d" % seed)
        order = list(texts)
        rng.shuffle(order)
        wall, edges, obdd_nodes = 0.0, 0, 0
        for inst_seed, text in order:
            with tr.op("op.compile"):
                comp, elapsed = tally.timed(inst_seed, compile_instance, tr,
                                            text, workdir, "c%d" % inst_seed)
            wall += elapsed
            if comp is None:
                continue
            e, o = emitted(tr, comp)
            edges += e
            obdd_nodes += o
            try:
                problem = check_compiled(tr, comp, ref[str(inst_seed)], rng)
            except Exception:  # a check that raises fails the op
                problem = traceback.format_exc()
            if problem:
                tally.fail("instance %d: %s" % (inst_seed, problem))
        tally.emitted = (edges, obdd_nodes)
        return wall
    return one_pass


def check_compiled(tr, comp, entry, rng):
    """Re-read the three artifacts and check their answers against the
    reference; returns the first mismatch, or None."""
    back = {k: tr.call("nnf_io.read", read_nnf, *comp.files[k])
            for k in ("tred", "text", "obdd")}
    atoms = list(comp.alpha)
    if [str(a) for a in atoms] != entry["atoms"]:
        return "atom order differs from the reference"
    position = {a: j for j, a in enumerate(atoms)}
    checks = [("co", None), ("ct", None), ("va", None), ("me", None)]
    for kind in ("cta", "ce", "im"):
        checks += [(kind, _random_lits(rng, len(atoms)))
                   for _ in range(CHECK_CUBES)]
    for kind, arg in checks:
        lits = [(atoms[j], pol) for j, pol in arg] if arg else None
        got = _normalize(kind, ask_growing(tr, kind, back[TARGET[kind]],
                                           lits), position)
        if "models" in entry:
            want = corpus.expected(entry, kind, arg)
        elif kind == "im":
            continue  # no reference above the oracle bound
        elif kind == "va":
            want = entry["va"]
        else:  # the OBDD built in the op must agree, and CT with golden
            want = _normalize(kind, ask(NULL, kind, comp.arts["obdd"], lits),
                              position)
            if kind == "ct" and want != entry["ct"]:
                return "ct: OBDD %r, reference %r" % (want, entry["ct"])
        if got != want:
            return "%s %r: got %r, want %r" % (kind, arg, got, want)
    for kind in ("eq", "se"):
        if not ask(tr, kind, back["obdd"], other=comp.arts["obdd"]):
            return "%s: re-read OBDD differs from the one written" % kind
    return None


# -- query workloads -------------------------------------------------------


@dataclasses.dataclass
class Instance:
    """One query-workload instance: its atoms and its written files."""
    seed: int
    atoms: list  # Atom per reference position
    files: dict  # tred, text, v0.. -> (nnf path, map path)


def setup_queries(tr, base, workdir):
    """Compile the corpus members within the oracle bound, build the EQ/SE
    variants in one shared manager, write them all and load them back.
    Returns the instances and the (edges, OBDD nodes) of the compile ops.
    """
    instances, edges, obdd_nodes = [], 0, 0
    for seed, text in corpus.corpus(base):
        if not corpus.within_oracle(seed):
            continue
        comp = compile_instance(tr, text, workdir, "s%d" % seed)
        e, o = emitted(tr, comp)
        edges += e
        obdd_nodes += o
        files = {"tred": comp.files["tred"], "text": comp.files["text"]}
        shared = ObddManager(comp.arts["obdd"].order)
        for v, lit in enumerate(corpus.variant_literals(seed,
                                                        len(comp.alpha))):
            node = comp.node
            if lit is not None:
                atom = comp.alpha[lit[0]]
                node = comp.fdag.and_([node, comp.fdag.lit(atom, lit[1])])
            art = tr.call("obdd.build_tred", build_tred, comp.fdag, node,
                          comp.alpha, lemmas=comp.lemmas, kind=KIND_OBDD,
                          manager=shared)
            files["v%d" % v] = _paths(workdir, "s%d.v%d" % (seed, v))
            tr.call("nnf_io.write", write_nnf, art, *files["v%d" % v])
        instances.append(Instance(seed, list(comp.alpha), files))
        load_warm(tr, instances[-1])
    return instances, (edges, obdd_nodes)


def load_warm(tr, inst):
    """Read an instance's artifacts; the OBDD variants share a manager."""
    arts = {k: tr.call("nnf_io.read", read_nnf, *inst.files[k])
            for k in ("tred", "text")}
    variants = [tr.call("nnf_io.read", read_nnf, *inst.files["v%d" % v])
                for v in range(corpus.VARIANTS)]
    shared = ObddManager(variants[0].order)
    arts["variants"] = [
        dataclasses.replace(a, root=copy_into(a.root, shared), manager=shared)
        for a in variants]
    return arts


def query_stream(rng, instances, n):
    """[(instance index, kind, arg)] in shuffled order. Every instance gets
    the same share of the n ops and each kind its exact QUERY_MIX share of
    those, so the seed changes the arguments and the order, not the mix."""
    out = []
    for i, inst in enumerate(instances):
        for kind, weight in QUERY_MIX:
            for _ in range(round(n / len(instances) * weight / 100)):
                if kind in ("cta", "ce", "im"):
                    arg = _random_lits(rng, len(inst.atoms))
                elif kind in ("eq", "se"):
                    arg = (rng.randrange(corpus.VARIANTS),
                           rng.randrange(corpus.VARIANTS))
                else:
                    arg = None
                out.append((i, kind, arg))
    rng.shuffle(out)
    return out


def _prepared(instances, ref, stream):
    """Per stream op: its literals as atoms, and the reference answer."""
    entries = [ref[str(inst.seed)] for inst in instances]
    for inst, entry in zip(instances, entries):
        if [str(a) for a in inst.atoms] != entry["atoms"]:
            raise RuntimeError("instance %d: atom order differs from the "
                               "reference" % inst.seed)
    out = []
    for i, kind, arg in stream:
        lits = None
        if kind in ("cta", "ce", "im"):
            lits = [(instances[i].atoms[j], pol) for j, pol in arg]
        out.append((i, kind, arg, lits,
                    corpus.expected(entries[i], kind, arg)))
    return out


def _warm_query(tr, arts, kind, arg, lits):
    if kind in ("eq", "se"):
        a, b = arg
        return ask(tr, kind, arts["variants"][a],
                   other=arts["variants"][b])
    return ask_growing(tr, kind, arts[TARGET[kind]], lits)


def _cold_query(tr, files, kind, arg, lits):
    if kind in ("eq", "se"):
        a, b = (tr.call("nnf_io.read", read_nnf, *files["v%d" % v])
                for v in arg)
        return ask(tr, kind, a, other=b)
    art = tr.call("nnf_io.read", read_nnf, *files[TARGET[kind]])
    return ask_growing(tr, kind, art, lits)


def query_pass(cold, state, ref, seed):
    instances, _ = state
    rng = random.Random("%s:%d" % ("cold" if cold else "warm", seed))
    ops = _prepared(instances, ref, query_stream(
        rng, instances, COLD_PASS if cold else WARM_PASS))
    positions = [{a: j for j, a in enumerate(inst.atoms)}
                 for inst in instances]

    def one_pass(tr, tally):
        if not cold:
            loaded = [load_warm(NULL, inst) for inst in instances]
        wall = 0.0
        for n, (i, kind, arg, lits, want) in enumerate(ops):
            with tr.op("op.query"):
                if cold:
                    got, elapsed = tally.timed(n, _cold_query, tr,
                                               instances[i].files, kind, arg,
                                               lits)
                else:
                    got, elapsed = tally.timed(n, _warm_query, tr, loaded[i],
                                               kind, arg, lits)
            wall += elapsed
            if got is not None:
                got = _normalize(kind, got, positions[i])
                if got != want:
                    tally.fail("%s %r on instance %d: got %r, want %r"
                               % (kind, arg, instances[i].seed, got, want))
        return wall
    return one_pass


# -- the measurement loop --------------------------------------------------


def calibrate():
    """Seconds for fixed pure-Python work of the kinds kcmt does:
    Fraction arithmetic, as in the theory layer, and small objects linked
    through a dict, as in the formula and circuit arenas."""
    start = time.perf_counter()
    acc, seen = fractions.Fraction(0), {}
    for i in range(1, 60):
        acc += fractions.Fraction(i % 7 + 1, i % 5 + 2)
        seen[(i % 13, i % 11)] = (acc, [i])
    memo = {}
    for i in range(400):
        memo[i] = (i, memo.get(i // 2), hash((i, i & 7)))
    return time.perf_counter() - start


class HostSpeed:
    """Op times at the speed of the host at rest.

    A shared host's speed drifts by a fifth or more within seconds, and
    kcmt's times drift with it. While active, an interval timer takes a
    sample every CAL_GAP_S seconds, also in the middle of an op: the
    faster of two `calibrate` runs, so that the first one's cold caches,
    left by kcmt's own work, do not count. `since` takes the time spent
    sampling out of an op's time and scales the rest by CAL_REF_S over
    the mean sample during the op, or over the last CAL_WINDOW samples
    when the op was shorter than that. Inactive, as in traced runs, it
    returns plain times.
    """

    def __init__(self, active):
        self.active = active
        self.samples = []  # calibrate seconds, in order
        self.spent = 0.0  # seconds the samples took
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(min(calibrate(), calibrate()))
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_GAP_S, CAL_GAP_S)
            self._tick()
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark):
        """Seconds since `mark`, less sampling, at reference speed."""
        n, spent, start = mark
        elapsed = time.perf_counter() - start - (self.spent - spent)
        if not self.active:
            return elapsed
        first = max(0, min(n, len(self.samples) - CAL_WINDOW))
        return elapsed * CAL_REF_S / statistics.fmean(self.samples[first:])

    def relative(self):
        """Median host speed of the run over the reference speed."""
        return CAL_REF_S / statistics.median(self.samples or [CAL_REF_S])


class Tally:
    """Op latencies, pass walls and failures of one run.

    Every pass runs the same ops in the same order from the same state, so
    an op's repetitions do the same work. `per_op` gives each op's median
    repetition, at reference speed.
    """

    def __init__(self, speed):
        self.speed = speed
        self.reps = {}  # op position in the pass -> [seconds]
        self.walls = []  # untraced passes
        self.traced_walls = []
        self.attempted = 0
        self.failed = 0
        self.emitted = (0, 0)  # d-DNNF edges, OBDD nodes per pass or set-up

    def fail(self, detail):
        self.failed += 1
        if self.failed <= 5:
            print("perfbench: %s" % detail, file=sys.stderr)

    def timed(self, key, fn, *args):
        """Run the op at position `key` of the pass; (value, seconds),
        value None if the op raised."""
        self.attempted += 1
        mark = self.speed.mark()
        try:
            value = fn(*args)
        except Exception:  # an op that raises counts as failed
            self.fail(traceback.format_exc())
            return None, time.perf_counter() - mark[2]
        elapsed = time.perf_counter() - mark[2]
        self.reps.setdefault(key, []).append(self.speed.since(mark))
        return value, elapsed

    def per_op(self):
        return [statistics.median(reps) for reps in self.reps.values()]


def run_passes(tracer, seconds, one_pass, speed):
    """Run whole passes while the budget lasts: at least one, and two when
    tracing, where even passes are traced and odd ones are not so that
    their difference is the tracing overhead."""
    tally = Tally(speed)
    start = time.perf_counter()
    index, last = 0, 0.0
    minimum = 2 if tracer.enabled else 1
    while index < minimum or time.perf_counter() - start + last <= seconds:
        traced = tracer.enabled and index % 2 == 0
        tr = tracer if traced else NULL
        tracer.start_pass(index)
        t0 = time.perf_counter()
        wall = one_pass(tr, tally)
        last = time.perf_counter() - t0
        (tally.traced_walls if traced else tally.walls).append(wall)
        index += 1
    return tally


def run(workload, seed, seconds, tracer, base, workdir):
    """Set up (several times when untraced), then measure. Returns the
    set-up times, at reference speed when untraced, and the tally."""
    ref = corpus.load_reference(base)
    setup = setup_compile if workload == "compile" else setup_queries
    setup_times, started = [], time.perf_counter()
    with HostSpeed(active=not tracer.enabled) as speed:
        while not setup_times or not tracer.enabled and (
                len(setup_times) < SETUP_REPS
                or time.perf_counter() - started < SETUP_MIN_S):
            tracer.start_pass(SETUP)
            mark = speed.mark()
            state = setup(tracer, base, workdir)
            setup_times.append(speed.since(mark))
        if workload == "compile":
            one_pass = compile_pass(state, ref, workdir, seed)
        else:
            one_pass = query_pass(workload == "query_cold", state, ref, seed)
        tally = run_passes(tracer, seconds, one_pass, speed)
    if workload != "compile":
        tally.emitted = state[1]
    return setup_times, tally


def percentile(values, q):
    """q-th percentile (0..100), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

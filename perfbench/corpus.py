"""Benchmark inputs and their reference answers.

The corpus is the criterion-7 instance family of the acceptance tests,
`InstanceSpec(14 + s % 5 atoms, 3 + s % 2 variables, depth 4, seed s)`,
at instance seeds `base + 0`, `base + 2` and `base + 4`. With the default
base 1000 that is 14, 16 and 18 atoms, on both sides of the oracle's
16-atom bound. The compile workload takes the first and the last
(COMPILE_OFFSETS), about 5 s per pass on a 2-core machine, so that a run
repeats each op several times. The query workloads use the members within
the oracle bound.

Reference answers are theory-level only. Within the oracle bound they are
the theory-consistent total assignments of the formula and of its
negation, from `kcmt.oracle`; every query kind is answered from those two
sets. Above it they are the model count and the validity verdict on which
the d-DNNF and OBDD backends agree. `golden/base<N>.json` stores them for
a base; for a base without a file they are computed when the run starts.
"""

import argparse
import json
import os
import random

from kcmt import (KIND_DDNNF, KIND_OBDD, Dag, InstanceSpec, Oracle,
                  build_text, build_tred, count_models, enumerate_lemmas,
                  generate, is_valid, parse_smt2, write_smt2)
from kcmt.lemmas import TARGET_NEGATION

ORACLE_BOUND = 16
OFFSETS = (0, 2, 4)
COMPILE_OFFSETS = (0, 4)
VARIANTS = 4  # OBDDs per instance for EQ/SE: F, then F and one literal
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def instance_spec(seed):
    return InstanceSpec(num_lra_atoms=14 + seed % 5,
                        num_rational_vars=3 + seed % 2, dag_depth=4, seed=seed)


def corpus(base):
    """[(instance seed, SMT-LIB text)] for one base."""
    out = []
    for offset in OFFSETS:
        seed = base + offset
        fdag = Dag()
        node, alpha = generate(fdag, instance_spec(seed))
        out.append((seed, write_smt2(fdag, node, alpha)))
    return out


def within_oracle(seed):
    return instance_spec(seed).num_lra_atoms <= ORACLE_BOUND


def variant_literals(seed, natoms):
    """Literal conjoined to F for each EQ/SE variant; None is F itself."""
    rng = random.Random("variants:%d" % seed)
    picks = rng.sample(range(natoms), VARIANTS - 1)
    return [None] + [(j, rng.random() < 0.5) for j in picks]


def mask(assignment, position):
    """Bit j set iff atom j of the reference order is true."""
    return sum(1 << position[atom] for atom, value in assignment.items()
               if value)


def enumeration_key(natoms):
    # enumerate_models order: ascending atom index, true before false
    return lambda m: tuple(((m >> j) & 1) ^ 1 for j in range(natoms))


def _matches(m, lits):
    return all(((m >> j) & 1) == pol for j, pol in lits)


def expected(entry, kind, arg):
    """Reference answer from an oracle entry.

    `arg` holds (position, polarity) literals for cta, ce and im, and a
    pair of variant indices for eq and se.
    """
    models, counter = entry["models"], entry["countermodels"]
    if kind == "co":
        return bool(models)
    if kind == "ct":
        return len(models)
    if kind == "cta":
        return sum(1 for m in models if _matches(m, arg))
    if kind == "ce":
        negated = [(j, not pol) for j, pol in arg]
        return not any(_matches(m, negated) for m in models)
    if kind == "va":
        return not counter
    if kind == "im":
        return not any(_matches(m, arg) for m in counter)
    if kind == "me":
        return sorted(models, key=enumeration_key(len(entry["atoms"])))
    if kind in ("eq", "se"):
        a, b = (_variant_models(entry, v) for v in arg)
        return a == b if kind == "eq" else a <= b
    raise ValueError("unknown query kind %r" % kind)


def _variant_models(entry, index):
    lit = entry["variants"][index]
    return frozenset(m for m in entry["models"]
                     if lit is None or _matches(m, [lit]))


def compute_reference(base):
    """Reference entries for every corpus instance of `base`."""
    out = {}
    for seed, text in corpus(base):
        fdag, node, alpha = parse_smt2(text)
        entry = {"atoms": [str(a) for a in alpha]}
        if within_oracle(seed):
            position = {a: j for j, a in enumerate(alpha)}
            oracle = Oracle(bound=ORACLE_BOUND)
            for key, target in (("models", node),
                                ("countermodels", fdag.negate(node))):
                entry[key] = sorted(
                    mask(eta, position)
                    for eta in oracle.query("me", fdag, target, alpha))
        else:
            lemmas = enumerate_lemmas(fdag, node, alpha)
            neg = enumerate_lemmas(fdag, fdag.negate(node), alpha,
                                   label=TARGET_NEGATION)
            cts = {count_models(build_tred(fdag, node, alpha, lemmas=lemmas,
                                           kind=kind))
                   for kind in (KIND_DDNNF, KIND_OBDD)}
            vas = {is_valid(build_text(fdag, node, alpha, lemmas=neg,
                                       kind=kind))
                   for kind in (KIND_DDNNF, KIND_OBDD)}
            if len(cts) != 1 or len(vas) != 1:
                raise RuntimeError("instance %d: d-DNNF and OBDD disagree "
                                   "(ct %s, va %s)" % (seed, cts, vas))
            entry["ct"], entry["va"] = cts.pop(), vas.pop()
        out[str(seed)] = entry
    return out


def golden_path(base):
    return os.path.join(GOLDEN_DIR, "base%d.json" % base)


def load_reference(base):
    """Stored reference for `base`, else a freshly computed one; each
    oracle entry gains its EQ/SE variant literals."""
    try:
        with open(golden_path(base)) as fh:
            ref = json.load(fh)["instances"]
    except FileNotFoundError:
        ref = compute_reference(base)
    for seed, entry in ref.items():
        if "models" in entry:
            entry["models"] = frozenset(entry["models"])
            entry["countermodels"] = frozenset(entry["countermodels"])
            entry["variants"] = variant_literals(int(seed),
                                                 len(entry["atoms"]))
    return ref


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compute the reference answers for one corpus base "
                    "and store them under golden/.")
    parser.add_argument("--base", type=int, default=1000)
    args = parser.parse_args(argv)
    ref = compute_reference(args.base)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(args.base), "w") as fh:
        json.dump({"base": args.base, "instances": ref}, fh)
        fh.write("\n")
    return 0

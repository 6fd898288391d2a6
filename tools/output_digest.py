"""Digest of every file `kcmt` writes for a fixed corpus.

For corpus seeds 1000-1049, `InstanceSpec(num_lra_atoms=14 + s % 5,
num_rational_vars=3 + s % 2, dag_depth=4, seed=s)`, it writes five
artifact shapes (tred, text, OBDD tred, OBDD text and smoothed tred),
each as its `.nnf` circuit, `.map` sidecar and `.lem` lemma dump. It
prints one sha-256 per shape, over that shape's files of every seed in
seed order, and a total over all of them. Two trees that print the same
lines write byte-identical files.

    python3 tools/output_digest.py

The d-DNNF builds enumerate their own lemmas; the OBDD builds reuse
those sets, as `kcmt compile` would enumerate the same ones.
"""

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from kcmt import (KIND_OBDD, Dag, InstanceSpec, build_text,  # noqa: E402
                  build_tred, generate, write_lemmas, write_nnf)

SEEDS = range(1000, 1050)
SHAPES = ("tred", "text", "obdd-tred", "obdd-text", "smooth-tred")
SUFFIXES = (".nnf", ".map", ".lem")


def artifacts(seed):
    """The five artifacts of one corpus seed, by shape."""
    fdag = Dag()
    node, alpha = generate(fdag, InstanceSpec(
        num_lra_atoms=14 + seed % 5, num_rational_vars=3 + seed % 2,
        dag_depth=4, seed=seed))
    tred = build_tred(fdag, node, alpha)
    text = build_text(fdag, node, alpha)
    yield "tred", tred
    yield "text", text
    yield "obdd-tred", build_tred(fdag, node, alpha, kind=KIND_OBDD,
                                  lemmas=tred.lemmas)
    yield "obdd-text", build_text(fdag, node, alpha, kind=KIND_OBDD,
                                  lemmas=text.lemmas)
    tred.root = tred.smooth_root()
    yield "smooth-tred", tred


def main():
    digests = {shape: hashlib.sha256() for shape in SHAPES}
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for shape, art in artifacts(seed):
                stem = os.path.join(tmp, "%d.%s" % (seed, shape))
                write_nnf(art, stem + ".nnf", stem + ".map")
                write_lemmas(art, stem + ".lem")
                for suffix in SUFFIXES:
                    with open(stem + suffix, "rb") as f:
                        data = f.read()
                    digests[shape].update(data)
                    total.update(data)
    for shape in SHAPES:
        print("%-12s %s" % (shape, digests[shape].hexdigest()))
    print("%-12s %s" % ("total", total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

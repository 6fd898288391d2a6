"""Artifact serialization: NNF circuit files with a map sidecar.

The circuit file follows the line format consumed by d-DNNF reasoners:

    c <comment>
    nnf <nodeCount> <edgeCount> <varCount>
    L <signedVar>
    A <childCount> <ids...>
    O <decisionVar> <childCount> <ids...>

Ids are 0-based positions of earlier body lines; the root is the last
line. `A 0` is the true constant, `O 0 0` the false one. A decision
variable of 0 marks an OR node with no recognized branching variable.
The writer lists the nodes the root reaches in ascending handle order,
which puts children first, since a node is made after its children.

A circuit of kind ddnnf must be a decision-DNNF, because the queries
count on it: no `A` line's conjuncts share a variable, and every `O`
line's two branches assert complementary literals of one variable. The
reader checks both on each line and judges a decision by its branches
alone.

The sidecar map file carries everything the circuit cannot: the atom
strings in index order, which is the artifact's `AtomSet` and so its
numbering of variables 1..n, the artifact's kind and mode, the lemma
clauses (signed atom indices, DIMACS style), and the variable order for
OBDD backed artifacts. The mode line names the form the circuit stores:
`tReduced`, or `tExtended-complement` for a tExtended artifact, whose
circuit is the complement of the tExtended form; the lemma target must be
one that mode compiles with (`compiler.LEMMA_TARGETS`). A map that names
`tExtended` itself was written for a circuit of the uncomplemented form
and is refused, so neither form is ever read as the other. The circuit
file's first comment records the sha-256 of the map text, so a circuit
is never silently re-interpreted against a foreign atom map;
hand-written files without the comment are accepted as-is.

An OBDD node is written as two `A 2` arms, each a literal of its
variable over one branch, and the `O` line over them; a literal or
terminal line comes just before its first use. An OBDD artifact's
circuit is read straight into a fresh manager under the stored order.
An `O` line over two `A 2` lines that guard opposite literals of one
variable, above both guarded nodes, becomes that decision node
directly; every other line is applied as a literal, conjunction or
disjunction. So any NNF over the atoms is accepted, the loaded diagram
is canonical, and a file the writer made loads into exactly the nodes
its root reaches.

The reader does only the work a check needs, in one loop per file. The
map's atom and lemma sections are read by index after their count lines.
A map atom is taken as printed and checked to be in normal form, not
renormalised. A lemma clause printed as the writer prints it, known
literals in ascending index, is read by table lookups; any other clause
is parsed and checked number by number, and built by `canonical_lemma`.
The map's counts, order and clause ids, and every number of the circuit,
are ASCII digits with at most a leading `-`. A d-DNNF line
is interned through `Dag.and_`/`or_`, which keep a line whose children
are distinct, non-constant and not of its own operator, as every written
line is, as it stands, and fold any other shape. The loop gives each new
node one record from its payload, its variable mask and the literals it
asserts; both checks are bit operations on its children's records. A
written OBDD arm line is one pending tuple, and its decision one
`decide`.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import reduce

from .compiler import (
    KIND_DDNNF,
    KIND_OBDD,
    LEMMA_TARGETS,
    MODE_T_EXTENDED,
    MODE_T_REDUCED,
    CompiledArtifact,
    decision_var,
)
from .formulas import (
    AND,
    FALSE_KIND,
    LIT,
    OR,
    TRUE_KIND,
    Atom,
    AtomError,
    AtomSet,
    Dag,
)
from .lemmas import LemmaError, LemmaSet, TLemma, canonical_lemma
from .obdd import ObddManager, ObddRef

MAP_HEADER = "kcmt-map 1"
# Artifact mode -> the map's name for the form its circuit stores.
_MAP_MODES = {MODE_T_REDUCED: "tReduced",
              MODE_T_EXTENDED: "tExtended-complement"}


class NnfIoError(ValueError):
    """Malformed artifact file, or a circuit/map pair that disagrees."""


def _fail(path: str, lineno: int, msg: str) -> NnfIoError:
    return NnfIoError("%s, line %d: %s" % (path, lineno, msg))


def _integer(tok: str) -> int:
    """The value of a token of ASCII digits with an optional leading `-`.
    Any other token raises ValueError, such as `+3`, `1_0` or `３`, which
    `int` alone would read."""
    digits = tok[1:] if tok[:1] == "-" else tok
    if digits.isdigit() and digits.isascii():
        return int(tok)
    raise ValueError("not an integer: %r" % tok)


# -- atom strings ------------------------------------------------------------


def _constant(tok: str) -> Fraction:
    """`Fraction(tok)`, with the written forms `p` and `p/q` read by `int`,
    which is cheaper than Fraction's string parse. Any other token, or one
    with a signed denominator, goes to `Fraction(tok)` itself, so every
    input gets the same value or error as from `Fraction(tok)` alone."""
    num, slash, den = tok.partition("/")
    if not den.startswith(("+", "-")):
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except ValueError:
            pass
    return Fraction(tok)


def _atom_from_string(s: str) -> Atom:
    """Inverse of the atom's printed normal form.

    The row is taken as printed: the `Atom` constructor accepts it only if
    it is already in normal form, and it must then print back as `s`. A stray
    sign or term, a repeated variable or an unreduced row would otherwise
    be read as some other atom without a word.
    """
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
        const = _constant(toks[-1])
    except ZeroDivisionError:
        raise AtomError("zero denominator in atom string %r" % s)
    left = toks[:rels[0]]
    coeffs: dict[str, int] = {}
    for sign, tok in zip(["+"] + left[1::2], left[::2]):
        if "*" in tok:
            coef, v = tok.split("*", 1)
            k = int(coef)
        elif tok.startswith("-"):
            k, v = -1, tok[1:]
        else:
            k, v = 1, tok
        if not v:
            raise AtomError("empty variable name in atom string %r" % s)
        coeffs[v] = -k if sign == "-" else k
    try:
        atom = Atom(kind="lra", coeffs=tuple(coeffs.items()), rel=rel,
                    const=const)
    except AtomError:
        if not any(coeffs.values()):
            raise  # degenerate, in `Atom.linear`'s words
        atom = None
    if atom is None or str(atom) != s:
        raise AtomError("atom string %r is not in normal form" % s)
    return atom


# -- map sidecar -------------------------------------------------------------


def _lemma_lines(artifact: CompiledArtifact) -> list[str]:
    """One `<signed atom indices> 0` line per lemma, DIMACS style."""
    alpha = artifact.alpha
    return ["%s 0" % " ".join(
                str(alpha.index_of(a) * (1 if p else -1))
                for a, p in lemma.literals)
            for lemma in artifact.lemmas]


def _literal_table(alpha: AtomSet) -> dict[str, tuple]:
    """Each printed lemma literal, `"3"` or `"-3"`, to its atom index and
    its (atom, polarity) pair."""
    table = {}
    for atom in alpha:
        i = alpha.index_of(atom)
        table[str(i)] = (i, (atom, True))
        table[str(-i)] = (i, (atom, False))
    return table


def _map_text(artifact: CompiledArtifact) -> str:
    alpha = artifact.alpha
    lines = [MAP_HEADER,
             "kind %s" % artifact.kind,
             "mode %s" % _MAP_MODES[artifact.mode],
             "target %s" % artifact.lemmas.target]
    if artifact.kind == KIND_OBDD:
        lines.append("order %s" % " ".join(str(v) for v in artifact.order))
    lines.append("atoms %d" % len(alpha))
    lines.extend(str(a) for a in alpha)
    lines.append("lemmas %d" % len(artifact.lemmas))
    lines.extend(_lemma_lines(artifact))
    return "\n".join(lines) + "\n"


def _parse_map(text: str, path: str):
    lines = text.splitlines()
    end = len(lines)

    def keyed(pos: int, key: str, what: str) -> str:
        # A key with no value reads as "": the order of a 0-atom OBDD is
        # written as a bare `order`.
        if pos >= end:
            raise _fail(path, end + 1, "missing %s" % what)
        parts = lines[pos].split(None, 1)
        if not parts or parts[0] != key:
            raise _fail(path, pos + 1, "expected '%s <%s>'" % (key, what))
        return parts[1].strip() if len(parts) == 2 else ""

    def count(pos: int, key: str, what: str) -> int:
        raw = keyed(pos, key, what + " count")
        try:
            n = _integer(raw)
        except ValueError:
            raise _fail(path, pos + 1, "%s count must be an integer" % what)
        if n < 0:
            raise _fail(path, pos + 1,
                        "%s count must be a non-negative integer" % what)
        return n

    if not lines:
        raise _fail(path, 1, "missing header")
    if lines[0].strip() != MAP_HEADER:
        raise _fail(path, 1, "not a map file (missing '%s')" % MAP_HEADER)
    kind = keyed(1, "kind", "kind")
    if kind not in (KIND_DDNNF, KIND_OBDD):
        raise _fail(path, 2, "unknown kind %r" % kind)
    stored = keyed(2, "mode", "mode")
    if stored == MODE_T_EXTENDED:
        raise _fail(path, 3, "mode tExtended names a circuit of the "
                    "uncomplemented form, which is no longer read; recompile "
                    "the artifact")
    mode = next((m for m, name in _MAP_MODES.items() if name == stored), None)
    if mode is None:
        raise _fail(path, 3, "unknown mode %r" % stored)
    target = keyed(3, "target", "target")
    if not any(target in fit for fit in LEMMA_TARGETS.values()):
        raise _fail(path, 4, "unknown lemma target %r" % target)
    if target not in LEMMA_TARGETS[mode]:
        raise _fail(path, 4, "lemma target %r does not fit mode %s, "
                    "expected one of %s"
                    % (target, stored, ", ".join(LEMMA_TARGETS[mode])))
    order = None
    pos = 4
    if kind == KIND_OBDD:
        raw = keyed(4, "order", "order")
        try:
            order = tuple(_integer(t) for t in raw.split())
        except ValueError:
            raise _fail(path, 5, "order must be a list of integers")
        pos = 5
    # Each section is its count line and that many lines after it.
    natoms = count(pos, "atoms", "atom")
    pos += 1 + natoms
    alpha = AtomSet()
    for i in range(pos - natoms, min(pos, end)):
        try:
            atom = _atom_from_string(lines[i].strip())
        except (AtomError, ValueError) as e:
            raise _fail(path, i + 1, "bad atom string: %s" % e)
        if atom in alpha:
            raise _fail(path, i + 1, "duplicate atom %s" % atom)
        alpha.add(atom)
    if pos > end:
        raise _fail(path, end + 1, "missing atom string")
    nlemmas = count(pos, "lemmas", "lemma")
    pos += 1 + nlemmas
    table = _literal_table(alpha)
    lemmas = []
    for i in range(pos - nlemmas, min(pos, end)):
        toks = lines[i].split()
        # A clause as the writer prints it: known literals in strictly
        # ascending index, then 0, which is already its canonical lemma.
        if len(toks) > 1 and toks[-1] == "0":
            last, lits = 0, []
            for tok in toks[:-1]:
                got = table.get(tok)
                if got is None or got[0] <= last:
                    break
                last = got[0]
                lits.append(got[1])
            else:
                lemmas.append(TLemma(tuple(lits)))
                continue
        if not toks or toks[-1] != "0":
            raise _fail(path, i + 1, "lemma clause must end with 0")
        try:
            ids = [_integer(t) for t in toks[:-1]]
        except ValueError:
            raise _fail(path, i + 1, "lemma clause must be signed integers")
        if not ids:
            raise _fail(path, i + 1, "empty lemma clause")
        low, high = min(map(abs, ids)), max(map(abs, ids))
        if not low or high > natoms:
            raise _fail(path, i + 1, "bad lemma clause: no atom with index %d"
                        % (high if low else 0))
        try:
            lemmas.append(canonical_lemma(
                [(alpha.atom_at(abs(j)), j > 0) for j in ids], alpha))
        except LemmaError as e:
            raise _fail(path, i + 1, "bad lemma clause: %s" % e)
    if pos > end:
        raise _fail(path, end + 1, "missing lemma clause")
    if pos < end:
        raise _fail(path, pos + 1, "unexpected trailing content")
    if order is not None and sorted(order) != list(range(1, natoms + 1)):
        raise NnfIoError(
            "%s: order must be a permutation of 1..%d" % (path, natoms))
    lemma_set = LemmaSet(tuple(lemmas), target, alpha)
    return kind, mode, order, alpha, lemma_set


# -- circuit body ------------------------------------------------------------


def _ddnnf_lines(pdag: Dag, root: int) -> tuple[list[str], int]:
    """The body lines of a d-DNNF and its edges: one line per node the root
    reaches, in ascending handle order. A node is interned after its
    children, so they come first and the root comes last."""
    ids: dict[int, int] = {}
    lines: list[str] = []
    edges = 0
    for node in sorted(pdag.reachable(root)):
        ids[node] = len(lines)
        tag = pdag.kind(node)
        kids = pdag.children(node)
        edges += len(kids)
        if tag == TRUE_KIND:
            lines.append("A 0")
        elif tag == FALSE_KIND:
            lines.append("O 0 0")
        elif tag == LIT:
            v, p = pdag.leaf(node)
            lines.append("L %d" % (v if p else -v))
        elif tag == AND:
            lines.append("A %d %s" % (
                len(kids), " ".join(str(ids[c]) for c in kids)))
        elif tag == OR:
            lines.append("O %d %d %s" % (
                decision_var(pdag, node) or 0, len(kids),
                " ".join(str(ids[c]) for c in kids)))
        else:
            raise NnfIoError(
                "only negation normal form circuits can be written "
                "(found a %r node)" % tag)
    return lines, edges


def _obdd_lines(root: ObddRef) -> tuple[list[str], int]:
    """The body lines of an OBDD and its edges. Each node the root reaches,
    in ascending handle order, is written as its two `A 2` arms and its `O`
    line; a literal or terminal line comes just before its first use."""
    m = root.manager
    # Inner node handle, or the text of a literal or terminal line, to the
    # id of its line.
    ids: dict = {}
    lines: list[str] = []

    def line_id(line: str) -> int:
        got = ids.get(line)
        if got is None:
            got = ids[line] = len(lines)
            lines.append(line)
        return got

    def node_id(n: int) -> int:
        if m.is_terminal(n):
            return line_id("A 0" if n == m.TRUE else "O 0 0")
        return ids[n]

    inner = m.reachable(root.node)
    for node in inner:
        v = m.var_at(node)
        hi, lo = m.branches(node)
        hi_arm = "A 2 %d %d" % (line_id("L %d" % v), node_id(hi))
        lo_arm = "A 2 %d %d" % (line_id("L %d" % -v), node_id(lo))
        arm = len(lines)
        lines += (hi_arm, lo_arm, "O %d 2 %d %d" % (v, arm, arm + 1))
        ids[node] = arm + 2
    node_id(root.node)  # a terminal root is the one line
    return lines, 6 * len(inner)


def _bad_child(toks: list[str], count: int, path: str,
               lineno: int) -> NnfIoError:
    """The error for the first child id in `toks` that is not an integer
    in 0..count-1, the ids of the lines read so far."""
    for tok in toks:
        try:
            j = _integer(tok)
        except ValueError:
            return _fail(path, lineno, "node id %r is not an integer" % tok)
        if not 0 <= j < count:
            return _fail(path, lineno,
                         "node id %d does not reference an earlier line" % j)
    raise AssertionError("every child id is valid")


# An OBDD file spells each decision node (v, hi, lo) as `A 2 <v> <hi>`,
# `A 2 <-v> <lo>` and the `O` line over those two arms. The reader keeps a
# literal, and a conjunction of a literal with a node below it, as a pending
# (level, polarity, node) arm, and an `O` line over two opposite arms of one
# level becomes the one node (level, hi, lo): Bryant's ite(v, hi, lo) for a
# top variable v. An arm is built only where some other line uses it.


def _obdd_built(m: ObddManager, x) -> int:
    """The node of a line: itself, or its pending arm built."""
    if type(x) is int:
        return x
    level, positive, below = x
    return m.decide(level, below, m.FALSE) if positive else \
        m.decide(level, m.FALSE, below)


# -- public entry points ------------------------------------------------------


def _read_text(path) -> str:
    """A file's text, decoded as UTF-8 whatever the locale."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise NnfIoError("%s: not UTF-8 text: %s" % (path, e))


def write_nnf(artifact: CompiledArtifact, nnf_path, map_path) -> None:
    """Serialize an artifact as a circuit file plus its map sidecar."""
    map_text = _map_text(artifact)
    digest = hashlib.sha256(map_text.encode()).hexdigest()
    lines, edges = _ddnnf_lines(artifact.dag, artifact.root) \
        if artifact.kind == KIND_DDNNF else _obdd_lines(artifact.root)
    body = ["c map %s" % digest,
            "nnf %d %d %d" % (len(lines), edges, artifact.nvars)]
    body.extend(lines)
    with open(map_path, "w", encoding="utf-8") as f:
        f.write(map_text)
    with open(nnf_path, "w", encoding="utf-8") as f:
        f.write("\n".join(body) + "\n")


def write_lemmas(artifact: CompiledArtifact, path) -> None:
    """Dump the artifact's lemma clauses in DIMACS style."""
    lines = ["c theory lemmas, atoms indexed as in the map sidecar",
             "p cnf %d %d" % (len(artifact.alpha), len(artifact.lemmas))]
    lines.extend(_lemma_lines(artifact))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def read_map(map_path) -> AtomSet:
    """Atom set stored in a map sidecar, in artifact order.

    Lets a caller pin query literals and enumeration order to an
    artifact's atoms without loading the circuit itself.
    """
    map_text = _read_text(map_path)
    _, _, _, alpha, _ = _parse_map(map_text, str(map_path))
    return alpha


def read_nnf(nnf_path, map_path) -> CompiledArtifact:
    """Load a circuit/map pair back into a queryable artifact.

    The map's hash must match the circuit's `c map` comment when one is
    present, and the header's counts must match the body. A ddnnf
    circuit must be a decision-DNNF. An OBDD circuit may be any NNF: its
    lines are folded into a fresh manager under the stored variable
    order as they are read, each written decision as one node.
    """
    map_text = _read_text(map_path)
    kind, mode, order, alpha, lemma_set = _parse_map(map_text, str(map_path))

    text = _read_text(nnf_path)
    # On ASCII text with no `+` or `_`, `int` reads a token exactly as
    # `_integer` does, so only other text pays for the strict rule.
    number = int if text.isascii() and "+" not in text and "_" not in text \
        else _integer
    raw = text.splitlines()
    path = str(nnf_path)
    header = None
    body_start = 0
    for i, line in enumerate(raw):
        s = line.strip()
        if not s:
            continue
        if s.startswith("c"):
            toks = s.split()
            if len(toks) == 3 and toks[1] == "map":
                digest = hashlib.sha256(map_text.encode()).hexdigest()
                if toks[2] != digest:
                    raise _fail(path, i + 1,
                                "map hash mismatch: circuit was written "
                                "against a different atom map")
            continue
        header = s
        body_start = i + 1
        break
    if header is None:
        raise _fail(path, len(raw) + 1, "missing 'nnf' header")
    toks = header.split()
    if len(toks) != 4 or toks[0] != "nnf":
        raise _fail(path, body_start, "expected 'nnf <nodes> <edges> <vars>'")
    try:
        n_nodes, n_edges, n_vars = map(_integer, toks[1:])
    except ValueError:
        raise _fail(path, body_start, "nnf header needs three integers")
    if n_vars != len(alpha):
        raise NnfIoError(
            "%s: circuit ranges over %d variables but the map lists %d "
            "atoms" % (path, n_vars, len(alpha)))

    ddnnf = kind == KIND_DDNNF
    if ddnnf:
        pdag = Dag()
        # A junction node's payload is (op, children as interned).
        payload = pdag._payload
        # Handle -> (variable mask, positive and negative literal masks the
        # node asserts: itself if a literal, else its literal conjuncts).
        # Every node of `pdag` is made by one line, so the list stays in
        # step with the arena and `node == len(rec)` tells a new node.
        rec = [(0, 0, 0), (0, 0, 0)]
    else:
        manager = ObddManager(order)
        level = {v: i for i, v in enumerate(order)}
        level_of, decide = manager.level_of, manager.decide

    nodes: list = []
    edges = 0
    for i in range(body_start, len(raw)):
        toks = raw[i].split()
        if not toks or toks[0][0] == "c":
            continue
        lineno = i + 1
        tag, ntoks = toks[0], len(toks)
        if tag == "L" and ntoks == 2:
            try:
                v = _integer(toks[1])
            except ValueError:
                raise _fail(path, lineno, "bad literal %r" % toks[1])
            if not 1 <= abs(v) <= n_vars:
                raise _fail(path, lineno,
                            "literal variable %d outside 1..%d" % (v, n_vars))
            if ddnnf:
                node = pdag.lit(abs(v), v > 0)
                if node == len(rec):
                    bit = 1 << abs(v)
                    rec.append((bit, bit, 0) if v > 0 else (bit, 0, bit))
            else:
                node = (level[abs(v)], v > 0, manager.TRUE)
            nodes.append(node)
            continue
        if tag == "A" and ntoks >= 2:
            try:
                k = number(toks[1])
            except ValueError:
                raise _fail(path, lineno, "bad child count %r" % toks[1])
            start = 2
        elif tag == "O" and ntoks >= 3:
            try:
                v, k = number(toks[1]), number(toks[2])
            except ValueError:
                raise _fail(path, lineno, "bad O node header")
            if not 0 <= v <= n_vars:
                raise _fail(path, lineno,
                            "decision variable %d outside 0..%d" % (v, n_vars))
            start = 3
        else:
            raise _fail(path, lineno, "unrecognized line %r" % raw[i].strip())
        if ntoks != start + k:
            raise _fail(path, lineno,
                        "%s node announces %d children but lists %d"
                        % (tag, k, ntoks - start))
        # A negative id is dropped and one past the end raises, so either
        # leaves fewer than k children.
        try:
            kids = [nodes[j] for j in map(number, toks[start:]) if j >= 0]
        except (ValueError, IndexError):
            kids = []
        if len(kids) != k:
            raise _bad_child(toks[start:], len(nodes), path, lineno)
        edges += k
        conjunction = tag == "A"
        if ddnnf:
            node = pdag.and_(kids) if conjunction else pdag.or_(kids)
            if node == len(rec):
                # A new node's record, from its children's. Counting
                # would go wrong on conjuncts that share a variable, or on
                # a disjunction that is not two branches asserting opposite
                # literals. A conjunction has no conjunction child, so it
                # asserts the literals its children assert.
                kids = payload[node][1]
                mask = pos = neg = 0
                if conjunction:
                    for c in kids:
                        below, p, n = rec[c]
                        if mask & below:
                            raise _fail(path, lineno,
                                        "conjuncts share variable %d, so the "
                                        "circuit is not decomposable"
                                        % ((mask & below).bit_length() - 1))
                        mask, pos, neg = mask | below, pos | p, neg | n
                else:
                    (mask, pa, na), (mb, pb, nb) = rec[kids[0]], rec[kids[-1]]
                    if len(kids) > 2 or not pa & nb | na & pb:
                        raise _fail(path, lineno,
                                    "O node is not a binary decision on one "
                                    "variable, so the circuit is not "
                                    "deterministic")
                    mask |= mb
                rec.append((mask, pos, neg))
            nodes.append(node)
            continue
        if k == 2:
            # An arm, or a decision over two opposite arms of one level.
            a, b = kids
            if conjunction:
                if type(a) is not tuple or a[2] != manager.TRUE:
                    a, b = b, a
                if type(a) is tuple and a[2] == manager.TRUE:
                    if type(b) is tuple:
                        b = _obdd_built(manager, b)
                    if level_of(b) > a[0]:
                        nodes.append((a[0], a[1], b))
                        continue
            elif type(a) is tuple and type(b) is tuple and a[0] == b[0] \
                    and a[1] != b[1]:
                nodes.append(decide(a[0], a[2], b[2]) if a[1] else
                             decide(a[0], b[2], a[2]))
                continue
        kids = [_obdd_built(manager, x) for x in kids]
        if conjunction:
            nodes.append(reduce(manager.and_, kids) if kids else manager.TRUE)
        else:
            nodes.append(reduce(manager.or_, kids) if kids else manager.FALSE)
    if not nodes:
        raise NnfIoError("%s: circuit has no nodes" % path)
    if len(nodes) != n_nodes:
        raise NnfIoError(
            "%s: header announces %d nodes but the body has %d"
            % (path, n_nodes, len(nodes)))
    if edges != n_edges:
        raise NnfIoError(
            "%s: header announces %d edges but the body has %d"
            % (path, n_edges, edges))

    if ddnnf:
        return CompiledArtifact(mode, alpha, lemma_set, nodes[-1], dag=pdag)
    return CompiledArtifact(mode, alpha, lemma_set,
                            manager.ref(_obdd_built(manager, nodes[-1])))

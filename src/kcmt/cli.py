"""Command-line surface tying the toolkit together.

Verbs: `compile` turns an SMT-LIB file into a circuit/map pair, `gen`
writes seeded random instances, and `bench` runs the benchmark harness.
`query` and `oracle` take the same eight verbs (co va ce im ct me eq se)
from one table. `query` answers on a compiled artifact, `F.nnf F.map`,
with `--other G.nnf G.map` for eq/se. `oracle` answers by exhaustive
theory-level enumeration on the input formula, `--input F.smt2
[--alpha-from F.map]`, with `--other G.smt2`.

Exit codes: 0 success (and "true" verdicts), 1 "false" verdicts,
2 usage or parse errors, 3 mode violations, 4 timeouts, 5 internal
errors (any other exception, reported on one line).
"""

import functools
import sys

import click

from .bench import BenchError, bench_run, load_config
from .compiler import (
    KIND_DDNNF,
    KIND_OBDD,
    CompileError,
    build_text,
    build_tred,
)
from .generate import GenerateError, InstanceSpec, generate
from .formulas import Dag
from .lemmas import LemmaError
from .nnf_io import NnfIoError, read_map, read_nnf, write_lemmas, write_nnf
from .oracle import Oracle, OracleBoundError, OracleTimeout
from .queries import (
    ModeError,
    QueryError,
    count_models,
    count_models_assume,
    entails_clause,
    enumerate_models,
    equivalent,
    is_consistent,
    is_implicant,
    is_valid,
    sentential_entails,
)
from .smtlib import SmtParseError, parse_smt2, write_smt2
from .theory import TheoryError

__all__ = ["cli", "main"]

_USAGE_ERRORS = (SmtParseError, NnfIoError, QueryError, TheoryError,
                 CompileError, LemmaError, GenerateError, BenchError,
                 OracleBoundError, OSError)


@click.group(name="kcmt")
def cli():
    """Compile SMT(LRA) formulas into theory-aware circuits and query them."""


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise click.UsageError(
                "%s is not UTF-8 text: %s" % (path, exc)) from exc


def _parse_literals(text: str, alpha, what: str) -> list:
    """Comma-separated literals in printed atom form, `!` negates."""
    by_str = {str(a): a for a in alpha}
    literals = []
    for raw in text.split(","):
        piece = raw.strip()
        positive = True
        if piece.startswith("!"):
            positive = False
            piece = piece[1:].strip()
        if not piece:
            raise click.UsageError("empty literal in %s" % what)
        atom = by_str.get(piece)
        if atom is None:
            raise click.UsageError(
                "unknown atom %r in %s: not one of the map's atoms"
                % (piece, what))
        literals.append((atom, positive))
    return literals


def _print_answer(answer, alpha) -> int:
    """A verdict as true/false, a count, or one cube line per model."""
    if isinstance(answer, bool):
        click.echo("true" if answer else "false")
        return 0 if answer else 1
    if isinstance(answer, int):
        click.echo(str(answer))
    else:
        named = [(a, str(a)) for a in alpha]
        for model in answer:
            values = dict(model.items())
            click.echo(",".join(("" if values[a] else "!") + name
                                for a, name in named))
    return 0


# --- compile ---------------------------------------------------------------

def _read_order(path: str) -> tuple:
    try:
        return tuple(int(tok) for tok in _read(path).split())
    except ValueError as exc:
        raise click.UsageError(
            "order file %s must hold whitespace-separated integers" % path
        ) from exc


@cli.command("compile")
@click.option("--input", "input_path", required=True, metavar="F.smt2")
@click.option("--mode", required=True, type=click.Choice(["tred", "text"]),
              help="tred: the formula and its lemmas; text: the "
              "tExtended form, stored as its complement, the negation and "
              "its lemmas")
@click.option("--target", required=True, type=click.Choice(["ddnnf", "obdd"]))
@click.option("--lemmas-scope", "lemmas_scope", default="formula",
              type=click.Choice(["formula", "top"]), show_default=True,
              help="enumerate lemmas of the formula or of the full space")
@click.option("--order", "order_path", default=None, metavar="FILE",
              help="obdd variable order: 1-based atom indices")
@click.option("--out", "out_path", required=True, metavar="F.nnf")
@click.option("--map", "map_path", required=True, metavar="F.map")
@click.option("--lemmas-out", "lemmas_out", default=None, metavar="F.lem",
              help="also dump the lemma clauses in DIMACS form")
@click.option("--smooth", is_flag=True, help="smooth the ddnnf output")
def compile_cmd(input_path, mode, target, lemmas_scope, order_path,
                out_path, map_path, lemmas_out, smooth):
    """Compile an SMT-LIB file into a circuit with its map sidecar."""
    if order_path is not None and target != "obdd":
        raise click.UsageError("--order applies to the obdd target")
    if smooth and target != "ddnnf":
        raise click.UsageError("--smooth applies to the ddnnf target")
    fdag, node, alpha = parse_smt2(_read(input_path))
    build = build_tred if mode == "tred" else build_text
    artifact = build(
        fdag, node, alpha,
        scope=lemmas_scope,
        kind=KIND_DDNNF if target == "ddnnf" else KIND_OBDD,
        order=_read_order(order_path) if order_path else None,
    )
    if smooth:
        artifact.root = artifact.smooth_root()
    write_nnf(artifact, out_path, map_path)
    if lemmas_out:
        write_lemmas(artifact, lemmas_out)
    click.echo("%s %s: %d atoms, %d lemmas -> %s"
               % (artifact.mode, target, len(alpha), len(artifact.lemmas),
                  out_path))
    return 0


# --- query and oracle ------------------------------------------------------

# One row per verb: name, one-line help, argument option, and the answer on a
# compiled artifact. The lambdas look the query functions up when a verb runs,
# so a patched function is the one called.
_VERBS = (
    ("co", "Consistency: does the formula have a theory model?", None,
     lambda artifact, _: is_consistent(artifact)),
    ("va", "Validity: is the formula true under every theory assignment?",
     None, lambda artifact, _: is_valid(artifact)),
    ("ce", "Clausal entailment: does the formula entail the clause?",
     "--clause", lambda artifact, clause: entails_clause(artifact, clause)),
    ("im", "Implicant: does the cube entail the formula?",
     "--cube", lambda artifact, cube: is_implicant(artifact, cube)),
    ("ct", "Model count over the atom set.",
     "--assume", lambda artifact, cube: count_models(artifact) if cube is None
     else count_models_assume(artifact, cube)),
    ("me", "Model enumeration, one literal-cube line per model.", None,
     lambda artifact, _: enumerate_models(artifact)),
    ("eq", "Equivalence: does this formula have the models of the other?",
     "--other", lambda artifact, other: equivalent(artifact, other)),
    ("se", "Sentential entailment: does this formula entail the other?",
     "--other", lambda artifact, other: sentential_entails(artifact, other)),
)

_LITERALS = '"LIT,LIT,..."'
_LITERAL_OPTIONS = {
    "--clause": {"required": True, "metavar": _LITERALS},
    "--cube": {"required": True, "metavar": _LITERALS},
    "--assume": {"metavar": _LITERALS,
                 "help": "count only models extending this cube"},
}


@cli.group("query")
def query_group():
    """Answer a query on a compiled artifact."""


@cli.group("oracle")
def oracle_group():
    """Answer the same verbs by exhaustive theory-level enumeration."""


def _load_artifact(nnf_path, map_path, other=None):
    artifact = read_nnf(nnf_path, map_path)
    return (artifact, artifact.alpha,
            None if other is None else read_nnf(*other))


def _load_formula(input_path, alpha_from, other=None):
    """The formula, its atom set and the `--other` formula's root.

    Without `--alpha-from` the atom set is the union of the formulas'
    atoms; with it, that union must lie inside the map's atom set, which
    then fixes the atoms and their order.
    """
    fdag, node, alpha = parse_smt2(_read(input_path))
    other_node = None
    if other is not None:
        _, other_node, other_alpha = parse_smt2(_read(other), fdag)
        alpha = alpha.union(other_alpha)
    if alpha_from is not None:
        pinned = read_map(alpha_from)
        for atom in alpha:
            if atom not in pinned:
                raise click.UsageError(
                    "formula atom %s is not in the map %s" % (atom, alpha_from))
        alpha = pinned
    return (fdag, node), alpha, other_node


def _run_verb(load, ask, verb, option, answer, arg=None, **inputs):
    if option == "--other":
        target, alpha, arg = load(other=arg, **inputs)
    else:
        target, alpha, _ = load(**inputs)
        if arg is not None:
            arg = _parse_literals(arg, alpha, option)
    return _print_answer(ask(verb, answer, target, alpha, arg), alpha)


def _add_verbs(group, inputs, other, load, ask):
    """Register every row of `_VERBS` in `group`.

    inputs() makes the parameters naming the input, `other` holds the
    `--other` option's settings, load(other=..., **inputs) returns the
    target, its atom set and the other target, and ask(verb, answer,
    target, alpha, arg) answers the query.
    """
    options = {**_LITERAL_OPTIONS, "--other": {"required": True, **other}}
    for verb, help_line, option, answer in _VERBS:
        params = inputs()
        if option is not None:
            params.insert(0, click.Option([option, "arg"], **options[option]))
        group.add_command(click.Command(
            verb, help=help_line, params=params,
            callback=functools.partial(_run_verb, load, ask, verb, option,
                                       answer)))


_add_verbs(
    query_group,
    lambda: [click.Argument(["nnf_path"], metavar="F.nnf"),
             click.Argument(["map_path"], metavar="F.map")],
    {"nargs": 2, "metavar": "G.nnf G.map"},
    _load_artifact,
    lambda verb, answer, artifact, alpha, arg: answer(artifact, arg))
_add_verbs(
    oracle_group,
    lambda: [click.Option(["--input", "input_path"], required=True,
                          metavar="F.smt2"),
             click.Option(["--alpha-from", "alpha_from"], default=None,
                          metavar="F.map",
                          help="pin the atom set and order to a map sidecar")],
    {"metavar": "G.smt2"},
    _load_formula,
    lambda verb, answer, target, alpha, arg: Oracle().query(
        verb, *target, alpha, arg))


# --- gen / bench -----------------------------------------------------------

@cli.command("gen")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bool-atoms", "bool_atoms", type=int, default=0,
              show_default=True)
@click.option("--lra-atoms", "lra_atoms", type=int, default=4,
              show_default=True)
@click.option("--vars", "nvars", type=int, default=2, show_default=True)
@click.option("--depth", type=int, default=3, show_default=True)
@click.option("--out", "out_path", required=True, metavar="F.smt2")
def gen_cmd(seed, bool_atoms, lra_atoms, nvars, depth, out_path):
    """Write a seeded random non-CNF instance as an SMT-LIB file."""
    fdag = Dag()
    node, alpha = generate(fdag, InstanceSpec(
        num_bool_atoms=bool_atoms,
        num_lra_atoms=lra_atoms,
        num_rational_vars=nvars,
        dag_depth=depth,
        seed=seed,
    ))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(write_smt2(fdag, node, alpha))
    click.echo("wrote %s: %d atoms, seed %d" % (out_path, len(alpha), seed))
    return 0


@cli.command("bench")
@click.option("--spec", "spec_path", required=True, metavar="bench.cfg")
@click.option("--out", "out_path", required=True, metavar="report.csv")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--timeout-s", "timeout_s", type=float, default=None,
              help="override every phase budget")
def bench_cmd(spec_path, out_path, jobs, timeout_s):
    """Run the benchmark battery described by a JSON config."""
    rows = bench_run(load_config(spec_path), out_path, jobs=jobs,
                     timeout_s=timeout_s)
    click.echo("%d rows -> %s" % (len(rows), out_path))
    return 0


# --- entry point -----------------------------------------------------------

def main(argv=None) -> int:
    """Translate outcomes and failures into the documented exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        if exc.__class__.__name__ == "NoArgsIsHelpError":
            click.echo(exc.format_message())
            return 0
        click.echo("error: %s" % exc.format_message(), err=True)
        return 2
    except ModeError as exc:
        click.echo("mode violation: %s" % exc, err=True)
        return 3
    except OracleTimeout as exc:
        click.echo("timeout: %s" % exc, err=True)
        return 4
    except _USAGE_ERRORS as exc:
        click.echo("error: %s" % exc, err=True)
        return 2
    except click.exceptions.Abort:
        raise  # click's form of an interrupt, not a fault of the program
    except Exception as exc:
        # Anything else is a fault of the program, not a verdict: a
        # traceback's exit code 1 would read as "false".
        click.echo("internal error: %s: %s"
                   % (type(exc).__name__, " ".join(str(exc).split())),
                   err=True)
        return 5
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())

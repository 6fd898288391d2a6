"""Command-line surface tying the toolkit together.

Verbs: `compile` turns an SMT-LIB file into a circuit/map pair, `query`
answers the eight queries on compiled artifacts, `oracle` answers the
same verbs by exhaustive enumeration on the input formula, `gen` writes
seeded random instances, and `bench` runs the benchmark harness.

Exit codes: 0 success (and "true" verdicts), 1 "false" verdicts,
2 usage or parse errors, 3 mode violations, 4 timeouts, 5 internal
errors (any other exception, reported on one line).
"""

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
    with open(path) as fh:
        return fh.read()


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


def _cube_text(assignment, alpha) -> str:
    return ",".join(
        ("" if assignment.value(a) else "!") + str(a) for a in alpha)


def _verdict(answer: bool) -> int:
    click.echo("true" if answer else "false")
    return 0 if answer else 1


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
              help="conjoin lemmas (tred) or disjoin negated lemmas (text)")
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
        smooth_output=smooth,
        order=_read_order(order_path) if order_path else None,
    )
    write_nnf(artifact, out_path, map_path)
    if lemmas_out:
        write_lemmas(artifact, lemmas_out)
    click.echo("%s %s: %d atoms, %d lemmas -> %s"
               % (artifact.mode, target, len(alpha), len(artifact.lemmas),
                  out_path))
    return 0


# --- query -----------------------------------------------------------------

@cli.group("query")
def query_group():
    """Answer a query on a compiled artifact."""


def _artifact_args(fn):
    fn = click.argument("map_path", metavar="F.map")(fn)
    fn = click.argument("nnf_path", metavar="F.nnf")(fn)
    return fn


@query_group.command("co")
@_artifact_args
def query_co(nnf_path, map_path):
    """Consistency: does the formula have a theory model?"""
    return _verdict(is_consistent(read_nnf(nnf_path, map_path)))


@query_group.command("va")
@_artifact_args
def query_va(nnf_path, map_path):
    """Validity: is the formula true under every theory assignment?"""
    return _verdict(is_valid(read_nnf(nnf_path, map_path)))


@query_group.command("ce")
@click.option("--clause", required=True, metavar='"LIT,LIT,..."')
@_artifact_args
def query_ce(clause, nnf_path, map_path):
    """Clausal entailment: does the formula entail the clause?"""
    artifact = read_nnf(nnf_path, map_path)
    lits = _parse_literals(clause, artifact.alpha, "--clause")
    return _verdict(entails_clause(artifact, lits))


@query_group.command("im")
@click.option("--cube", required=True, metavar='"LIT,LIT,..."')
@_artifact_args
def query_im(cube, nnf_path, map_path):
    """Implicant: does the cube entail the formula?"""
    artifact = read_nnf(nnf_path, map_path)
    lits = _parse_literals(cube, artifact.alpha, "--cube")
    return _verdict(is_implicant(artifact, lits))


@query_group.command("ct")
@click.option("--assume", default=None, metavar='"LIT,LIT,..."',
              help="count only models extending this cube")
@_artifact_args
def query_ct(assume, nnf_path, map_path):
    """Model count over the artifact's atom set."""
    artifact = read_nnf(nnf_path, map_path)
    if assume is None:
        click.echo(str(count_models(artifact)))
    else:
        lits = _parse_literals(assume, artifact.alpha, "--assume")
        click.echo(str(count_models_assume(artifact, lits)))
    return 0


@query_group.command("me")
@_artifact_args
def query_me(nnf_path, map_path):
    """Model enumeration, one literal-cube line per model."""
    artifact = read_nnf(nnf_path, map_path)
    for model in enumerate_models(artifact):
        click.echo(_cube_text(model, artifact.alpha))
    return 0


def _query_pair(kind, nnf_path, map_path, other):
    artifact = read_nnf(nnf_path, map_path)
    other_artifact = read_nnf(other[0], other[1])
    if kind == "eq":
        return equivalent(artifact, other_artifact)
    return sentential_entails(artifact, other_artifact)


@query_group.command("eq")
@click.option("--other", required=True, nargs=2, metavar="G.nnf G.map")
@_artifact_args
def query_eq(other, nnf_path, map_path):
    """Equivalence of two artifacts compiled in the same mode."""
    return _verdict(_query_pair("eq", nnf_path, map_path, other))


@query_group.command("se")
@click.option("--other", required=True, nargs=2, metavar="G.nnf G.map")
@_artifact_args
def query_se(other, nnf_path, map_path):
    """Sentential entailment: does this artifact entail the other?"""
    return _verdict(_query_pair("se", nnf_path, map_path, other))


# --- oracle ----------------------------------------------------------------

@cli.group("oracle")
def oracle_group():
    """Answer the same verbs by exhaustive theory-level enumeration."""


def _oracle_args(fn):
    fn = click.option("--alpha-from", "alpha_from", default=None,
                      metavar="F.map",
                      help="pin the atom set and order to a map sidecar")(fn)
    fn = click.option("--input", "input_path", required=True,
                      metavar="F.smt2")(fn)
    return fn


def _oracle_target(input_path, alpha_from, fdag=None):
    parsed_dag, node, alpha = parse_smt2(_read(input_path), fdag)
    if alpha_from is not None:
        pinned = read_map(alpha_from)
        for atom in alpha:
            if atom not in pinned:
                raise click.UsageError(
                    "formula atom %s is not in the map %s" % (atom, alpha_from))
        alpha = pinned
    return parsed_dag, node, alpha


@oracle_group.command("co")
@_oracle_args
def oracle_co(input_path, alpha_from):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    return _verdict(Oracle().query("co", fdag, node, alpha))


@oracle_group.command("va")
@_oracle_args
def oracle_va(input_path, alpha_from):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    return _verdict(Oracle().query("va", fdag, node, alpha))


@oracle_group.command("ce")
@click.option("--clause", required=True, metavar='"LIT,LIT,..."')
@_oracle_args
def oracle_ce(clause, input_path, alpha_from):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    lits = _parse_literals(clause, alpha, "--clause")
    return _verdict(Oracle().query("ce", fdag, node, alpha, lits))


@oracle_group.command("im")
@click.option("--cube", required=True, metavar='"LIT,LIT,..."')
@_oracle_args
def oracle_im(cube, input_path, alpha_from):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    lits = _parse_literals(cube, alpha, "--cube")
    return _verdict(Oracle().query("im", fdag, node, alpha, lits))


@oracle_group.command("ct")
@click.option("--assume", default=None, metavar='"LIT,LIT,..."')
@_oracle_args
def oracle_ct(assume, input_path, alpha_from):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    arg = _parse_literals(assume, alpha, "--assume") if assume else None
    click.echo(str(Oracle().query("ct", fdag, node, alpha, arg)))
    return 0


@oracle_group.command("me")
@_oracle_args
def oracle_me(input_path, alpha_from):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    for model in Oracle().query("me", fdag, node, alpha):
        click.echo(_cube_text(model, alpha))
    return 0


def _oracle_pair(kind, input_path, alpha_from, other_path):
    fdag, node, alpha = _oracle_target(input_path, alpha_from)
    _, other_node, other_alpha = parse_smt2(_read(other_path), fdag)
    if alpha_from is not None:
        for atom in other_alpha:
            if atom not in alpha:
                raise click.UsageError(
                    "formula atom %s is not in the map %s"
                    % (atom, alpha_from))
    else:
        alpha = alpha.union(other_alpha)
    return _verdict(Oracle().query(kind, fdag, node, alpha, other_node))


@oracle_group.command("eq")
@click.option("--other", required=True, metavar="G.smt2")
@_oracle_args
def oracle_eq(other, input_path, alpha_from):
    return _oracle_pair("eq", input_path, alpha_from, other)


@oracle_group.command("se")
@click.option("--other", required=True, metavar="G.smt2")
@_oracle_args
def oracle_se(other, input_path, alpha_from):
    return _oracle_pair("se", input_path, alpha_from, other)


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
    with open(out_path, "w") as fh:
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

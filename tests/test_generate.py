"""Tests for the seeded instance generator."""

import pytest

from kcmt.compiler import build_tred
from kcmt.formulas import Dag, atoms_of
from kcmt.generate import (
    DEFAULT_OPERATOR_MIX,
    GenerateError,
    InstanceSpec,
    generate,
    _has_or_over_and,
)
from kcmt.oracle import Oracle
from kcmt.queries import count_models
from kcmt.smtlib import parse_smt2, write_smt2


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(num_bool_atoms=-1), "num_bool_atoms"),
            (dict(num_lra_atoms=-2), "num_lra_atoms"),
            (dict(num_rational_vars=-1), "num_rational_vars"),
            (dict(dag_depth=0), "dag_depth"),
            (dict(num_bool_atoms=0, num_lra_atoms=0), "at least one atom"),
            (dict(num_lra_atoms=2, num_rational_vars=0), "rational variable"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, fragment):
        with pytest.raises(GenerateError, match=fragment):
            InstanceSpec(**kwargs)

    def test_default_mix_covers_all_connectives(self):
        names = {name for name, _ in DEFAULT_OPERATOR_MIX}
        assert names == {"and", "or", "implies", "iff", "xor", "not"}


class TestDeterminism:
    def test_same_spec_same_formula(self):
        spec = InstanceSpec(seed=1)
        first = Dag()
        node1, alpha1 = generate(first, spec)
        second = Dag()
        node2, alpha2 = generate(second, spec)
        assert first.structurally_equal(node1, second, node2)
        assert [str(a) for a in alpha1] == [str(a) for a in alpha2]
        assert write_smt2(first, node1, alpha1) == write_smt2(second, node2, alpha2)

    def test_seed_changes_formula(self):
        base = Dag()
        node, _ = generate(base, InstanceSpec(seed=0))
        differing = 0
        for seed in range(1, 6):
            other = Dag()
            other_node, _ = generate(other, InstanceSpec(seed=seed))
            differing += not base.structurally_equal(node, other, other_node)
        assert differing >= 4


class TestShape:
    def test_pure_boolean_instance(self):
        fdag = Dag()
        _, alpha = generate(
            fdag,
            InstanceSpec(num_bool_atoms=4, num_lra_atoms=0, num_rational_vars=0, seed=3),
        )
        assert len(alpha) == 4
        assert all(a.kind == "bool" for a in alpha)

    def test_pure_linear_instance(self):
        fdag = Dag()
        _, alpha = generate(fdag, InstanceSpec(num_lra_atoms=5, num_rational_vars=2, seed=9))
        assert len(alpha) == 5
        assert all(a.kind == "lra" for a in alpha)

    @pytest.mark.parametrize("seed", range(30))
    def test_every_atom_occurs(self, seed):
        fdag = Dag()
        node, alpha = generate(
            fdag,
            InstanceSpec(
                num_bool_atoms=seed % 3,
                num_lra_atoms=2 + seed % 5,
                num_rational_vars=1 + seed % 3,
                seed=seed,
            ),
        )
        assert set(atoms_of(fdag, node)) == set(alpha)

    @pytest.mark.parametrize("seed", range(30))
    def test_not_in_cnf(self, seed):
        # instances must exercise the compiler beyond clause conjunction:
        # the NNF of every multi-atom draw contains an or-over-and
        fdag = Dag()
        node, _ = generate(
            fdag,
            InstanceSpec(
                num_bool_atoms=seed % 3,
                num_lra_atoms=2 + seed % 5,
                num_rational_vars=1 + seed % 3,
                seed=seed,
            ),
        )
        assert _has_or_over_and(fdag, node)

    def test_large_draw_stays_within_requested_counts(self):
        fdag = Dag()
        node, alpha = generate(
            fdag,
            InstanceSpec(num_lra_atoms=16, num_rational_vars=3, dag_depth=4, seed=42),
        )
        assert len(alpha) == 16
        assert set(atoms_of(fdag, node)) == set(alpha)


class TestEndToEnd:
    def test_pinned_instance_counts_agree(self):
        fdag = Dag()
        node, alpha = generate(
            fdag, InstanceSpec(num_lra_atoms=4, num_rational_vars=2, seed=7)
        )
        artifact = build_tred(fdag, node, alpha)
        oracle = Oracle()
        assert oracle.query("ct", fdag, node, alpha) == count_models(artifact)
        assert count_models(artifact) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_smt2_round_trip(self, seed):
        fdag = Dag()
        node, alpha = generate(
            fdag,
            InstanceSpec(
                num_bool_atoms=seed % 2,
                num_lra_atoms=3 + seed % 4,
                num_rational_vars=1 + seed % 3,
                seed=seed,
            ),
        )
        text = write_smt2(fdag, node, alpha)
        rdag, rnode, ralpha = parse_smt2(text)
        assert fdag.structurally_equal(node, rdag, rnode)
        assert [str(a) for a in alpha] == [str(a) for a in ralpha]

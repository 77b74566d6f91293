"""Unit tests for the shared cost-model parameter provider."""

import pytest

from repro.optimizer.params import ModelProvider, TableModel
from repro.optimizer.plans import DrivingKind
from repro.query.joingraph import JoinGraph, JoinPredicate
from repro.storage import counters


def make_model(alias, **overrides):
    defaults = dict(
        alias=alias,
        base_cardinality=1000,
        sel_local_index=0.1,
        sel_local_residual=0.5,
        local_predicate_count=2,
        indexed_columns=frozenset({"k"}),
        driving_kind=DrivingKind.INDEX_SCAN,
        driving_range_count=1,
    )
    defaults.update(overrides)
    return TableModel(**defaults)


def two_table_setup(**a_overrides):
    graph = JoinGraph(
        ["a", "b"], [JoinPredicate("a", "k", "b", "k")]
    )
    class_id = graph.class_id("a", "k")
    models = {
        "a": make_model("a", **a_overrides),
        "b": make_model("b"),
    }
    return ModelProvider(models, {class_id: 0.01}, graph), graph


class TestTableModel:
    def test_leg_cardinality_eq9(self):
        model = make_model("a")
        assert model.leg_cardinality == pytest.approx(1000 * 0.1 * 0.5)


class TestDrivingParams:
    def test_index_scan_cost_scales_with_remaining(self):
        provider_full, _ = two_table_setup()
        provider_half, _ = two_table_setup(remaining_fraction=0.5)
        cleg_full, pc_full = provider_full.driving_params("a")
        cleg_half, pc_half = provider_half.driving_params("a")
        assert cleg_half == pytest.approx(cleg_full / 2)
        assert pc_half < pc_full

    def test_table_scan_cost(self):
        provider, _ = two_table_setup(driving_kind=DrivingKind.TABLE_SCAN)
        _, pc = provider.driving_params("a")
        # A table scan touches every row regardless of selectivity.
        provider_ix, _ = two_table_setup()
        _, pc_ix = provider_ix.driving_params("a")
        assert pc > pc_ix


class TestInnerParams:
    def test_jc_multiplies_class_selectivity(self):
        provider, _ = two_table_setup()
        jc, _ = provider.inner_params("a", frozenset({"b"}))
        # leg_cardinality (50) * class sel (0.01)
        assert jc == pytest.approx(50 * 0.01)

    def test_jc_correction_applied(self):
        provider, graph = two_table_setup(jc_correction=3.0)
        jc, _ = provider.inner_params("a", frozenset({"b"}))
        assert jc == pytest.approx(50 * 0.01 * 3.0)

    def test_pc_correction_applied(self):
        plain, _ = two_table_setup()
        corrected, _ = two_table_setup(pc_correction=2.0)
        _, pc_plain = plain.inner_params("a", frozenset({"b"}))
        _, pc_corrected = corrected.inner_params("a", frozenset({"b"}))
        assert pc_corrected == pytest.approx(2.0 * pc_plain)

    def test_probe_ignores_remaining_fraction_for_pc(self):
        # A frozen position reduces JC (rows surviving) but not probe work.
        full, _ = two_table_setup()
        half, _ = two_table_setup(remaining_fraction=0.5)
        jc_full, pc_full = full.inner_params("a", frozenset({"b"}))
        jc_half, pc_half = half.inner_params("a", frozenset({"b"}))
        assert jc_half == pytest.approx(jc_full / 2)
        assert pc_half == pytest.approx(pc_full)

    def test_hash_probe_without_index(self):
        # No index on the join column: priced as the hash probe the
        # executor runs — one lookup, then a match per row of the bucket,
        # the bucket holding only rows that pass the locals (built once).
        provider_ix, _ = two_table_setup()
        provider_hash, _ = two_table_setup(indexed_columns=frozenset())
        jc_ix, pc_ix = provider_ix.inner_params("a", frozenset({"b"}))
        jc_hash, pc_hash = provider_hash.inner_params("a", frozenset({"b"}))
        assert jc_hash == jc_ix
        bucket = 1000 * 0.1 * 0.5 * 0.01
        assert pc_hash == pytest.approx(
            counters.HASH_PROBE_COST + bucket * counters.HASH_MATCH_COST
        )
        assert pc_hash < pc_ix

    def test_redundant_class_predicates_filter_once(self):
        # Three tables joined on one equivalence class: with two bound
        # legs, the third leg's JC applies the class selectivity once.
        graph = JoinGraph(
            ["a", "b", "c"],
            [
                JoinPredicate("a", "k", "b", "k"),
                JoinPredicate("b", "k", "c", "k"),
            ],
        )
        class_id = graph.class_id("a", "k")
        models = {alias: make_model(alias) for alias in "abc"}
        provider = ModelProvider(models, {class_id: 0.01}, graph)
        jc_one_bound, _ = provider.inner_params("c", frozenset({"a"}))
        jc_two_bound, _ = provider.inner_params("c", frozenset({"a", "b"}))
        assert jc_one_bound == pytest.approx(jc_two_bound)

    def test_memo_lasts_until_its_owner_drops_a_leg(self):
        """A run's live model rewrites a leg's model in place and drops
        that leg's entries itself: until then the memo answers."""
        provider, _ = two_table_setup()
        bound = frozenset({"b"})
        first = provider.inner_params("a", bound)
        provider.models["a"].sel_local_residual = 0.25
        assert provider.inner_params("a", bound) is first
        provider.memo.pop("a")
        jc, _ = provider.inner_params("a", bound)
        assert jc == pytest.approx(first[0] / 2)

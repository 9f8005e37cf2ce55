"""Unit tests for the GraphData container and splits."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.graph.data import GraphData
from repro.graph.splits import SplitIndices, make_inductive_split, make_planetoid_split

from helpers import build_small_graph


class TestGraphDataValidation:
    def test_valid_graph_passes(self, tiny_graph):
        tiny_graph.validate()

    def test_non_square_adjacency_rejected(self, tiny_graph):
        with pytest.raises(GraphValidationError):
            GraphData(
                adjacency=sp.csr_matrix(np.ones((3, 4))),
                features=np.ones((3, 2)),
                labels=np.zeros(3, dtype=int),
                split=tiny_graph.split,
            )

    def test_feature_row_mismatch_rejected(self, tiny_graph):
        with pytest.raises(GraphValidationError):
            tiny_graph.with_(features=np.ones((4, 3)))

    def test_label_length_mismatch_rejected(self, tiny_graph):
        with pytest.raises(GraphValidationError):
            tiny_graph.with_(labels=np.zeros(4, dtype=int))

    def test_negative_labels_rejected(self, tiny_graph):
        labels = tiny_graph.labels.copy()
        labels[0] = -1
        with pytest.raises(GraphValidationError):
            tiny_graph.with_(labels=labels)

    def test_split_out_of_range_rejected(self, tiny_graph):
        bad_split = SplitIndices(train=np.array([99]), val=np.array([]), test=np.array([]))
        with pytest.raises(GraphValidationError):
            tiny_graph.with_(split=bad_split)


class TestGraphDataProperties:
    def test_counts(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_features == 3
        assert tiny_graph.num_classes == 2
        assert tiny_graph.num_edges == 7

    def test_degrees(self, tiny_graph):
        degrees = tiny_graph.degrees()
        assert degrees.shape == (6,)
        assert degrees[2] == 3  # node 2 connects to 0, 1, 3

    def test_summary_keys(self, tiny_graph):
        summary = tiny_graph.summary()
        for key in ("nodes", "edges", "classes", "features", "train", "val", "test"):
            assert key in summary

    def test_copy_is_deep(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.features[0, 0] = 99.0
        assert tiny_graph.features[0, 0] != 99.0

    def test_with_replaces_field(self, tiny_graph):
        renamed = tiny_graph.with_(name="renamed")
        assert renamed.name == "renamed"
        assert tiny_graph.name == "tiny"


class TestTrainingView:
    def test_transductive_view_is_same_object(self, small_graph):
        assert small_graph.training_view() is small_graph

    def test_inductive_view_restricts_to_train_nodes(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        view = inductive.training_view()
        assert view.num_nodes == small_graph.split.train.size
        assert not view.inductive
        np.testing.assert_array_equal(
            view.labels, small_graph.labels[small_graph.split.train]
        )

    def test_inductive_view_has_no_cross_split_edges(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        view = inductive.training_view()
        # Every edge in the view must connect two training nodes of the parent.
        assert view.num_edges <= small_graph.num_edges


class TestTrainingViewMemo:
    """The inductive view is built once per graph and shared by every caller."""

    @staticmethod
    def assert_same_content(left, right):
        assert (left.adjacency != right.adjacency).nnz == 0
        assert left.features.tobytes() == right.features.tobytes()
        np.testing.assert_array_equal(left.labels, right.labels)
        np.testing.assert_array_equal(left.split.train, right.split.train)
        assert left.name == right.name
        assert left.metadata == right.metadata

    def test_repeated_calls_return_one_object(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        view = inductive.training_view()
        assert inductive.training_view() is view
        assert inductive.training_view().version == view.version
        fresh = small_graph.with_(inductive=True).training_view()
        assert fresh is not view
        self.assert_same_content(view, fresh)

    def test_derived_graphs_do_not_carry_the_memo(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        view = inductive.training_view()
        for derived in (
            inductive.with_(name="renamed"),
            dataclasses.replace(inductive, name="replaced"),
            inductive.copy(),
        ):
            assert "_training_view" not in derived.__dict__
            other = derived.training_view()
            assert other is not view
            assert other.version != view.version
            assert other.features.tobytes() == view.features.tobytes()

    def test_pickle_payload_does_not_ship_the_view(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        before = len(pickle.dumps(inductive))
        inductive.training_view()
        assert len(pickle.dumps(inductive)) == before

    def test_unpickled_graph_builds_its_own_view(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        view = inductive.training_view()
        restored = pickle.loads(pickle.dumps(inductive))
        assert "_training_view" not in restored.__dict__
        restored_view = restored.training_view()
        assert restored_view.version != view.version
        self.assert_same_content(restored_view, view)


class TestFeatureStdMemo:
    def test_value_matches_numpy_and_is_memoised(self, small_graph):
        value = small_graph.feature_std()
        assert value == float(small_graph.features.std())
        assert small_graph.__dict__["_feature_std"] == value
        small_graph.__dict__["_feature_std"] = -1.0  # a memo hit skips the pass
        assert small_graph.feature_std() == -1.0

    def test_derived_graphs_do_not_carry_the_memo(self, small_graph):
        small_graph.feature_std()
        for derived in (small_graph.with_(name="renamed"), small_graph.copy()):
            assert "_feature_std" not in derived.__dict__

    def test_pickle_payload_does_not_ship_the_memo(self, small_graph):
        before = len(pickle.dumps(small_graph))
        small_graph.feature_std()
        assert len(pickle.dumps(small_graph)) == before
        restored = pickle.loads(pickle.dumps(small_graph))
        assert "_feature_std" not in restored.__dict__
        assert restored.feature_std() == small_graph.feature_std()


class TestSplits:
    def test_planetoid_split_sizes(self, rng):
        labels = np.repeat(np.arange(4), 50)
        split = make_planetoid_split(labels, train_per_class=5, num_val=30, num_test=60, rng=rng)
        assert split.train.size == 20
        assert split.val.size == 30
        assert split.test.size == 60

    def test_planetoid_split_class_balance(self, rng):
        labels = np.repeat(np.arange(4), 50)
        split = make_planetoid_split(labels, train_per_class=5, num_val=30, num_test=60, rng=rng)
        counts = np.bincount(labels[split.train], minlength=4)
        np.testing.assert_array_equal(counts, [5, 5, 5, 5])

    def test_planetoid_split_disjoint(self, rng):
        labels = np.repeat(np.arange(3), 40)
        split = make_planetoid_split(labels, train_per_class=5, num_val=20, num_test=40, rng=rng)
        split.validate_disjoint()

    def test_planetoid_split_insufficient_class_raises(self, rng):
        labels = np.array([0, 0, 1])
        with pytest.raises(GraphValidationError):
            make_planetoid_split(labels, train_per_class=5, num_val=1, num_test=1, rng=rng)

    def test_planetoid_split_insufficient_remaining_raises(self, rng):
        labels = np.repeat(np.arange(2), 10)
        with pytest.raises(GraphValidationError):
            make_planetoid_split(labels, train_per_class=5, num_val=10, num_test=10, rng=rng)

    def test_inductive_split_covers_all_nodes(self, rng):
        split = make_inductive_split(100, train_fraction=0.5, val_fraction=0.2, rng=rng)
        union = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(union), np.arange(100))

    def test_inductive_split_fraction_validation(self, rng):
        with pytest.raises(GraphValidationError):
            make_inductive_split(100, train_fraction=0.9, val_fraction=0.2, rng=rng)
        with pytest.raises(GraphValidationError):
            make_inductive_split(100, train_fraction=0.0, val_fraction=0.2, rng=rng)

    def test_overlapping_split_detection(self):
        split = SplitIndices(train=np.array([0, 1]), val=np.array([1]), test=np.array([2]))
        with pytest.raises(GraphValidationError):
            split.validate_disjoint()

    def test_split_copy_independent(self):
        split = SplitIndices(train=np.array([0]), val=np.array([1]), test=np.array([2]))
        clone = split.copy()
        clone.train[0] = 9
        assert split.train[0] == 0


class TestBuildSmallGraph:
    def test_fixture_builder_is_deterministic(self):
        a = build_small_graph(seed=3)
        b = build_small_graph(seed=3)
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_allclose(a.features, b.features)

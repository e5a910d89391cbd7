"""Tests for the confidence graph (§III-A, six-step construction)."""

import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization import ConfidenceObservation, characterize
from repro.core import ConfidenceGraph
from repro.core.confidence_graph import Prediction
from repro.models import default_zoo
from repro.sim import xavier_nx_with_oakd


def _obs(index, readings, difficulty=0.5):
    return ConfidenceObservation(sample_index=index, difficulty=difficulty, readings=readings)


def _simple_observations():
    """Two models whose confidences track a shared latent difficulty."""
    observations = []
    for i in range(60):
        latent = (i % 10) / 10.0  # 0.0 .. 0.9
        observations.append(
            _obs(
                i,
                {
                    "big": (min(latent + 0.05, 1.0), min(latent + 0.1, 1.0)),
                    "small": (latent, max(latent - 0.1, 0.0)),
                },
            )
        )
    return observations


class TestConstruction:
    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceGraph.build([])

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceGraph.build(_simple_observations(), bin_width=0.0)
        with pytest.raises(ValueError):
            ConfidenceGraph.build(_simple_observations(), bin_width=1.5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceGraph.build(_simple_observations(), distance_threshold=-0.1)

    def test_nodes_are_model_bin_pairs(self):
        graph = ConfidenceGraph.build(_simple_observations())
        assert graph.models() == ["big", "small"]
        assert graph.node_count > 2
        for model, bin_idx in graph.node_keys():
            assert model in ("big", "small")
            assert 0 <= bin_idx <= 9

    def test_edges_created_between_co_occurring_bins(self):
        graph = ConfidenceGraph.build(_simple_observations())
        assert graph.edge_count > 0

    def test_node_accuracy_is_mean_iou_of_bin(self):
        observations = [
            _obs(0, {"a": (0.55, 0.6), "b": (0.1, 0.1)}),
            _obs(1, {"a": (0.52, 0.8), "b": (0.1, 0.1)}),
        ]
        graph = ConfidenceGraph.build(observations)
        assert graph.expected_accuracy(("a", 5)) == pytest.approx(0.7)
        assert graph.observation_count(("a", 5)) == 2

    def test_bin_index_top_bin_folds(self):
        graph = ConfidenceGraph.build(_simple_observations())
        assert graph.bin_index(1.0) == 9
        assert graph.bin_index(0.0) == 0
        assert graph.bin_index(0.55) == 5


class TestPrediction:
    def test_prediction_covers_correlated_model(self):
        graph = ConfidenceGraph.build(_simple_observations())
        predictions = {p.model_name: p for p in graph.predict("big", 0.85)}
        assert "small" in predictions
        assert "big" in predictions

    def test_high_confidence_predicts_high_accuracy(self):
        graph = ConfidenceGraph.build(_simple_observations())
        high = {p.model_name: p.accuracy for p in graph.predict("big", 0.85)}
        low = {p.model_name: p.accuracy for p in graph.predict("big", 0.05)}
        assert high["big"] > low["big"]
        assert high["small"] > low["small"]

    def test_predictions_in_unit_interval(self):
        graph = ConfidenceGraph.build(_simple_observations())
        for confidence in (0.0, 0.3, 0.6, 0.95):
            for prediction in graph.predict("big", confidence):
                assert 0.0 <= prediction.accuracy <= 1.0
                assert prediction.distance >= 0.0

    def test_unseen_bin_falls_back_to_nearest(self):
        observations = [
            _obs(0, {"a": (0.95, 0.9), "b": (0.9, 0.8)}),
            _obs(1, {"a": (0.92, 0.85), "b": (0.88, 0.8)}),
        ]
        graph = ConfidenceGraph.build(observations)
        # Bin 0 for model "a" was never observed; prediction still works.
        predictions = graph.predict("a", 0.02)
        assert predictions

    def test_unknown_model_returns_empty(self):
        graph = ConfidenceGraph.build(_simple_observations())
        assert graph.predict("ghost", 0.5) == []

    def test_self_prediction_at_distance_zero_dominates(self):
        graph = ConfidenceGraph.build(_simple_observations())
        predictions = {p.model_name: p for p in graph.predict("big", 0.85)}
        # The start node itself is at distance 0; consolidation keeps the
        # same-model prediction closest.
        assert predictions["big"].distance <= predictions["small"].distance + 1.0


class TestDistanceThreshold:
    def test_zero_threshold_predicts_only_self(self):
        graph = ConfidenceGraph.build(_simple_observations(), distance_threshold=0.0)
        predictions = graph.predict("big", 0.85)
        names = {p.model_name for p in predictions}
        # Distance-0 reachable set: the start node plus any perfectly
        # correlated nodes (cost 0 edges are that node's strongest edges).
        assert "big" in names

    def test_larger_threshold_reaches_no_fewer_models(self):
        narrow = ConfidenceGraph.build(_simple_observations(), distance_threshold=0.1)
        wide = narrow.with_distance_threshold(2.0)
        for confidence in (0.15, 0.55, 0.85):
            assert len(wide.predict("big", confidence)) >= len(narrow.predict("big", confidence))

    def test_rethreshold_shares_structure(self):
        graph = ConfidenceGraph.build(_simple_observations())
        other = graph.with_distance_threshold(1.0)
        assert other.node_count == graph.node_count
        assert other.edge_count == graph.edge_count
        assert other.distance_threshold == 1.0

    def test_rethreshold_negative_rejected(self):
        graph = ConfidenceGraph.build(_simple_observations())
        with pytest.raises(ValueError):
            graph.with_distance_threshold(-1.0)


@st.composite
def observation_sets(draw):
    n = draw(st.integers(5, 25))
    observations = []
    for i in range(n):
        base = draw(st.floats(0.0, 1.0))
        readings = {}
        for model in ("a", "b", "c"):
            conf = min(1.0, max(0.0, base + draw(st.floats(-0.2, 0.2))))
            iou = min(1.0, max(0.0, base + draw(st.floats(-0.3, 0.3))))
            readings[model] = (conf, iou)
        observations.append(_obs(i, readings))
    return observations


class TestProperties:
    @given(observation_sets())
    @settings(max_examples=40, deadline=None)
    def test_predictions_always_bounded(self, observations):
        graph = ConfidenceGraph.build(observations)
        for model in graph.models():
            for confidence in (0.0, 0.5, 1.0):
                for prediction in graph.predict(model, confidence):
                    assert 0.0 <= prediction.accuracy <= 1.0
                    assert 0.0 <= prediction.distance <= graph.distance_threshold + 1e-9

    @given(observation_sets())
    @settings(max_examples=40, deadline=None)
    def test_prediction_map_total_over_nodes(self, observations):
        graph = ConfidenceGraph.build(observations)
        for model, bin_idx in graph.node_keys():
            confidence = (bin_idx + 0.5) * graph.bin_width
            predictions = graph.predict(model, confidence)
            assert any(p.model_name == model for p in predictions)

    @given(observation_sets())
    @settings(max_examples=30, deadline=None)
    def test_deterministic_construction(self, observations):
        a = ConfidenceGraph.build(observations)
        b = ConfidenceGraph.build(observations)
        for model in a.models():
            assert a.predict(model, 0.5) == b.predict(model, 0.5)


def _eager_reference(observations, bin_width=0.1, distance_threshold=0.5):
    """The six steps as first written, all at construction: the oracle.

    Returns ``(nodes, prediction_map)`` with ``nodes`` as key ->
    (expected accuracy, observation count, edge items in order).  Step 3
    recomputes each node's maximum edge weight on every edge visit.
    """
    sums, counts = {}, {}
    for obs in observations:
        for model, (confidence, iou) in obs.readings.items():
            key = (model, ConfidenceGraph.bin_index_static(confidence, bin_width))
            sums[key] = sums.get(key, 0.0) + iou
            counts[key] = counts.get(key, 0) + 1
    edges = {key: {} for key in sums}
    for obs in observations:
        keys = [
            (model, ConfidenceGraph.bin_index_static(confidence, bin_width))
            for model, (confidence, _iou) in obs.readings.items()
        ]
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                a, b = keys[i], keys[j]
                if a[0] == b[0]:
                    continue
                edges[a][b] = edges[a].get(b, 0.0) + 1.0
                edges[b][a] = edges[b].get(a, 0.0) + 1.0

    def edge_cost(source, target):
        return 1.0 - edges[source][target] / max(edges[source].values())

    def bounded_search(start):
        distances = {start: 0.0}
        frontier = [(0.0, start)]
        while frontier:
            dist, key = heapq.heappop(frontier)
            if dist > distances.get(key, math.inf):
                continue
            for neighbour in edges[key]:
                candidate = dist + edge_cost(key, neighbour)
                if candidate > distance_threshold:
                    continue
                if candidate < distances.get(neighbour, math.inf):
                    distances[neighbour] = candidate
                    heapq.heappush(frontier, (candidate, neighbour))
        return distances

    def consolidate(reachable):
        weight_sum, acc_sum, dist_sum = {}, {}, {}
        for key, distance in reachable.items():
            model = key[0]
            weight = 1.0 / (0.1 + distance)
            weight_sum[model] = weight_sum.get(model, 0.0) + weight
            acc_sum[model] = acc_sum.get(model, 0.0) + weight * (sums[key] / counts[key])
            dist_sum[model] = dist_sum.get(model, 0.0) + weight * distance
        return {
            model: Prediction(model, acc_sum[model] / weight_sum[model],
                              dist_sum[model] / weight_sum[model])
            for model in weight_sum
        }

    nodes = {key: (sums[key] / counts[key], counts[key], list(edges[key].items())) for key in sums}
    return nodes, {key: consolidate(bounded_search(key)) for key in sums}


@pytest.fixture(scope="module")
def characterized_observations():
    return characterize(default_zoo(), xavier_nx_with_oakd(), validation_size=120).observations


class TestOnDemandMap:
    """The map is built on first lookup from per-node edge costs; same floats."""

    def test_nodes_match_the_eager_construction(self, characterized_observations):
        graph = ConfidenceGraph.build(characterized_observations)
        nodes, _ = _eager_reference(characterized_observations)
        assert list(nodes) == list(graph._nodes)
        for key, (accuracy, count, edges) in nodes.items():
            node = graph._nodes[key]
            assert (node.expected_accuracy, node.observation_count) == (accuracy, count)
            assert list(node.edges.items()) == edges

    @pytest.mark.parametrize("threshold", [0.5, 0.2, 0.9])
    def test_map_equals_the_eager_loop(self, characterized_observations, threshold):
        base = ConfidenceGraph.build(characterized_observations)
        graph = base if threshold == 0.5 else base.with_distance_threshold(threshold)
        _, expected = _eager_reference(characterized_observations, distance_threshold=threshold)
        assert graph._predictions() == expected
        for model, bin_idx in graph.node_keys():
            confidence = (bin_idx + 0.5) * graph.bin_width
            assert graph.predict(model, confidence) == sorted(
                expected[(model, bin_idx)].values(), key=lambda p: p.model_name
            )

    def test_views_share_edge_costs(self, characterized_observations):
        base = ConfidenceGraph.build(characterized_observations)
        views = [base.with_distance_threshold(t) for t in (0.2, 0.9)]
        views[0].dense()
        assert all(view._edge_costs is base._edge_costs for view in views)
        assert len(base._edge_costs) == base.node_count
        assert base._prediction_map is None, "a view's lookup leaves the base map unbuilt"

    def test_fingerprint_does_not_build_the_map(self, characterized_observations):
        graph = ConfidenceGraph.build(characterized_observations)
        graph.fingerprint()
        assert graph._prediction_map is None and graph._dense is None
        assert graph._edge_costs == {}
        graph.predict("yolov7", 0.5)
        assert graph._prediction_map is not None

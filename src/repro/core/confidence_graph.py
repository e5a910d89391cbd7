"""Confidence graphs: fast cross-model accuracy prediction (paper §III-A).

The confidence graph (CG) converts the confidence score of the *currently
running* model into accuracy predictions for *every* model, without running
them.  Construction follows the paper's six steps:

1. **Nodes** — one per (model, confidence-score range); each node stores the
   model's expected accuracy (mean IoU) inside that range.
2. **Edges** — for every validation image, connect the nodes each model's
   confidence landed in; repeated co-occurrence increments the edge weight.
3. **Normalize + invert** — weights are normalized *per node* (so globally
   popular edges don't dominate) and inverted into traversal costs: strongly
   correlated score ranges become cheap to traverse.
4. **Bounded search** — from every node, collect neighbours within a
   distance threshold (Dijkstra bounded by the threshold; the paper says
   BFS, which on a weighted graph is exactly a bounded shortest-path pass).
5. **Consolidate** — multiple reachable nodes of the same model collapse
   into a single prediction by distance-weighted averaging.
6. **Map** — the result is stored as a plain lookup: node -> {model ->
   (predicted accuracy, distance)}.  Runtime prediction is a dict lookup.

Steps 1–2 run in :meth:`ConfidenceGraph.build`; steps 3–6 run on the first
:meth:`~ConfidenceGraph.predict` or :meth:`~ConfidenceGraph.dense` call.
A warm sweep whose runs are all store hits needs only
:meth:`~ConfidenceGraph.fingerprint`, which reads the nodes, so it never
pays for the search.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..characterization.profiler import ConfidenceObservation

DEFAULT_BIN_WIDTH = 0.1
DEFAULT_DISTANCE_THRESHOLD = 0.5

# Weight used when consolidating a node reached at distance d; close nodes
# dominate, but even the threshold-edge nodes retain influence.
_CONSOLIDATION_EPSILON = 0.1

NodeKey = tuple[str, int]  # (model name, confidence bin index)


@dataclass(frozen=True)
class Prediction:
    """Predicted accuracy of one model, from the CG lookup."""

    model_name: str
    accuracy: float
    distance: float


class DenseConfidenceLookup:
    """The prediction map flattened into ndarrays for the run hot path.

    :meth:`ConfidenceGraph.predict` walks ``dict`` chains and materializes
    sorted :class:`Prediction` lists — fine offline, measurable per frame.
    This view stores the same floats as three arrays indexed by
    ``(source model, confidence bin, target model)``:

    ``accuracy``
        predicted accuracy (exactly the value ``predict`` would report);
    ``distance``
        consolidated traversal distance of that prediction;
    ``valid``
        whether the target model is reachable from that source node.

    Source rows for (model, bin) nodes never observed during
    characterization are pre-filled from the nearest populated bin of the
    same model — the same totality fallback ``predict`` applies at
    runtime, paid once at build instead of per lookup.  Models are the
    graph's sorted model list; bins cover the full ``[0, 1]`` confidence
    range under the graph's bin width.
    """

    def __init__(self, graph: "ConfidenceGraph") -> None:
        self.models: list[str] = graph.models()
        self.model_index: dict[str, int] = {m: i for i, m in enumerate(self.models)}
        self.bin_count = int(math.ceil(1.0 / graph.bin_width))
        self._graph = graph
        count = len(self.models)
        self.accuracy = np.full((count, self.bin_count, count), np.nan, dtype=np.float64)
        self.distance = np.full((count, self.bin_count, count), np.nan, dtype=np.float64)
        self.valid = np.zeros((count, self.bin_count, count), dtype=bool)
        prediction_map = graph._predictions()
        for source_idx, model in enumerate(self.models):
            for bin_idx in range(self.bin_count):
                key = (model, bin_idx)
                if key not in prediction_map:
                    fallback = graph._nearest_populated_bin(model, bin_idx)
                    if fallback is None:  # pragma: no cover - model has nodes by construction
                        continue
                    key = fallback
                for prediction in prediction_map[key].values():
                    target_idx = self.model_index.get(prediction.model_name)
                    if target_idx is None:  # pragma: no cover - map models ⊆ graph models
                        continue
                    self.accuracy[source_idx, bin_idx, target_idx] = prediction.accuracy
                    self.distance[source_idx, bin_idx, target_idx] = prediction.distance
                    self.valid[source_idx, bin_idx, target_idx] = True

    def row(self, model_name: str, confidence: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``(accuracy, valid)`` vectors over target models, or ``None``.

        ``None`` mirrors ``predict`` returning an empty list for a model
        the graph has never seen.  The returned arrays are views into the
        dense tables and must be treated as read-only.
        """
        source_idx = self.model_index.get(model_name)
        if source_idx is None:
            return None
        bin_idx = self._graph.bin_index(confidence)
        return self.accuracy[source_idx, bin_idx], self.valid[source_idx, bin_idx]


@dataclass
class _Node:
    key: NodeKey
    expected_accuracy: float
    observation_count: int
    edges: dict[NodeKey, float] = field(default_factory=dict)  # neighbour -> raw weight


class ConfidenceGraph:
    """The built graph plus its prediction map.

    Build once from characterization observations with :meth:`build`; the
    distance threshold can be re-applied cheaply via
    :meth:`with_distance_threshold` (the graph structure and its edge
    costs are reused, only the bounded search and consolidation re-run) —
    the sensitivity analysis sweeps this parameter.  The prediction map is
    built on the first lookup, not at construction.
    """

    def __init__(
        self,
        nodes: dict[NodeKey, _Node],
        bin_width: float,
        distance_threshold: float,
        _edge_costs: dict[NodeKey, tuple[tuple[NodeKey, float], ...]] | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("a confidence graph needs at least one node")
        self._nodes = nodes
        self.bin_width = bin_width
        self.distance_threshold = distance_threshold
        # Step 3 per node, filled on demand; shared by every threshold view.
        self._edge_costs = {} if _edge_costs is None else _edge_costs
        self._prediction_map: dict[NodeKey, dict[str, Prediction]] | None = None
        self._dense: DenseConfidenceLookup | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------- build

    @classmethod
    def build(
        cls,
        observations: list[ConfidenceObservation],
        bin_width: float = DEFAULT_BIN_WIDTH,
        distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
    ) -> "ConfidenceGraph":
        """Construct the CG from per-image confidence/IoU observations."""
        if not observations:
            raise ValueError("cannot build a confidence graph from zero observations")
        if not 0.0 < bin_width <= 1.0:
            raise ValueError(f"bin_width must be within (0, 1], got {bin_width}")
        if distance_threshold < 0.0:
            raise ValueError("distance_threshold must be non-negative")

        # Step 1: nodes with expected accuracy per (model, bin).
        top = int(math.ceil(1.0 / bin_width)) - 1
        sums: dict[NodeKey, float] = {}
        counts: dict[NodeKey, int] = {}
        keys_per_observation: list[list[NodeKey]] = []
        for obs in observations:
            keys = []
            for model, (confidence, iou) in obs.readings.items():
                # Inlined bin_index_static: same clamp, same division.
                key = (model, min(int(min(max(confidence, 0.0), 1.0) / bin_width), top))
                sums[key] = sums.get(key, 0.0) + iou
                counts[key] = counts.get(key, 0) + 1
                keys.append(key)
            keys_per_observation.append(keys)
        nodes = {
            key: _Node(
                key=key,
                expected_accuracy=sums[key] / counts[key],
                observation_count=counts[key],
            )
            for key in sums
        }

        # Step 2: co-occurrence edges between different models' nodes.
        for keys in keys_per_observation:
            for i, a in enumerate(keys):
                edges_a = nodes[a].edges
                for b in keys[i + 1 :]:
                    if a[0] == b[0]:
                        continue
                    edges_b = nodes[b].edges
                    edges_a[b] = edges_a.get(b, 0.0) + 1.0
                    edges_b[a] = edges_b.get(a, 0.0) + 1.0

        return cls(nodes=nodes, bin_width=bin_width, distance_threshold=distance_threshold)

    @staticmethod
    def bin_index_static(confidence: float, bin_width: float) -> int:
        """Bin index of a confidence score; 1.0 folds into the top bin."""
        clamped = min(max(confidence, 0.0), 1.0)
        index = int(clamped / bin_width)
        top = int(math.ceil(1.0 / bin_width)) - 1
        return min(index, top)

    def bin_index(self, confidence: float) -> int:
        """Bin index under this graph's bin width."""
        return self.bin_index_static(confidence, self.bin_width)

    # --------------------------------------------------------- traversal

    def _costs_from(self, key: NodeKey) -> tuple[tuple[NodeKey, float], ...]:
        """Step 3: ``key``'s edges as (neighbour, normalized inverted weight).

        Computed once per node and cached in the table every threshold
        view shares; the edge order is the node's own.
        """
        costs = self._edge_costs.get(key)
        if costs is None:
            edges = self._nodes[key].edges
            max_weight = max(edges.values()) if edges else 0.0
            costs = tuple(
                (neighbour, 1.0 - weight / max_weight) for neighbour, weight in edges.items()
            )
            self._edge_costs[key] = costs
        return costs

    def _bounded_search(self, start: NodeKey) -> dict[NodeKey, float]:
        """Step 4: all nodes within ``distance_threshold`` of ``start``."""
        distances: dict[NodeKey, float] = {start: 0.0}
        frontier: list[tuple[float, NodeKey]] = [(0.0, start)]
        while frontier:
            dist, key = heapq.heappop(frontier)
            if dist > distances.get(key, math.inf):
                continue
            for neighbour, cost in self._costs_from(key):
                candidate = dist + cost
                if candidate > self.distance_threshold:
                    continue
                if candidate < distances.get(neighbour, math.inf):
                    distances[neighbour] = candidate
                    heapq.heappush(frontier, (candidate, neighbour))
        return distances

    def _consolidate(self, reachable: dict[NodeKey, float]) -> dict[str, Prediction]:
        """Step 5: distance-weighted average per model."""
        weight_sum: dict[str, float] = {}
        acc_sum: dict[str, float] = {}
        dist_sum: dict[str, float] = {}
        for key, distance in reachable.items():
            model = key[0]
            weight = 1.0 / (_CONSOLIDATION_EPSILON + distance)
            weight_sum[model] = weight_sum.get(model, 0.0) + weight
            acc_sum[model] = acc_sum.get(model, 0.0) + weight * self._nodes[key].expected_accuracy
            dist_sum[model] = dist_sum.get(model, 0.0) + weight * distance
        return {
            model: Prediction(
                model_name=model,
                accuracy=acc_sum[model] / weight_sum[model],
                distance=dist_sum[model] / weight_sum[model],
            )
            for model in weight_sum
        }

    def _predictions(self) -> dict[NodeKey, dict[str, Prediction]]:
        """Step 6: the runtime lookup map (built on first use, then cached)."""
        if self._prediction_map is None:
            self._prediction_map = {
                key: self._consolidate(self._bounded_search(key)) for key in self._nodes
            }
        return self._prediction_map

    # ------------------------------------------------------------ lookup

    def predict(self, model_name: str, confidence: float) -> list[Prediction]:
        """Accuracy predictions for all reachable models (runtime hot path).

        When the exact (model, bin) node was never observed during
        characterization, the nearest populated bin of the same model is
        used — the runtime must stay total over unseen confidence values.
        """
        prediction_map = self._predictions()
        key = (model_name, self.bin_index(confidence))
        if key not in prediction_map:
            fallback = self._nearest_populated_bin(model_name, key[1])
            if fallback is None:
                return []
            key = fallback
        return sorted(prediction_map[key].values(), key=lambda p: p.model_name)

    def _nearest_populated_bin(self, model_name: str, bin_idx: int) -> NodeKey | None:
        candidates = [key for key in self._nodes if key[0] == model_name]
        if not candidates:
            return None
        return min(candidates, key=lambda key: (abs(key[1] - bin_idx), key[1]))

    def dense(self) -> DenseConfidenceLookup:
        """The ndarray view of the prediction map (built once, cached).

        Serves the fast-run scheduler: one ``(source, bin)`` index replaces
        the per-frame dict walk + sort of :meth:`predict`, with the exact
        same floats.
        """
        if self._dense is None:
            self._dense = DenseConfidenceLookup(self)
        return self._dense

    def fingerprint(self) -> str:
        """Content-addressed identity of the graph (hex digest).

        Hashes every node (key, expected accuracy, observation count, full
        edge set) plus the bin width and distance threshold — everything
        :meth:`predict` depends on.  The run store keys persisted SHIFT
        runs by this (via the policy fingerprint), so rebuilding the graph
        from different observations or parameters invalidates cached runs.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            parts = [repr(self.bin_width), repr(self.distance_threshold)]
            for key in sorted(self._nodes):
                node = self._nodes[key]
                edges = ";".join(
                    f"{neighbour}:{weight!r}" for neighbour, weight in sorted(node.edges.items())
                )
                parts.append(
                    f"{key}|{node.expected_accuracy!r}|{node.observation_count}|{edges}"
                )
            digest.update("\n".join(parts).encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------- re-threshold

    def with_distance_threshold(self, distance_threshold: float) -> "ConfidenceGraph":
        """A new graph view with a different bounded-search threshold."""
        if distance_threshold < 0.0:
            raise ValueError("distance_threshold must be non-negative")
        return ConfidenceGraph(
            nodes=self._nodes,
            bin_width=self.bin_width,
            distance_threshold=distance_threshold,
            _edge_costs=self._edge_costs,
        )

    # ---------------------------------------------------------- metadata

    @property
    def node_count(self) -> int:
        """Number of (model, bin) nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(node.edges) for node in self._nodes.values()) // 2

    def node_keys(self) -> list[NodeKey]:
        """All node keys, sorted."""
        return sorted(self._nodes)

    def expected_accuracy(self, key: NodeKey) -> float:
        """Expected accuracy stored at one node."""
        return self._nodes[key].expected_accuracy

    def observation_count(self, key: NodeKey) -> int:
        """Observations that fell into one node's bin."""
        return self._nodes[key].observation_count

    def models(self) -> list[str]:
        """Distinct models present in the graph."""
        return sorted({key[0] for key in self._nodes})

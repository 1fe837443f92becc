"""Multilevel graph partitioning (the METIS substitute).

The three classic phases:

1. **Coarsening** — heavy-edge matching collapses the graph until it is
   small (or stops shrinking).
2. **Initial partitioning** — greedy graph growing bisects the coarsest
   graph.
3. **Uncoarsening** — the bisection is projected level by level back to the
   original graph, refined at each level with boundary FM.

``k``-way partitions are produced by recursive bisection with proportional
weight targets, exactly the scheme METIS's ``pmetis`` path uses.

Under the native engine one :func:`bisect` is one call into the
``partition_fm`` kernel (:func:`repro._native.fm.bisect_ladder`), which
runs all three phases in C and draws from the caller's generator; the
Python ladder :func:`_bisect_python` is its twin and runs whenever the
kernel declines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._native import fm as _native_fm
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from .coarsen import CoarseLevel, coarsen_graph
from .initial import edge_cut, greedy_bisection
from .matching import heavy_edge_matching, matching_to_coarse_map
from .refine import fm_refine

__all__ = ["PartitionResult", "bisect", "partition_graph"]

#: stop coarsening once the graph is this small.
COARSEST_SIZE = 32


@dataclass(frozen=True)
class PartitionResult:
    """A k-way partition of a graph."""

    assignment: np.ndarray
    num_parts: int
    cut: float

    def part_sizes(self) -> np.ndarray:
        """Number of vertices in each part."""
        return np.bincount(self.assignment, minlength=self.num_parts)


def _coarsening_hierarchy(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
) -> list[CoarseLevel]:
    """Build the coarsening ladder, finest (excluded) to coarsest."""
    levels: list[CoarseLevel] = []
    current = graph
    current_vw = vertex_weights
    max_vw = max(1.0, float(vertex_weights.sum()) / COARSEST_SIZE)
    while current.num_vertices > COARSEST_SIZE:
        match = heavy_edge_matching(
            current,
            rng,
            vertex_weights=current_vw,
            max_vertex_weight=max_vw,
        )
        coarse_map, num_coarse = matching_to_coarse_map(match)
        if num_coarse >= current.num_vertices * 0.95:
            break  # matching stalled; further coarsening is pointless
        level = coarsen_graph(current, coarse_map, num_coarse, current_vw)
        levels.append(level)
        current = level.graph
        current_vw = level.vertex_weights
    return levels


def _checked_weights(vertex_weights, n: int) -> np.ndarray:
    """``vertex_weights`` as float64, or ones; ValueError when malformed."""
    if vertex_weights is None:
        return np.ones(n, dtype=np.float64)
    weights = np.asarray(vertex_weights)
    if weights.ndim != 1 or weights.size != n:
        raise ValueError(
            f"vertex_weights must be a 1-d array of length {n}, "
            f"got shape {weights.shape}"
        )
    weights = weights.astype(np.float64, copy=False)
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("vertex_weights must be finite and non-negative")
    return weights


def _check_imbalance(imbalance: float) -> None:
    if not (math.isfinite(imbalance) and imbalance >= 0):
        raise ValueError(f"imbalance must be >= 0, got {imbalance!r}")


def bisect(
    graph: CSRGraph,
    *,
    vertex_weights: np.ndarray | None = None,
    target_fraction: float = 0.5,
    imbalance: float = 0.1,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """Multilevel bisection of ``graph`` into parts {0, 1}.

    Raises ValueError unless ``vertex_weights`` is a finite,
    non-negative 1-d array with one weight per vertex, ``0 <
    target_fraction < 1`` and ``imbalance >= 0``.
    """
    n = graph.num_vertices
    vertex_weights = _checked_weights(vertex_weights, n)
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(
            f"target_fraction must lie in (0, 1), got {target_fraction!r}"
        )
    _check_imbalance(imbalance)
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    if n <= 1:
        return PartitionResult(np.zeros(n, dtype=np.int64), 2, 0.0)
    if resolve_engine() == "native":
        native = _native_fm.bisect_ladder(
            graph, vertex_weights, target_fraction, imbalance, rng
        )
        if native is not None:
            part, cut = native
            return PartitionResult(part, 2, cut)
    return _bisect_python(
        graph, vertex_weights, target_fraction, imbalance, rng
    )


def _bisect_python(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    target_fraction: float,
    imbalance: float,
    rng: np.random.Generator,
) -> PartitionResult:
    """The coarsen → grow → refine ladder in Python (``n >= 2``)."""
    levels = _coarsening_hierarchy(graph, vertex_weights, rng)
    coarsest = levels[-1].graph if levels else graph
    coarsest_vw = levels[-1].vertex_weights if levels else vertex_weights

    part = greedy_bisection(
        coarsest, coarsest_vw, rng, target_fraction=target_fraction
    )
    part = fm_refine(
        coarsest, part, coarsest_vw,
        target_fraction=target_fraction, imbalance=imbalance,
    )

    # Project back through the hierarchy, refining at every level.
    for level_idx in range(len(levels) - 1, -1, -1):
        level = levels[level_idx]
        fine_graph = graph if level_idx == 0 else levels[level_idx - 1].graph
        fine_vw = (
            vertex_weights
            if level_idx == 0
            else levels[level_idx - 1].vertex_weights
        )
        part = part[level.fine_to_coarse]
        part = fm_refine(
            fine_graph, part, fine_vw,
            target_fraction=target_fraction, imbalance=imbalance,
        )

    return PartitionResult(part, 2, edge_cut(graph, part))


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    *,
    vertex_weights: np.ndarray | None = None,
    imbalance: float = 0.1,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """Recursive-bisection k-way partitioning.

    Parts are numbered so that part ids increase along the recursive
    splitting order, which is the property the METIS-based *ordering*
    exploits (contiguous ranks within a part, parts in id order).
    Validates ``vertex_weights`` and ``imbalance`` as :func:`bisect` does.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    n = graph.num_vertices
    vertex_weights = _checked_weights(vertex_weights, n)
    _check_imbalance(imbalance)
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    assignment = np.zeros(n, dtype=np.int64)
    if num_parts == 1 or n == 0:
        return PartitionResult(assignment, num_parts, 0.0)

    def recurse(
        vertices: np.ndarray, parts_lo: int, parts_hi: int
    ) -> None:
        """Assign parts [parts_lo, parts_hi) to the induced subgraph."""
        span = parts_hi - parts_lo
        if span == 1 or vertices.size == 0:
            assignment[vertices] = parts_lo
            return
        if vertices.size == 1:
            assignment[vertices] = parts_lo
            return
        left_parts = span // 2
        fraction = left_parts / span
        sub, local_vw = _induced_subgraph(graph, vertices, vertex_weights)
        result = bisect(
            sub,
            vertex_weights=local_vw,
            target_fraction=fraction,
            imbalance=imbalance,
            seed=rng,
        )
        left = vertices[result.assignment == 0]
        right = vertices[result.assignment == 1]
        if left.size == 0 or right.size == 0:
            # Degenerate bisection: split arbitrarily to guarantee progress.
            half = max(1, int(round(vertices.size * fraction)))
            left, right = vertices[:half], vertices[half:]
        recurse(left, parts_lo, parts_lo + left_parts)
        recurse(right, parts_lo + left_parts, parts_hi)

    recurse(np.arange(n, dtype=np.int64), 0, num_parts)
    return PartitionResult(
        assignment, num_parts, edge_cut(graph, assignment)
    )


def _induced_subgraph(
    graph: CSRGraph,
    vertices: np.ndarray,
    vertex_weights: np.ndarray,
) -> tuple[CSRGraph, np.ndarray]:
    """Weighted induced subgraph plus the matching vertex-weight slice."""
    from ..graph.subgraph import induced_subgraph

    view = induced_subgraph(graph, vertices)
    sub = view.graph
    if not sub.is_weighted:
        # Partition arithmetic expects explicit weights on every level.
        from ..graph.csr import CSRGraph as _CSR

        sub = _CSR(
            sub.indptr, sub.indices,
            np.ones(sub.num_directed_edges, dtype=np.float64),
        )
    return sub, vertex_weights[vertices].astype(np.float64)

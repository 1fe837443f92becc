"""Batched application-workload engine (the apps counterpart of PR 1/2).

The application studies spend their time in two hot spots: generating
thousands of reverse-reachability (RRR) cascades for influence
maximization, and rescanning those cascades during greedy seed
selection.  This module provides numpy implementations of both, required
to be **bit-identical** to the scalar reference loops retained in
:mod:`repro.apps.influence_max`:

* :func:`sample_rrr_ic_pinned_batch` — samples a whole block of
  hash-pinned IC cascades at once.  All live frontiers advance together,
  level-synchronously, over one flat ``(B, n)``-equivalent visited array
  whose entries are *epoch stamps*: a cell counts as visited only when it
  holds the current batch epoch, so the array is allocated once and never
  cleared between batches.  Per-edge coins are computed in bulk by
  :func:`edge_coins_bulk`, the array form of the splitmix64 mix that keys
  cascades on original edge identity.
* :func:`greedy_seed_selection_vector` — max-coverage seed selection
  over a CSR encoding of RRR-set membership: one ``argmax`` plus one
  ``bincount`` per seed instead of per-seed Python rescans of every set.

Sample fan-out optionally routes through :mod:`repro.bench.pool`
(``jobs > 1``): the sample-index range is split into contiguous chunks
and each worker runs the batched sampler on its chunk.  Because pinned
cascades are deterministic per sample index, the parallel result is
exactly the sequential one.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize
from ..engine import gather_neighbors, gather_ranges, resolve_engine
from ..graph.csr import CSRGraph

__all__ = [
    "edge_coins_bulk",
    "sample_rrr_ic_pinned_batch",
    "greedy_seed_selection_vector",
    "flatten_rrr_sets",
    "DEFAULT_BATCH_SIZE",
]

#: cascades advanced together per visited-array epoch.
DEFAULT_BATCH_SIZE = 64

_MASK64 = (1 << 64) - 1
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)
_SEED_MULT = 0xD6E8FEB86659FD93


def edge_coins_bulk(
    orig_u: np.ndarray,
    orig_v: np.ndarray,
    sample_indices: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Per-edge uniforms for many (edge, sample) pairs at once.

    Bit-identical to :func:`repro.apps.influence_max._edge_coins` applied
    element-wise: the salt is the same splitmix64 combination of sample
    index and seed, here computed as a uint64 array so one call covers an
    entire frontier's edges across every cascade in the batch.
    """
    with np.errstate(over="ignore"):
        salt = sample_indices.astype(np.uint64) * _MIX_C + np.uint64(
            (seed * _SEED_MULT) & _MASK64
        )
        a = np.minimum(orig_u, orig_v).astype(np.uint64)
        b = np.maximum(orig_u, orig_v).astype(np.uint64)
        x = a * _MIX_A + b * _MIX_B + salt
        x ^= x >> np.uint64(30)
        x *= _MIX_B
        x ^= x >> np.uint64(27)
        x *= _MIX_C
        x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(2 ** 64)


def _first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each value, in appearance order."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first


@sanitize.guarded
def _sample_pinned_block(
    graph: CSRGraph,
    probability: float,
    roots: np.ndarray,
    original_of: np.ndarray,
    sample_indices: np.ndarray,
    seed: int,
    visited: np.ndarray,
    epoch: int,
) -> list:
    """One epoch of the batched sampler: all cascades of one block.

    ``visited`` is the flat ``(block, n)`` stamp array; cell ``s * n + v``
    counts as visited exactly when it holds ``epoch``.  Frontiers of every
    live cascade advance together; per-cascade discovery order is
    recovered at the end by a stable sort on the cascade slot, which
    preserves both level order and within-level order — the exact order
    the scalar BFS appends vertices.
    """
    from .influence_max import RRRSet

    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    block = roots.size

    slots0 = np.arange(block, dtype=np.int64)
    visited[slots0 * n + roots] = epoch
    frontier_v = roots.copy()
    frontier_s = slots0
    level_s = [frontier_s]
    level_v = [frontier_v]
    edges = np.zeros(block, dtype=np.int64)

    while frontier_v.size:
        np.add.at(edges, frontier_s, degrees[frontier_v])
        targets, slots = gather_neighbors(indptr, indices, frontier_v)
        if targets.size == 0:
            break
        t_slots = frontier_s[slots]
        coins = edge_coins_bulk(
            original_of[frontier_v[slots]],
            original_of[targets],
            sample_indices[t_slots],
            seed,
        )
        live = coins < probability
        keys = t_slots[live] * n + targets[live]
        keys = keys[visited[keys] != epoch]
        if keys.size:
            keys = keys[_first_occurrence(keys)]
            visited[keys] = epoch
        frontier_s = keys // n
        frontier_v = keys - frontier_s * n
        level_s.append(frontier_s)
        level_v.append(frontier_v)

    all_s = np.concatenate(level_s)
    all_v = np.concatenate(level_v)
    by_slot = np.argsort(all_s, kind="stable")
    ordered = all_v[by_slot]
    offsets = np.zeros(block + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_s, minlength=block), out=offsets[1:])
    return [
        RRRSet(
            root=int(roots[s]),
            vertices=ordered[offsets[s]: offsets[s + 1]].copy(),
            edges_examined=int(edges[s]),
        )
        for s in range(block)
    ]


def _pinned_batch_cell(cell: tuple) -> list:
    """Picklable pool worker: run the batched sampler on one chunk."""
    graph, probability, roots, original_of, sample_indices, seed, bs = cell
    return sample_rrr_ic_pinned_batch(
        graph, probability, roots, original_of, sample_indices, seed,
        batch_size=bs, jobs=1,
    )


def _sample_rrr_native(
    graph: CSRGraph,
    probability: float,
    roots: np.ndarray,
    original_of: np.ndarray,
    sample_indices: np.ndarray,
    seed: int,
) -> list | None:
    """Draw all cascades through the threaded ``rrr_sample`` C kernel.

    The serial twin of the kernel: this is the dispatch the native tier
    runs, and with one worker thread it is the kernel's serial path.
    Returns None when the kernel is unavailable (no compiler,
    ``REPRO_NO_NATIVE=1``) so the caller falls through to the batched
    numpy sampler; otherwise the returned ``RRRSet`` list is
    bit-identical to both Python engines for every thread count.
    """
    from .._native import rrr as native_rrr
    from .influence_max import RRRSet

    pairs = native_rrr.run(
        graph, probability, roots, original_of, sample_indices, seed
    )
    if pairs is None:
        return None
    return [
        RRRSet(root=int(root), vertices=vertices, edges_examined=edges)
        for root, (vertices, edges) in zip(roots.tolist(), pairs)
    ]


def sample_rrr_ic_pinned_batch(
    graph: CSRGraph,
    probability: float,
    roots,
    original_of: np.ndarray,
    sample_indices,
    seed: int,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    jobs: int | None = None,
) -> list:
    """Hash-pinned IC RRR sets for many (root, sample index) pairs.

    Bit-identical to calling
    :func:`repro.apps.influence_max.sample_rrr_ic_pinned` once per pair
    (same vertex discovery order, same ``edges_examined``), but sampled
    ``batch_size`` cascades at a time over an epoch-stamped visited
    array.  Under the native tier the whole draw goes through the
    threaded ``rrr_sample`` C kernel (:func:`_sample_rrr_native`),
    falling back here when it is unavailable.  With ``jobs > 1`` the
    pair list is split into contiguous chunks fanned out through
    :func:`repro.bench.pool.map_cells`; determinism per sample index
    makes the parallel result identical to the sequential one.
    """
    sanitize.check_integral(roots, where="sample_rrr_ic_pinned_batch(roots)")
    sanitize.check_integral(
        sample_indices, where="sample_rrr_ic_pinned_batch(sample_indices)"
    )
    roots = np.asarray(roots, dtype=np.int64)
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    if roots.shape != sample_indices.shape:
        raise ValueError("roots and sample_indices must align")
    total = roots.size
    if total == 0:
        return []
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    from ..bench.pool import chunk_evenly, default_jobs, map_cells

    width = jobs if jobs is not None else default_jobs()
    if width > 1 and total > 1:
        cells = [
            (
                graph, probability, roots[a:b], original_of,
                sample_indices[a:b], seed, batch_size,
            )
            for a, b in chunk_evenly(total, width)
        ]
        parts = map_cells(_pinned_batch_cell, cells, jobs=width)
        return [rrr for part in parts for rrr in part]

    if resolve_engine() == "native":
        native_sets = _sample_rrr_native(
            graph, probability, roots, original_of, sample_indices, seed
        )
        if native_sets is not None:
            return native_sets

    n = graph.num_vertices
    block = min(batch_size, total)
    visited = np.zeros(block * n, dtype=np.int64)
    out: list = []
    epoch = 0
    for start in range(0, total, block):
        epoch += 1
        stop = min(start + block, total)
        out.extend(_sample_pinned_block(
            graph, probability, roots[start:stop], original_of,
            sample_indices[start:stop], seed, visited, epoch,
        ))
    return out


def flatten_rrr_sets(rrr_sets: list) -> tuple[np.ndarray, np.ndarray]:
    """Set → member CSR of an RRR-set list: ``(members, offsets)``.

    ``members`` concatenates every set's vertices as int64 and set ``s``
    owns ``members[offsets[s]:offsets[s + 1]]``.  The one flattening
    both the vector engine and the native ``greedy_cover`` kernel read.
    """
    offsets = np.zeros(len(rrr_sets) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(
            (rrr.vertices.size for rrr in rrr_sets),
            dtype=np.int64, count=len(rrr_sets),
        ),
        out=offsets[1:],
    )
    members = (
        np.concatenate(
            [np.asarray(rrr.vertices, dtype=np.int64) for rrr in rrr_sets]
        )
        if rrr_sets
        else np.empty(0, dtype=np.int64)
    )
    return members, offsets


@sanitize.guarded
def greedy_seed_selection_vector(
    rrr_sets: list,
    num_vertices: int,
    k: int,
) -> tuple[list[int], float, int]:
    """Array-based greedy max-coverage (vector engine).

    Bit-identical to the scalar reference in
    :func:`repro.apps.influence_max.greedy_seed_selection`: identical
    seeds (including ``argmax`` tie-breaking), covered fraction, and
    operation count.  RRR membership is held in two CSR encodings —
    vertex → containing sets and set → member vertices — so each seed
    costs one ``argmax`` plus one segmented gather and ``bincount``
    instead of a Python rescan of every newly covered set.
    """
    member_verts, set_offsets = flatten_rrr_sets(rrr_sets)
    num_sets = set_offsets.size - 1
    set_ids = np.repeat(
        np.arange(num_sets, dtype=np.int64), np.diff(set_offsets)
    )
    counts = np.bincount(
        member_verts, minlength=num_vertices
    ).astype(np.int64)

    # vertex -> sets CSR (stable sort keeps set ids ascending per vertex,
    # matching the scalar builder's insertion order).
    by_vertex = np.argsort(member_verts, kind="stable")
    vertex_sets = set_ids[by_vertex]
    vertex_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=vertex_indptr[1:])

    covered = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    operations = int(counts.sum())
    for _ in range(min(k, num_vertices)):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break
        seeds.append(best)
        candidates = vertex_sets[
            vertex_indptr[best]: vertex_indptr[best + 1]
        ]
        fresh = np.unique(candidates[~covered[candidates]])
        if fresh.size:
            covered[fresh] = True
            members = gather_ranges(
                member_verts, set_offsets[fresh], set_offsets[fresh + 1]
            )
            counts -= np.bincount(
                members, minlength=num_vertices
            ).astype(np.int64)
            operations += int(members.size)
        counts[best] = -1
    fraction = float(covered.mean()) if num_sets else 0.0
    return seeds, fraction, operations

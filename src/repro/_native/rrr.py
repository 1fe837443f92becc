"""Compiled hash-pinned RRR sampling kernel (IC reverse BFS).

IMM's hot spot is drawing thousands of independent reverse-reachability
cascades.  Each cascade is a probabilistic BFS whose per-edge coin is a
splitmix64 mix of the edge's *original* endpoint ids and the sample
index (:func:`repro.apps.influence_max._edge_coins`) — so cascades are a
pure function of ``(graph content, sample index, seed)`` and totally
independent of one another.

The kernel draws a chunk of samples in one call, appending each
cascade to a shared output arena and recording its size; the Python
wrapper slices the arena back into per-sample vertex arrays.  Three
things keep the serial inner loop cheap: the sample-independent half of
every edge's hash is computed once per call (``edge_key``), an already
visited target skips its coin (the hash has no side effect), and the
visited set is a byte mask that fits in L1 and is cleared per cascade.

Bit-identity with the scalar BFS (the scalar twin) relies on two exact
equivalences: C's uint64 arithmetic wraps exactly like the masked
numpy/Python mix, and ``(double)x / 2^64`` performs the same
round-to-nearest conversion as ``x.astype(np.float64) / float(2**64)``.
That conversion is monotone in ``x``, so ``coin < probability`` holds
exactly on a prefix ``x < threshold`` of the uint64 range; the kernel
finds the threshold once per call by bisection over the same expression
and compares integers per edge.  The BFS itself appends level by level,
first occurrence in adjacency order — the identical visit order.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

#: Cap on the per-call output arena (int64 elements).  Sample batches
#: whose worst case exceeds it are processed in chunks, so memory stays
#: bounded no matter how many cascades a draw requests.
_ARENA_BUDGET = 1 << 22

_SOURCE = r"""
#include <stdint.h>

static int coin_passes(uint64_t x, double probability)
{
    return (double)x / 18446744073709551616.0 < probability;
}

int64_t rrr_sample(const int64_t *indptr,
                   const int64_t *indices,
                   const int64_t *original_of,
                   int64_t n,
                   uint64_t *edge_key,     /* indptr[n], scratch */
                   double probability,
                   const int64_t *roots,
                   const int64_t *sample_indices,
                   int64_t num_samples,
                   uint64_t seed,
                   int64_t *out_vertices,  /* arena_cap */
                   int64_t arena_cap,
                   int64_t *out_sizes,     /* num_samples */
                   int64_t *out_edges,     /* num_samples */
                   uint8_t *visited)       /* n, zeroed by the caller */
{
    /* The sample-independent half of each edge's coin hash: a function
     * of the edge's original endpoint ids only, so it is computed once
     * per call instead of once per (edge, sample). */
    for (int64_t u = 0; u < n; u++) {
        const uint64_t ou = (uint64_t)original_of[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            const uint64_t ov = (uint64_t)original_of[indices[e]];
            const uint64_t a = ou < ov ? ou : ov;
            const uint64_t b = ou < ov ? ov : ou;
            edge_key[e] = a * 0x9E3779B97F4A7C15ULL
                        + b * 0xBF58476D1CE4E5B9ULL;
        }
    }
    /* coin_passes is monotone in x (the uint64 -> double conversion
     * rounds monotonically), so it holds exactly for x < threshold, or
     * for every x when it holds at UINT64_MAX. */
    const int all_pass = coin_passes(UINT64_MAX, probability);
    uint64_t threshold = 0, hi = UINT64_MAX;
    while (threshold < hi) {
        const uint64_t mid = threshold + (hi - threshold) / 2;
        if (coin_passes(mid, probability))
            threshold = mid + 1;
        else
            hi = mid;
    }
    int64_t pos = 0;
    for (int64_t s = 0; s < num_samples; s++) {
        const uint64_t salt =
            (uint64_t)sample_indices[s] * 0x94D049BB133111EBULL
            + seed * 0xD6E8FEB86659FD93ULL;
        const int64_t base = pos;
        if (pos >= arena_cap)
            return -1;
        const int64_t root = roots[s];
        visited[root] = 1;
        out_vertices[pos++] = root;
        int64_t level_lo = 0;
        int64_t level_hi = 1;
        int64_t edges = 0;
        while (level_lo < level_hi) {
            for (int64_t i = level_lo; i < level_hi; i++) {
                const int64_t u = out_vertices[base + i];
                const int64_t e_lo = indptr[u];
                const int64_t e_hi = indptr[u + 1];
                edges += e_hi - e_lo;
                for (int64_t e = e_lo; e < e_hi; e++) {
                    const int64_t v = indices[e];
                    /* a visited target needs no coin: the hash has no
                     * side effect, so skipping it changes nothing */
                    if (visited[v])
                        continue;
                    uint64_t x = edge_key[e] + salt;
                    x ^= x >> 30;
                    x *= 0xBF58476D1CE4E5B9ULL;
                    x ^= x >> 27;
                    x *= 0x94D049BB133111EBULL;
                    x ^= x >> 31;
                    if (x < threshold || all_pass) {
                        visited[v] = 1;
                        if (pos >= arena_cap)
                            return -1;
                        out_vertices[pos++] = v;
                    }
                }
            }
            level_lo = level_hi;
            level_hi = pos - base;
        }
        /* leave the mask zeroed for the next cascade */
        for (int64_t i = base; i < pos; i++)
            visited[out_vertices[i]] = 0;
        out_sizes[s] = pos - base;
        out_edges[s] = edges;
    }
    return 0;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)

KERNEL = NativeKernel(
    "rrr_sample",
    _SOURCE,
    symbols={
        "rrr_sample": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_I64,  # original_of
                ctypes.c_int64,  # n
                ctypes.POINTER(ctypes.c_uint64),  # edge_key
                ctypes.c_double,  # probability
                _P_I64,  # roots
                _P_I64,  # sample_indices
                ctypes.c_int64,  # num_samples
                ctypes.c_uint64,  # seed
                _P_I64,  # out_vertices
                ctypes.c_int64,  # arena_cap
                _P_I64,  # out_sizes
                _P_I64,  # out_edges
                ctypes.POINTER(ctypes.c_uint8),  # visited
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.apps.influence_max:sample_rrr_ic_pinned",
    vector_twin="repro.apps.batch:sample_rrr_ic_pinned_batch",
)


@guarded(KERNEL)
def run(
    graph,
    probability: float,
    roots: np.ndarray,
    original_of: np.ndarray,
    sample_indices: np.ndarray,
    seed: int,
) -> list[tuple[np.ndarray, int]] | None:
    """All cascades as ``(vertices, edges_examined)`` pairs, or None.

    Returns None when the kernel is unavailable so the caller falls
    through to the batched vector sampler.  Samples are processed in
    bounded-arena chunks of one kernel call each.
    """
    native = KERNEL.lib()
    if native is None:
        return None
    num_samples = int(len(roots))
    if num_samples == 0:
        return []
    n = int(graph.num_vertices)
    if n == 0:
        return None
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(graph.indices, dtype=np.int64)
    original = np.ascontiguousarray(original_of, dtype=np.int64)
    roots_arr = np.ascontiguousarray(roots, dtype=np.int64)
    samples_arr = np.ascontiguousarray(sample_indices, dtype=np.int64)
    chunk_size = max(1, min(num_samples, _ARENA_BUDGET // n))
    visited = np.zeros(n, dtype=np.uint8)
    edge_key = np.empty(indices.size, dtype=np.uint64)
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_u64 = ctypes.POINTER(ctypes.c_uint64)
    results: list[tuple[np.ndarray, int]] = []
    for chunk_lo in range(0, num_samples, chunk_size):
        chunk_hi = min(chunk_lo + chunk_size, num_samples)
        count = chunk_hi - chunk_lo
        arena_cap = count * n
        arena = np.empty(arena_cap, dtype=np.int64)
        sizes = np.zeros(count, dtype=np.int64)
        edges = np.zeros(count, dtype=np.int64)
        rc = native.rrr_sample(
            indptr.ctypes.data_as(p_i64),
            indices.ctypes.data_as(p_i64),
            original.ctypes.data_as(p_i64),
            n,
            edge_key.ctypes.data_as(p_u64),
            float(probability),
            roots_arr[chunk_lo:chunk_hi].ctypes.data_as(p_i64),
            samples_arr[chunk_lo:chunk_hi].ctypes.data_as(p_i64),
            count,
            int(seed) & ((1 << 64) - 1),
            arena.ctypes.data_as(p_i64),
            arena_cap,
            sizes.ctypes.data_as(p_i64),
            edges.ctypes.data_as(p_i64),
            visited.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        )
        if rc != 0:  # pragma: no cover - arena_cap makes this unreachable
            return None
        offset = 0
        for s in range(count):
            size = int(sizes[s])
            results.append(
                (arena[offset : offset + size].copy(), int(edges[s]))
            )
            offset += size
    return results

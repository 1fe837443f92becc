"""Compiled greedy max-coverage: one IMM seed selection per C call.

IMM picks its seeds greedily: repeatedly take the vertex that appears in
the most not-yet-covered RRR sets, mark those sets covered and discount
every member of each newly covered set.  The Python tiers
(:func:`repro.apps.influence_max.greedy_seed_selection` and
:func:`repro.apps.batch.greedy_seed_selection_vector`) spend most of
their time building the vertex → set index with a stable argsort; the
kernel builds it with a counting sort and runs every selection round in
the same call.

Bit-identity argument (against both Python twins):

* **the index** — a counting sort over the flat member array, scattered
  in set order, so each vertex's set ids stay ascending with repeats
  kept: the scalar builder's append order and the vector twin's stable
  argsort.  ``counts[v]`` is that list's length, repeats included;
* **the rounds** — ``min(k, n)`` rounds, each a first-index argmax (a
  strict ``>`` scan, as ``np.argmax``) that stops on a non-positive
  count; each not-yet-covered set of the seed is marked covered and
  every member occurrence decrements its vertex's count and adds one
  operation; the seed's count is then set to ``-1``.  Decrements
  commute, so the visit order of the fresh sets cannot change a count;
* **the fraction** — the kernel returns the covered-set count, and the
  wrapper divides by the set count: a bool ``mean`` is an exact integer
  sum in float64 followed by that one correctly rounded division.

The kernel is serial: each round's argmax reads the counts the previous
round decremented.  It declines, before writing any output, on a member
id outside ``[0, n)``; the caller's vector twin then runs and its
behaviour stands.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

_SOURCE = r"""
#include <stdint.h>

int64_t greedy_cover(const int64_t *members,
                     const int64_t *offsets,    /* num_sets + 1 */
                     int64_t num_sets,
                     int64_t n,
                     int64_t rounds,            /* min(k, n) */
                     int64_t *counts,           /* n, zeroed */
                     int64_t *index_ptr,        /* n + 1 */
                     int64_t *index_sets,       /* offsets[num_sets] */
                     uint8_t *covered,          /* num_sets, zeroed */
                     int64_t *seeds,            /* rounds */
                     int64_t *stats)            /* [covered, operations] */
{
    const int64_t total = offsets[num_sets];
    for (int64_t i = 0; i < total; i++) {
        const int64_t v = members[i];
        if (v < 0 || v >= n)
            return -1;
        counts[v] += 1;
    }
    /* vertex -> sets index: index_ptr[v] starts as v's first slot and
     * walks to its last during the set-order scatter (the stable
     * order), then one shift turns the ends back into starts. */
    int64_t running = 0;
    for (int64_t v = 0; v < n; v++) {
        index_ptr[v] = running;
        running += counts[v];
    }
    for (int64_t s = 0; s < num_sets; s++) {
        for (int64_t i = offsets[s]; i < offsets[s + 1]; i++) {
            const int64_t v = members[i];
            index_sets[index_ptr[v]] = s;
            index_ptr[v] += 1;
        }
    }
    for (int64_t v = n; v > 0; v--)
        index_ptr[v] = index_ptr[v - 1];
    index_ptr[0] = 0;

    int64_t picked = 0;
    int64_t num_covered = 0;
    int64_t operations = total;
    for (int64_t r = 0; r < rounds; r++) {
        int64_t best = 0;
        int64_t best_count = counts[0];
        for (int64_t v = 1; v < n; v++) {
            if (counts[v] > best_count) {
                best = v;
                best_count = counts[v];
            }
        }
        if (best_count <= 0)
            break;
        seeds[r] = best;
        picked = r + 1;
        for (int64_t j = index_ptr[best]; j < index_ptr[best + 1]; j++) {
            const int64_t s = index_sets[j];
            if (covered[s])
                continue;
            covered[s] = 1;
            num_covered += 1;
            for (int64_t i = offsets[s]; i < offsets[s + 1]; i++)
                counts[members[i]] -= 1;
            operations += offsets[s + 1] - offsets[s];
        }
        counts[best] = -1;
    }
    stats[0] = num_covered;
    stats[1] = operations;
    return picked;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "greedy_cover",
    _SOURCE,
    symbols={
        "greedy_cover": (
            [
                _P_I64,  # members
                _P_I64,  # offsets
                ctypes.c_int64,  # num_sets
                ctypes.c_int64,  # n
                ctypes.c_int64,  # rounds
                _P_I64,  # counts
                _P_I64,  # index_ptr
                _P_I64,  # index_sets
                _P_U8,  # covered
                _P_I64,  # seeds
                _P_I64,  # stats
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.apps.influence_max:greedy_seed_selection",
    vector_twin="repro.apps.batch:greedy_seed_selection_vector",
)


@guarded(KERNEL)
def run(
    rrr_sets: list, num_vertices: int, k: int
) -> tuple[list[int], float, int] | None:
    """One greedy selection natively; None when the kernel declines.

    Returns ``(seeds, covered_fraction, operations)``, as both twins do.
    Declines on a negative or non-integer ``num_vertices`` or ``k`` and
    on a member id outside ``[0, num_vertices)``.
    """
    from ..apps.batch import flatten_rrr_sets

    lib = KERNEL.lib()
    if lib is None:
        return None
    if not all(
        isinstance(x, (int, np.integer)) for x in (num_vertices, k)
    ) or num_vertices < 0:
        return None
    n = int(num_vertices)
    rounds = max(0, min(int(k), n))
    members, offsets = flatten_rrr_sets(rrr_sets)
    num_sets = offsets.size - 1
    counts = np.zeros(n, dtype=np.int64)
    index_ptr = np.empty(n + 1, dtype=np.int64)
    index_sets = np.empty(members.size, dtype=np.int64)
    covered = np.zeros(num_sets, dtype=np.uint8)
    seeds = np.empty(rounds, dtype=np.int64)
    stats = np.zeros(2, dtype=np.int64)
    picked = lib.greedy_cover(
        members.ctypes.data_as(_P_I64),
        offsets.ctypes.data_as(_P_I64),
        num_sets,
        n,
        rounds,
        counts.ctypes.data_as(_P_I64),
        index_ptr.ctypes.data_as(_P_I64),
        index_sets.ctypes.data_as(_P_I64),
        covered.ctypes.data_as(_P_U8),
        seeds.ctypes.data_as(_P_I64),
        stats.ctypes.data_as(_P_I64),
    )
    if picked < 0:
        return None
    fraction = int(stats[0]) / num_sets if num_sets else 0.0
    return seeds[:picked].tolist(), fraction, int(stats[1])

"""Compiled region replay: one simulated parallel region per C call.

:class:`repro.simulator.parallel.SimulatedMachine` replays a parallel
region as a sequence of work items, each a cache-line trace plus compute
cycles, issued by one of ``T`` simulated threads over private L1/L2
caches and one shared L3.  The Python fallback replays item by item
(the per-access walk of
:meth:`~repro.simulator.parallel.SimulatedMachine.run_reference`); this
kernel runs the whole region, schedule included, in one serial call.
There is no vector tier: when the kernel declines, replay steps straight
down to the per-access loop.

Bit-identity argument (against the per-access walk):

* **the walk** — every load goes L1 → L2 → L3 with allocate-on-miss at
  each level, exactly :meth:`repro.simulator.hierarchy.MemoryHierarchy.access`
  without the next-line prefetcher (the wrapper declines when it is on);
  each set keeps its tags in LRU → MRU order, a hit moves the tag to
  the MRU slot, a miss evicts slot 0 of a full set — the Python dict's
  pop-and-reinsert order.  Loads never dirty a line, so the kernel
  keeps no dirty bits;
* **the schedule** — with ``owner`` given (static regions) item ``i``
  runs on ``owner[i]`` in the order handed in, which the caller builds
  as :meth:`run_reference`'s round-robin issue order.  With ``owner``
  NULL (dynamic regions) each chunk of ``chunk`` items goes to the
  first thread with the lowest clock (a strict ``<`` scan, as
  ``min(range(T), key=clocks)``), then ``clocks[t] += stall + compute``
  per item;
* **the counters** — the kernel tallies loads per (thread, level); the
  caller forms ``level_cycles`` as ``level_loads * latency`` in int64,
  which is the Python paths' per-load sum exactly.

The cache state is a flat ``ways[sets * assoc]`` plus ``len[sets]`` per
cache, allocated per call and never converted back to dicts: nothing
reads a region's hierarchy after the region.  Python's ``%`` and ``//``
floor while C's truncate toward zero, so the wrapper refuses negative
line numbers rather than index out of bounds.  The kernel is serial:
the thread choice depends on the running clocks and the L3 is shared,
so there is no independent work to shard.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from ..analysis import sanitize
from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

_SOURCE = r"""
#include <stdint.h>

typedef struct {
    int64_t sets;
    int64_t assoc;
    int64_t *ways;  /* sets * assoc tags, LRU first */
    int64_t *len;   /* resident tags per set */
} lru_cache;

/* One load through one cache level; 1 on hit.  A miss installs the
   line, evicting the LRU way of a full set.  ``line`` is >= 0. */
static int cache_access(const lru_cache *c, int64_t line)
{
    const int64_t set = line % c->sets;
    const int64_t tag = line / c->sets;
    int64_t *ways = c->ways + set * c->assoc;
    const int64_t len = c->len[set];
    int64_t j = len - 1;
    while (j >= 0 && ways[j] != tag)
        j--;
    if (j < 0 && len < c->assoc) {
        ways[len] = tag;
        c->len[set] = len + 1;
        return 0;
    }
    /* hit at j, or a miss evicting way 0: shift down, tag to MRU */
    const int64_t from = j < 0 ? 0 : j;
    for (int64_t k = from; k < len - 1; k++)
        ways[k] = ways[k + 1];
    ways[len - 1] = tag;
    return j >= 0;
}

/* Replay one item on thread ``t``: loads lines[lo, hi). */
static void replay_item(const int64_t *lines, int64_t lo, int64_t hi,
                        int64_t compute, int64_t t,
                        const lru_cache *l1, const lru_cache *l2,
                        const lru_cache *l3, const int64_t *latency,
                        int64_t *clocks, int64_t *level_loads)
{
    int64_t stall = 0;
    for (int64_t i = lo; i < hi; i++) {
        const int64_t line = lines[i];
        int64_t level = 3;
        if (cache_access(l1, line))
            level = 0;
        else if (cache_access(l2, line))
            level = 1;
        else if (cache_access(l3, line))
            level = 2;
        level_loads[t * 4 + level]++;
        stall += latency[level];
    }
    clocks[t] += stall + compute;
}

void region_replay(const int64_t *lines,
                   const int64_t *offsets,   /* num_items + 1 */
                   const int64_t *compute,   /* num_items */
                   const int64_t *owner,     /* num_items; NULL = dynamic */
                   int64_t num_items,
                   int64_t num_threads,
                   int64_t chunk,            /* dynamic chunk, >= 1 */
                   const int64_t *geometry,  /* sets, assoc: L1, L2, L3 */
                   const int64_t *latency,   /* L1, L2, L3, DRAM */
                   int64_t *l1_ways,         /* T * sets * assoc */
                   int64_t *l1_len,          /* T * sets, zeroed */
                   int64_t *l2_ways,
                   int64_t *l2_len,
                   int64_t *l3_ways,         /* sets * assoc */
                   int64_t *l3_len,          /* sets, zeroed */
                   int64_t *clocks,          /* T, zeroed */
                   int64_t *level_loads)     /* T * 4, zeroed */
{
    lru_cache l1;
    lru_cache l2;
    lru_cache l3;
    l1.sets = geometry[0];
    l1.assoc = geometry[1];
    l2.sets = geometry[2];
    l2.assoc = geometry[3];
    l3.sets = geometry[4];
    l3.assoc = geometry[5];
    l3.ways = l3_ways;
    l3.len = l3_len;
    int64_t pos = 0;
    while (pos < num_items) {
        int64_t end = pos + 1;
        int64_t t = 0;
        if (owner != 0) {
            t = owner[pos];
        } else {
            /* first thread with the lowest clock */
            for (int64_t u = 1; u < num_threads; u++)
                if (clocks[u] < clocks[t])
                    t = u;
            end = num_items - pos > chunk ? pos + chunk : num_items;
        }
        l1.ways = l1_ways + t * l1.sets * l1.assoc;
        l1.len = l1_len + t * l1.sets;
        l2.ways = l2_ways + t * l2.sets * l2.assoc;
        l2.len = l2_len + t * l2.sets;
        for (int64_t i = pos; i < end; i++)
            replay_item(lines, offsets[i], offsets[i + 1], compute[i], t,
                        &l1, &l2, &l3, latency, clocks, level_loads);
        pos = end;
    }
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)

KERNEL = NativeKernel(
    "region_replay",
    _SOURCE,
    symbols={
        "region_replay": (
            [
                _P_I64,  # lines
                _P_I64,  # offsets
                _P_I64,  # compute
                _P_I64,  # owner (NULL = dynamic schedule)
                ctypes.c_int64,  # num_items
                ctypes.c_int64,  # num_threads
                ctypes.c_int64,  # chunk
                _P_I64,  # geometry
                _P_I64,  # latency
                _P_I64,  # l1_ways
                _P_I64,  # l1_len
                _P_I64,  # l2_ways
                _P_I64,  # l2_len
                _P_I64,  # l3_ways
                _P_I64,  # l3_len
                _P_I64,  # clocks
                _P_I64,  # level_loads
            ],
            None,
        ),
    },
    scalar_twin="repro.simulator.parallel:SimulatedMachine.run_reference",
    vector_twin=None,
)


@guarded(KERNEL)
def run(
    config,
    num_threads: int,
    items: Sequence,
    *,
    owner: np.ndarray | None = None,
    chunk: int = 1,
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Replay one region natively; None when the kernel declines.

    ``config`` is the :class:`~repro.simulator.hierarchy.HierarchyConfig`
    and ``items`` the :class:`~repro.simulator.parallel.WorkItem` list in
    issue order.  ``owner`` (one thread id per item) selects the static
    schedule; without it, chunks of ``chunk`` items are scheduled
    dynamically.  Returns ``(clocks, level_loads, compute)``: busy cycles
    per thread, an int64 ``(T, 4)`` array of loads per (thread, level),
    and the summed compute cycles.  Declines with the next-line
    prefetcher, on negative line numbers and on compute cycles that are
    not int64.
    """
    lib = KERNEL.lib()
    if lib is None or config.prefetch_next_line or num_threads < 1:
        return None
    num_items = len(items)
    compute = np.array([item.compute_cycles for item in items])
    if num_items and not np.can_cast(compute.dtype, np.int64):
        return None  # floats or ints beyond int64 keep the Python arithmetic
    if sanitize.enabled():  # the per-access fallback's line-stream guard
        for item in items:
            sanitize.check_integral(item.lines, where="simulator line stream")
    parts = [np.asarray(item.lines, dtype=np.int64).ravel() for item in items]
    offsets = np.zeros(num_items + 1, dtype=np.int64)
    np.cumsum([part.size for part in parts], out=offsets[1:])
    lines = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    if lines.size and lines.min() < 0:
        return None  # C's % and / truncate; Python's floor
    if owner is not None and (
        owner.size != num_items
        or (num_items and not 0 <= owner.min() <= owner.max() < num_threads)
    ):
        return None
    compute = np.ascontiguousarray(compute, dtype=np.int64)
    geometry = np.array(
        [
            config.l1.num_sets, config.l1.associativity,
            config.l2.num_sets, config.l2.associativity,
            config.l3.num_sets, config.l3.associativity,
        ],
        dtype=np.int64,
    )
    latency = np.array(
        [
            config.latency_l1,
            config.latency_l2,
            config.latency_l3,
            config.latency_dram,
        ],
        dtype=np.int64,
    )
    l1_ways = np.empty(num_threads * config.l1.num_lines, dtype=np.int64)
    l1_len = np.zeros(num_threads * config.l1.num_sets, dtype=np.int64)
    l2_ways = np.empty(num_threads * config.l2.num_lines, dtype=np.int64)
    l2_len = np.zeros(num_threads * config.l2.num_sets, dtype=np.int64)
    l3_ways = np.empty(config.l3.num_lines, dtype=np.int64)
    l3_len = np.zeros(config.l3.num_sets, dtype=np.int64)
    clocks = np.zeros(num_threads, dtype=np.int64)
    level_loads = np.zeros((num_threads, 4), dtype=np.int64)
    if owner is not None:
        owner = np.ascontiguousarray(owner, dtype=np.int64)
    lib.region_replay(
        lines.ctypes.data_as(_P_I64),
        offsets.ctypes.data_as(_P_I64),
        compute.ctypes.data_as(_P_I64),
        None if owner is None else owner.ctypes.data_as(_P_I64),
        num_items,
        num_threads,
        max(1, min(chunk, num_items)),
        geometry.ctypes.data_as(_P_I64),
        latency.ctypes.data_as(_P_I64),
        l1_ways.ctypes.data_as(_P_I64),
        l1_len.ctypes.data_as(_P_I64),
        l2_ways.ctypes.data_as(_P_I64),
        l2_len.ctypes.data_as(_P_I64),
        l3_ways.ctypes.data_as(_P_I64),
        l3_len.ctypes.data_as(_P_I64),
        clocks.ctypes.data_as(_P_I64),
        level_loads.ctypes.data_as(_P_I64),
    )
    return clocks, level_loads, int(compute.sum())

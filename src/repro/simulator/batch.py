"""Reuse-distance replay: a whole cache-capacity sweep from one pass.

LRU stack distances are computed once per trace with a Fenwick tree
(O(N log N)); the hit ratio of *every* fully associative capacity then
falls out of one sorted pass (:func:`lru_stack_distances`,
:func:`hit_ratio_curve`, :func:`miss_ratio_curve`).  This engine is a
fully-associative approximation — it ignores set conflicts and the
multi-level hierarchy — but it prices an entire cache-geometry sweep at
the cost of a single replay, which the ``ext_cache_sweep`` experiment
exploits.

Exact set-associative replay of a parallel region lives in
:class:`repro.simulator.parallel.SimulatedMachine`: the ``region_replay``
kernel, with the per-access loop as ground truth and fallback.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize

__all__ = [
    "lru_stack_distances",
    "hit_ratio_curve",
    "miss_ratio_curve",
]


def _as_line_array(lines) -> np.ndarray:
    """The line stream as a contiguous one-dimensional int64 array."""
    sanitize.check_integral(lines, where="simulator line stream")
    return np.ascontiguousarray(np.asarray(lines, dtype=np.int64).ravel())


def lru_stack_distances(lines) -> np.ndarray:
    """LRU stack distance of every access; ``-1`` for cold misses.

    The stack distance of an access is the number of *distinct* other
    lines touched since the previous access to the same line; a fully
    associative LRU cache of capacity ``C`` lines hits exactly the
    accesses with distance ``< C``.  Computed in one pass with a Fenwick
    tree over last-access positions (O(N log N)), so a single call prices
    every capacity at once.
    """
    lines = _as_line_array(lines)
    n = lines.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    tree = [0] * (n + 1)
    last: dict[int, int] = {}
    marked = 0
    for i, line in enumerate(lines.tolist()):
        prev = last.get(line, -1)
        if prev < 0:
            out[i] = -1
        else:
            # distinct lines since prev = marks at positions > prev
            # (every line keeps one mark, at its most recent position;
            # prev itself holds this line's mark and is excluded)
            k = prev + 1
            below = 0
            while k > 0:
                below += tree[k]
                k -= k & -k
            out[i] = marked - below
            k = prev + 1
            while k <= n:
                tree[k] -= 1
                k += k & -k
            marked -= 1
        k = i + 1
        while k <= n:
            tree[k] += 1
            k += k & -k
        marked += 1
        last[line] = i
    return out


def hit_ratio_curve(
    distances: np.ndarray, capacities_lines
) -> np.ndarray:
    """Fully-associative LRU hit ratio at each capacity (in lines).

    ``distances`` is the output of :func:`lru_stack_distances`; the hit
    count at capacity ``C`` is the number of accesses with a finite stack
    distance ``< C``, read off a single sorted pass for every capacity.
    """
    distances = np.asarray(distances, dtype=np.int64).ravel()
    caps = np.asarray(capacities_lines, dtype=np.int64).ravel()
    if distances.size == 0:
        return np.zeros(caps.size, dtype=np.float64)
    finite = np.sort(distances[distances >= 0])
    hits = np.searchsorted(finite, caps, side="left")
    return hits / float(distances.size)


def miss_ratio_curve(
    distances: np.ndarray, capacities_lines
) -> np.ndarray:
    """Complement of :func:`hit_ratio_curve` (miss-ratio curve, MRC)."""
    return 1.0 - hit_ratio_curve(distances, capacities_lines)

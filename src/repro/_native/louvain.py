"""Compiled Louvain sweep: Grappolo's hot routine in C.

One Louvain iteration (:meth:`repro.community.louvain._LouvainState.sweep`)
visits every vertex in the given order, sums the edge weight from the
vertex to each neighbouring community, and greedily moves the vertex to
the community with the best modularity gain.  Each move changes the
community totals the next vertex reads, so the loop does not vectorise;
the native tier runs one whole sweep in C and updates ``community`` and
``comm_tot`` in place.

Bit-identity argument (against both Python twins):

* **visit order of neighbouring communities** — the twins accumulate
  into a dict seeded with ``{cv: 0.0}``, so iteration follows first
  appearance.  The kernel keeps a dense ``acc[n]`` accumulator, a
  ``seen[n]`` flag array and a ``touched`` list seeded with ``cv``:
  ``touched`` is exactly the dict's insertion order and each ``acc``
  entry is summed left to right from ``0.0``, the dict's summation
  order;
* **gain and tie-break** — the gain is written with the twins'
  operation order, ``(w_vc - comm_tot[c] * kv / (2.0 * m)) - base``,
  with the same ``1e-15`` tolerance and ``c < best_c`` tie-break;
  unweighted graphs use ``w = 1.0``;
* **no floating-point shortcuts** — the kernel is built with the plain
  ``-O3 -fPIC -shared`` flags (no ``-ffast-math``, no ``-march``), and
  none of its expressions has the ``a * b + c`` shape an FMA contraction
  could fuse, so every operation rounds as Python's float does.

The caller owns the index invariants: ``order`` is a permutation of
``range(n)`` (checked by :func:`repro.community.louvain.louvain_one_phase`),
CSR ``indices`` lie in ``[0, n)`` (checked by :class:`~repro.graph.csr.CSRGraph`),
and every community id lies in ``[0, n)`` because ids only ever flow
from the initial ``arange(n)`` labelling.  The scratch arrays are
allocated once per Louvain level and left zeroed after every vertex.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "Scratch", "run"]

_SOURCE = r"""
#include <stdint.h>

void louvain_sweep(const int64_t *indptr,
                   const int64_t *indices,
                   const double *weights,  /* NULL = unweighted */
                   const double *k,
                   const int64_t *order,
                   int64_t n,
                   double m,
                   int64_t *community,     /* n, updated in place */
                   double *comm_tot,       /* n, updated in place */
                   double *acc,            /* n, zeroed; left zeroed */
                   uint8_t *seen,          /* n, zeroed; left zeroed */
                   int64_t *touched,       /* n */
                   int64_t *counts)        /* [moves, comms, edges] */
{
    int64_t moves = 0;
    int64_t comms_scanned = 0;
    int64_t edges_scanned = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i];
        const int64_t cv = community[v];
        const int64_t lo = indptr[v];
        const int64_t hi = indptr[v + 1];
        edges_scanned += hi - lo;
        /* Weight from v to each neighbouring community, cv first. */
        int64_t ntouched = 0;
        seen[cv] = 1;
        touched[ntouched++] = cv;
        for (int64_t e = lo; e < hi; e++) {
            const int64_t cu = community[indices[e]];
            if (!seen[cu]) {
                seen[cu] = 1;
                /* ids in touched are distinct and < n: ntouched <= n */
                touched[ntouched++] = cu;
            }
            acc[cu] += weights != 0 ? weights[e] : 1.0;
        }
        comms_scanned += ntouched;
        /* Remove v from its community. */
        const double kv = k[v];
        comm_tot[cv] -= kv;
        const double base = acc[cv] - comm_tot[cv] * kv / (2.0 * m);
        int64_t best_c = cv;
        double best_gain = 0.0;
        for (int64_t t = 1; t < ntouched; t++) {
            const int64_t c = touched[t];
            const double gain = (acc[c] - comm_tot[c] * kv / (2.0 * m))
                                - base;
            double diff = gain - best_gain;
            if (diff < 0.0)
                diff = -diff;
            if (gain > best_gain + 1e-15 || (diff <= 1e-15 && c < best_c)) {
                best_c = c;
                best_gain = gain;
            }
        }
        for (int64_t t = 0; t < ntouched; t++) {
            acc[touched[t]] = 0.0;
            seen[touched[t]] = 0;
        }
        community[v] = best_c;
        comm_tot[best_c] += kv;
        if (best_c != cv)
            moves++;
    }
    counts[0] = moves;
    counts[1] = comms_scanned;
    counts[2] = edges_scanned;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "louvain_sweep",
    _SOURCE,
    symbols={
        "louvain_sweep": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # weights (NULL = unweighted)
                _P_F64,  # k
                _P_I64,  # order
                ctypes.c_int64,  # n
                ctypes.c_double,  # m
                _P_I64,  # community
                _P_F64,  # comm_tot
                _P_F64,  # acc
                _P_U8,  # seen
                _P_I64,  # touched
                _P_I64,  # counts
            ],
            None,
        ),
    },
    scalar_twin="repro.community.louvain:_LouvainState._sweep_scalar",
    vector_twin="repro.community.louvain:_LouvainState.sweep",
)


class Scratch:
    """Per-level kernel buffers: contiguous CSR views plus work arrays.

    Built once per Louvain level and reused by every sweep on it; the
    kernel leaves ``acc`` and ``seen`` zeroed after each vertex.
    """

    __slots__ = ("indptr", "indices", "weights", "acc", "seen", "touched",
                 "counts")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        n = indptr.size - 1
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = (
            None
            if weights is None
            else np.ascontiguousarray(weights, dtype=np.float64)
        )
        self.acc = np.zeros(n, dtype=np.float64)
        self.seen = np.zeros(n, dtype=np.uint8)
        self.touched = np.empty(n, dtype=np.int64)
        self.counts = np.zeros(3, dtype=np.int64)


@guarded(KERNEL)
def run(
    scratch: Scratch,
    k: np.ndarray,
    order: np.ndarray,
    total: float,
    community: np.ndarray,
    comm_tot: np.ndarray,
) -> tuple[int, int, int] | None:
    """One full sweep natively; None when the kernel is unavailable.

    ``community`` (contiguous int64) and ``comm_tot`` (contiguous
    float64) are updated in place; ``order`` must be a permutation of
    ``range(n)``.  Returns ``(moves, comms_scanned, edges_scanned)``.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = scratch.acc.size
    # written in place, so they cannot be converted: refuse instead
    for array, dtype in ((community, np.int64), (comm_tot, np.float64)):
        if (
            array.dtype != dtype
            or array.size != n
            or not array.flags.c_contiguous
        ):
            return None
    if order.size != n or k.size != n:
        return None
    k = np.ascontiguousarray(k, dtype=np.float64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    weights = (
        None
        if scratch.weights is None
        else scratch.weights.ctypes.data_as(_P_F64)
    )
    lib.louvain_sweep(
        scratch.indptr.ctypes.data_as(_P_I64),
        scratch.indices.ctypes.data_as(_P_I64),
        weights,
        k.ctypes.data_as(_P_F64),
        order.ctypes.data_as(_P_I64),
        n,
        float(total),
        community.ctypes.data_as(_P_I64),
        comm_tot.ctypes.data_as(_P_F64),
        scratch.acc.ctypes.data_as(_P_F64),
        scratch.seen.ctypes.data_as(_P_U8),
        scratch.touched.ctypes.data_as(_P_I64),
        scratch.counts.ctypes.data_as(_P_I64),
    )
    counts = scratch.counts
    return int(counts[0]), int(counts[1]), int(counts[2])

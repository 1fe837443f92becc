"""Compiled multilevel bisection: the whole METIS-style ladder in C.

Nested dissection and METIS spend their time in
:func:`repro.partition.multilevel.bisect`.  Under the native tier one
bisection is one library call (:func:`bisect_ladder`) that runs the
whole ladder of :func:`repro.partition.multilevel._bisect_python`, its
scalar and vector twin:

1. heavy-edge matching per level, visiting vertices in a fresh
   ``rng.permutation(n)`` order (``hem_match``);
2. contraction along the matching (``coarse_map_from_matching`` plus a
   two-pass counting-sort contraction);
3. greedy graph growing on the coarsest graph: four trials from
   ``rng.integers(n)`` seeds, each topped up with ``rng.integers``
   picks when the growth runs out of frontier;
4. FM boundary refinement at the coarsest level and at every level on
   the way back up;
5. the final edge cut.

``hem_match`` and ``coarse_map_from_matching`` stay exported for
:mod:`repro.ordering.multilevel_minla`, which coarsens through
:func:`repro.partition.matching.heavy_edge_matching` and
:func:`repro.partition.matching.matching_to_coarse_map`.

**Driving numpy's generator.**  How many draws a bisection makes
depends on the data, so they cannot be drawn ahead of time.  The kernel
receives the caller's ``bitgen_t*`` (``rng.bit_generator.ctypes
.bit_generator``; the struct is declared inline from numpy's
``random/bitgen.h``) and reimplements on top of its ``next_uint32``
the two ``Generator`` methods the ladder calls:

* ``permutation(n)`` — ``arange(n)`` shuffled by Fisher–Yates from
  ``n - 1`` down to 1 with ``j = random_interval(i)``, numpy's
  mask-rejection draw;
* ``integers(k)`` — Lemire's bounded method with threshold
  ``(UINT32_MAX - (k - 1)) % k``, and no draw at all when ``k == 1``.

Both use the 32-bit paths only, so the wrapper declines graphs with
more than ``2**32`` vertices.  The generator's lock is held for the
whole call.  On the first call per bit-generator type the wrapper
replays a fixed draw script (:data:`_PROBE_SCRIPT`) on two copies of
the caller's generator, natively and through numpy, and compares the
draws and the final states; on a mismatch the kernel is recorded as a
``rng-probe-mismatch`` fault and declines for the rest of the process.

**Bit-identity argument.**  Every floating-point operation runs in the
Python ladder's order (Python ``float`` arithmetic *is* C ``double``
arithmetic, and the plain ``-O3`` build contracts nothing): the FM heap
pops the multiset minimum ``(-gain, v)`` as ``heapq`` does, growth picks
``max(frontier, key=(gain, -x))`` by an ascending strict-greater scan,
and the stall test ``num_coarse >= 0.95 * n``, the heavy-vertex cap
``max(1, sum / 32)``, the balance limits and the strict ``cut <
best_cut`` trial choice are the same expressions.  Contraction produces
what ``contract_by_labels`` + ``GraphBuilder.build(weighted=True)``
does — rows sorted by neighbour id, merged weights, no self-loops — by
a stable counting sort on ``(lo, hi)`` followed by a symmetric fill.
Sums whose order differs from numpy's (pairwise ``sum``, merged coarse
weights) are exact because the kernel **declines** unless every vertex
and edge weight is an integer-valued double and their absolute sums
stay below ``2**53``; every current caller passes integer weights.
"""

from __future__ import annotations

import copy
import ctypes

import numpy as np

from ..resilience import degrade
from .core import NativeKernel, guarded

__all__ = [
    "KERNEL", "bisect_ladder", "engine_label", "hem_match", "coarse_map",
]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h), declared inline so the
   kernel builds with plain cc and no numpy headers. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static uint32_t next_u32(bitgen_t *bg)
{
    return bg->next_uint32(bg->state);
}

/* numpy's random_interval(bg, max) for max < 2**32: smallest covering
   bit mask, rejection on next_uint32. */
static int64_t rng_interval(bitgen_t *bg, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    uint64_t value = next_u32(bg) & mask;
    while (value > max)
        value = next_u32(bg) & mask;
    return (int64_t)value;
}

/* Generator.permutation(n): arange(n), Fisher-Yates from n - 1 down. */
static void rng_permutation(bitgen_t *bg, int64_t n, int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = i;
    for (int64_t i = n - 1; i >= 1; i--) {
        int64_t j = rng_interval(bg, (uint64_t)i);
        int64_t t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
}

/* Generator.integers(k) for 1 <= k <= 2**32 (int64, scalar): Lemire's
   bounded method on next_uint32; no draw when k == 1. */
static int64_t rng_integers(bitgen_t *bg, int64_t k)
{
    uint64_t rng = (uint64_t)(k - 1);
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFULL)
        return (int64_t)next_u32(bg);
    uint32_t rng_excl = (uint32_t)rng + 1U;
    uint64_t m = (uint64_t)next_u32(bg) * rng_excl;
    uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFULL);
    if (leftover < rng_excl) {
        uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next_u32(bg) * rng_excl;
            leftover = (uint32_t)(m & 0xFFFFFFFFULL);
        }
    }
    return (int64_t)(m >> 32);
}

/* Replay a draw script for the first-use probe: ops holds nops
   (kind, size) pairs, kind 0 = permutation(size), 1 = integers(size).
   Writes the draws to out; returns how many, or -1 past cap. */
int64_t rng_script(bitgen_t *bg, const int64_t *ops, int64_t nops,
                   int64_t *out, int64_t cap)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < nops; i++) {
        int64_t kind = ops[2 * i];
        int64_t size = ops[2 * i + 1];
        int64_t need = kind == 0 ? size : 1;
        if (size < 0 || need > cap - pos
            || (kind == 1 && (size < 1 || size > 0x100000000LL)))
            return -1;
        if (kind == 0) {
            rng_permutation(bg, size, out + pos);
            pos += size;
        } else {
            out[pos] = rng_integers(bg, size);
            pos += 1;
        }
    }
    return pos;
}

/* binary min-heap over (-gain, v): pops max gain, ties lowest vertex.
   Entries are (gain, v) pairs; less(a, b) == (-ga, va) < (-gb, vb). */
static int entry_less(double ga, int64_t va, double gb, int64_t vb)
{
    if (ga != gb)
        return ga > gb;
    return va < vb;
}

static void heap_push(double *hg, int64_t *hv, int64_t *size,
                      double g, int64_t v)
{
    int64_t i = (*size)++;
    hg[i] = g;
    hv[i] = v;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!entry_less(hg[i], hv[i], hg[parent], hv[parent]))
            break;
        double tg = hg[parent]; hg[parent] = hg[i]; hg[i] = tg;
        int64_t tv = hv[parent]; hv[parent] = hv[i]; hv[i] = tv;
        i = parent;
    }
}

static void heap_pop(double *hg, int64_t *hv, int64_t *size,
                     double *g_out, int64_t *v_out)
{
    *g_out = hg[0];
    *v_out = hv[0];
    (*size)--;
    double lg = hg[*size];
    int64_t lv = hv[*size];
    int64_t i = 0;
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t smallest = i;
        double cg = lg;
        int64_t cv = lv;
        if (left < *size && entry_less(hg[left], hv[left], cg, cv)) {
            smallest = left;
            cg = hg[left];
            cv = hv[left];
        }
        if (right < *size && entry_less(hg[right], hv[right], cg, cv))
            smallest = right;
        if (smallest == i)
            break;
        hg[i] = hg[smallest];
        hv[i] = hv[smallest];
        i = smallest;
    }
    hg[i] = lg;
    hv[i] = lv;
}

/* One level of the ladder: a weighted CSR graph (w == NULL means unit
   edge weights) plus the map from the next finer level onto it. */
typedef struct {
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    const double *w;
    const double *vw;
    const int64_t *f2c;   /* finer vertex -> this level (NULL: finest) */
    int64_t *iblk;        /* owned storage (NULL: the caller's graph) */
    double *dblk;
} level_t;

static double edge_weight(const level_t *g, int64_t k)
{
    return g->w != NULL ? g->w[k] : 1.0;
}

/* Scratch for every level, sized once for the finest one. */
typedef struct {
    int64_t *perm, *match, *cmap, *cnt;      /* n, n, n, n + 1 */
    int64_t *e_lo, *e_hi, *t_lo, *t_hi;      /* ecap each */
    double *e_w, *t_w;                       /* ecap each */
    int64_t *trial, *remaining;              /* n each */
    int64_t *moves, *heap_v;                 /* n, hcap */
    double *gains, *fgain, *heap_g;          /* n, n, hcap */
    uint8_t *locked, *in_frontier;           /* n each */
    int64_t ecap, hcap;
} scratch_t;

/* Total edge weight crossing the bisection (scalar scan order). */
static double level_cut(const level_t *g, const int64_t *part)
{
    double cut = 0.0;
    for (int64_t u = 0; u < g->n; u++) {
        int64_t pu = part[u];
        for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
            int64_t v = g->indices[k];
            if (v > u && part[v] != pu)
                cut += edge_weight(g, k);
        }
    }
    return cut;
}

static double weight_sum(const double *x, int64_t count)
{
    double total = 0.0;
    for (int64_t i = 0; i < count; i++)
        total += x[i];
    return total;
}

/* One FM pass: mutates part/gains/part_weights; returns 1 when the cut
   improved, 0 otherwise, -1 on heap overflow (cannot happen under the
   n + 2 * nnz bound: each vertex moves at most once per pass). */
static int64_t fm_one_pass(const level_t *g, double *gains, int64_t *part,
                           double *part_weights, const double *limits,
                           int64_t max_negative_moves, double start_cut,
                           scratch_t *s)
{
    int64_t n = g->n;
    int64_t heap_size = 0;
    for (int64_t v = 0; v < n; v++)
        heap_push(s->heap_g, s->heap_v, &heap_size, gains[v], v);

    int64_t num_moves = 0;
    double cut = start_cut;
    double best_cut = start_cut;
    int64_t best_prefix = 0;
    int64_t negatives = 0;

    while (heap_size > 0 && negatives <= max_negative_moves) {
        double gv = 0.0;
        int64_t v = 0;
        heap_pop(s->heap_g, s->heap_v, &heap_size, &gv, &v);
        if (s->locked[v] || gv != gains[v])
            continue; /* stale entry */
        int64_t src = part[v];
        int64_t dst = 1 - src;
        double vw = g->vw[v];
        if (part_weights[dst] + vw > limits[dst])
            continue; /* would unbalance; skip this vertex this pass */
        s->locked[v] = 1;
        part[v] = dst;
        part_weights[src] -= vw;
        part_weights[dst] += vw;
        cut -= gains[v];
        s->moves[num_moves] = v;
        num_moves++;
        if (cut < best_cut - 1e-12) {
            best_cut = cut;
            best_prefix = num_moves;
            negatives = 0;
        } else {
            negatives++;
        }
        for (int64_t k = g->indptr[v]; k < g->indptr[v + 1]; k++) {
            int64_t u = g->indices[k];
            if (s->locked[u])
                continue;
            double w = edge_weight(g, k);
            if (part[u] == dst)
                gains[u] -= 2.0 * w;
            else
                gains[u] += 2.0 * w;
            if (heap_size >= s->hcap)
                return -1;
            heap_push(s->heap_g, s->heap_v, &heap_size, gains[u], u);
        }
    }
    for (int64_t i = best_prefix; i < num_moves; i++)
        part[s->moves[i]] = 1 - part[s->moves[i]];
    return best_cut < start_cut - 1e-12;
}

/* fm_refine: up to 4 passes with a 32-move hill-climbing budget,
   recomputing gains, part weights and the starting cut before each
   pass exactly as the Python driver does.  Returns 0, or -1 on heap
   overflow. */
static int64_t fm_refine_level(const level_t *g, int64_t *part,
                               double target_fraction, double imbalance,
                               scratch_t *s)
{
    int64_t n = g->n;
    double total = weight_sum(g->vw, n);
    double limits[2];
    limits[0] = (1.0 + imbalance) * target_fraction * total;
    limits[1] = (1.0 + imbalance) * (1.0 - target_fraction) * total;
    for (int64_t pass = 0; pass < 4; pass++) {
        for (int64_t u = 0; u < n; u++) {
            int64_t pu = part[u];
            double gain = 0.0;
            for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
                double w = edge_weight(g, k);
                if (part[g->indices[k]] == pu)
                    gain -= w;
                else
                    gain += w;
            }
            s->gains[u] = gain;
        }
        double part_weights[2] = {0.0, 0.0};
        for (int64_t v = 0; v < n; v++)
            part_weights[part[v]] += g->vw[v];
        double cut = level_cut(g, part);
        if (n > 0)  /* tells the compiler the cast below cannot wrap */
            memset(s->locked, 0, (size_t)n);
        int64_t improved = fm_one_pass(g, s->gains, part, part_weights,
                                       limits, 32, cut, s);
        if (improved < 0)
            return -1;
        if (!improved)
            break;
    }
    return 0;
}

/* Greedy region growing from seed: absorb the frontier vertex with the
   best accumulated gain (ties: lowest id) until grown >= target.
   part is all ones on entry.  Returns the grown weight. */
static double grow_from(const level_t *g, int64_t seed, double target,
                        int64_t *part, scratch_t *s)
{
    int64_t n = g->n;
    memset(s->in_frontier, 0, (size_t)n);
    double grown = 0.0;
    int64_t frontier_count = 1;
    s->in_frontier[seed] = 1;
    s->fgain[seed] = 0.0;
    while (frontier_count > 0 && grown < target) {
        int64_t v = -1;
        double best = 0.0;
        for (int64_t x = 0; x < n; x++) {
            if (!s->in_frontier[x])
                continue;
            if (v == -1 || s->fgain[x] > best) {
                v = x;
                best = s->fgain[x];
            }
        }
        s->in_frontier[v] = 0;
        frontier_count--;
        if (part[v] == 0)
            continue; /* parity guard; frontier never holds absorbed */
        part[v] = 0;
        grown += g->vw[v];
        for (int64_t k = g->indptr[v]; k < g->indptr[v + 1]; k++) {
            int64_t u = g->indices[k];
            if (part[u] == 0)
                continue;
            double w = edge_weight(g, k);
            if (s->in_frontier[u]) {
                s->fgain[u] += w;
            } else {
                s->in_frontier[u] = 1;
                s->fgain[u] = w;
                frontier_count++;
            }
        }
    }
    return grown;
}

/* One graph-growing trial (initial._grow_one): random seed, growth,
   the degenerate fixes, then the disconnected top-up that pops
   rng.integers(len(remaining)) picks off the ascending part-1 list. */
static void grow_one(const level_t *g, bitgen_t *bg, double target,
                     int64_t *part, scratch_t *s)
{
    int64_t n = g->n;
    for (int64_t v = 0; v < n; v++)
        part[v] = 1;
    int64_t seed = rng_integers(bg, n);
    double grown = grow_from(g, seed, target, part, s);
    int64_t any_zero = 0;
    for (int64_t v = 0; v < n && !any_zero; v++)
        any_zero = part[v] == 0;
    if (!any_zero)
        part[seed] = 0;
    else if (grown == 0.0)
        part[seed] = 0;
    if (!(grown < target))
        return;
    int64_t count = 0;
    for (int64_t v = 0; v < n; v++) {
        if (part[v] == 1) {
            s->remaining[count] = v;
            count++;
        }
    }
    while (grown < target && count > 1) {
        int64_t idx = rng_integers(bg, count);
        int64_t v = s->remaining[idx];
        memmove(s->remaining + idx, s->remaining + idx + 1,
                (size_t)(count - idx - 1) * sizeof(int64_t));
        count--;
        part[v] = 0;
        grown += g->vw[v];
    }
}

/* initial.greedy_bisection: best of 4 trials under a strict cut < best
   comparison; the winner lands in part. */
static void greedy_bisection(const level_t *g, bitgen_t *bg,
                             double target_fraction, int64_t *part,
                             scratch_t *s)
{
    int64_t n = g->n;
    double target = target_fraction * weight_sum(g->vw, n);
    double best_cut = 0.0;
    int64_t have_best = 0;
    for (int64_t t = 0; t < 4; t++) {
        grow_one(g, bg, target, s->trial, s);
        double cut = level_cut(g, s->trial);
        if (!have_best || cut < best_cut) {
            best_cut = cut;
            have_best = 1;
            memcpy(part, s->trial, (size_t)n * sizeof(int64_t));
        }
    }
}

/* Randomised heavy-edge matching: visit vertices in visit_order, match
   each unmatched vertex with its unmatched neighbour of maximum edge
   weight (ties: lowest id), optionally subject to a combined vertex
   weight cap.  Exact replica of the scalar scan in
   repro.partition.matching.heavy_edge_matching. */
void hem_match(const int64_t *indptr,
               const int64_t *indices,
               const double *edge_w,
               int64_t has_edge_w,
               int64_t n,
               const int64_t *visit_order,
               const double *vertex_weights, /* NULL-able via constrained */
               int64_t constrained,
               double max_vertex_weight,
               int64_t *match)               /* n out */
{
    for (int64_t v = 0; v < n; v++)
        match[v] = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = visit_order[i];
        if (match[u] != -1)
            continue;
        int64_t best = -1;
        double best_w = -1.0;
        for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
            int64_t v = indices[k];
            if (v == u || match[v] != -1)
                continue;
            if (constrained &&
                vertex_weights[u] + vertex_weights[v] > max_vertex_weight)
                continue;
            double w = has_edge_w ? edge_w[k] : 1.0;
            if (w > best_w || (w == best_w && v < best)) {
                best = v;
                best_w = w;
            }
        }
        if (best == -1) {
            match[u] = u;
        } else {
            match[u] = best;
            match[best] = u;
        }
    }
}

/* Matching -> fine-to-coarse map: coarse ids assigned in ascending order
   of the pair's lower fine id (repro.partition.matching.
   matching_to_coarse_map's scalar scan).  Returns the coarse count. */
int64_t coarse_map_from_matching(const int64_t *match,
                                 int64_t n,
                                 int64_t *coarse_of) /* n out */
{
    for (int64_t v = 0; v < n; v++)
        coarse_of[v] = -1;
    int64_t next_id = 0;
    for (int64_t v = 0; v < n; v++) {
        if (coarse_of[v] != -1)
            continue;
        int64_t partner = match[v];
        coarse_of[v] = next_id;
        if (partner != v)
            coarse_of[partner] = next_id;
        next_id++;
    }
    return next_id;
}

/* Stable counting sort of the (key, other, w) triples by key < nkeys. */
static void sort_by_key(const int64_t *key, const int64_t *other,
                        const double *w, int64_t m, int64_t nkeys,
                        int64_t *cnt, int64_t *key_out, int64_t *other_out,
                        double *w_out)
{
    memset(cnt, 0, (size_t)(nkeys + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < m; i++)
        cnt[key[i] + 1]++;
    for (int64_t c = 0; c < nkeys; c++)
        cnt[c + 1] += cnt[c];
    for (int64_t i = 0; i < m; i++) {
        int64_t at = cnt[key[i]];
        cnt[key[i]] = at + 1;
        key_out[at] = key[i];
        other_out[at] = other[i];
        w_out[at] = w[i];
    }
}

/* First half of contract_by_labels: every fine edge u < v whose ends
   land in different coarse vertices, as (lo, hi, w) in scan order,
   sorted stably by (lo, hi) and merged by summing each key's weights
   in scan order from 0.0 (np.unique + np.bincount).  Leaves the unique
   keys in s->e_lo/e_hi/e_w and returns their count, or -1 past the
   scratch capacity. */
static int64_t merged_coarse_edges(const level_t *f, const int64_t *cmap,
                                   int64_t nc, scratch_t *s)
{
    int64_t m = 0;
    for (int64_t u = 0; u < f->n; u++) {
        int64_t cu = cmap[u];
        for (int64_t k = f->indptr[u]; k < f->indptr[u + 1]; k++) {
            int64_t v = f->indices[k];
            if (v <= u || cmap[v] == cu)
                continue;
            if (m >= s->ecap)
                return -1;
            int64_t cv = cmap[v];
            s->t_lo[m] = cu < cv ? cu : cv;
            s->t_hi[m] = cu < cv ? cv : cu;
            s->t_w[m] = edge_weight(f, k);
            m++;
        }
    }
    /* LSD radix: by hi, then stably by lo. */
    sort_by_key(s->t_hi, s->t_lo, s->t_w, m, nc, s->cnt,
                s->e_hi, s->e_lo, s->e_w);
    sort_by_key(s->e_lo, s->e_hi, s->e_w, m, nc, s->cnt,
                s->t_lo, s->t_hi, s->t_w);
    int64_t uniq = 0;
    for (int64_t i = 0; i < m; i++) {
        if (uniq == 0 || s->t_lo[i] != s->e_lo[uniq - 1]
            || s->t_hi[i] != s->e_hi[uniq - 1]) {
            s->e_lo[uniq] = s->t_lo[i];
            s->e_hi[uniq] = s->t_hi[i];
            s->e_w[uniq] = 0.0;
            uniq++;
        }
        s->e_w[uniq - 1] += s->t_w[i];
    }
    return uniq;
}

/* Second half: the coarse level c (storage already in c->iblk and
   c->dblk) from the merged keys.  Keys arrive sorted by (lo, hi), so
   appending hi to row lo and lo to row hi fills every row in ascending
   neighbour order, as GraphBuilder.build does. */
static void fill_coarse_level(const level_t *f, const int64_t *cmap,
                              int64_t nc, int64_t uniq, level_t *c,
                              scratch_t *s)
{
    int64_t *indptr = c->iblk;
    int64_t *indices = indptr + nc + 1;
    int64_t *f2c = indices + 2 * uniq;
    double *w = c->dblk;
    double *vw = w + 2 * uniq;
    memcpy(f2c, cmap, (size_t)f->n * sizeof(int64_t));
    for (int64_t x = 0; x < nc; x++)
        vw[x] = 0.0;
    for (int64_t u = 0; u < f->n; u++)
        vw[cmap[u]] += f->vw[u];
    memset(indptr, 0, (size_t)(nc + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < uniq; i++) {
        indptr[s->e_lo[i] + 1]++;
        indptr[s->e_hi[i] + 1]++;
    }
    for (int64_t x = 0; x < nc; x++)
        indptr[x + 1] += indptr[x];
    int64_t *cursor = s->cnt;
    memcpy(cursor, indptr, (size_t)nc * sizeof(int64_t));
    for (int64_t i = 0; i < uniq; i++) {
        int64_t lo = s->e_lo[i];
        int64_t hi = s->e_hi[i];
        indices[cursor[lo]] = hi;
        w[cursor[lo]] = s->e_w[i];
        cursor[lo]++;
        indices[cursor[hi]] = lo;
        w[cursor[hi]] = s->e_w[i];
        cursor[hi]++;
    }
    c->n = nc;
    c->indptr = indptr;
    c->indices = indices;
    c->w = w;
    c->vw = vw;
    c->f2c = f2c;
}

/* Whether every value is an integer-valued double and the absolute
   values sum below 2**53, so any summation order is exact. */
static int64_t exact_integers(const double *x, int64_t count)
{
    const double limit = 9007199254740992.0; /* 2**53 */
    double total = 0.0;
    for (int64_t i = 0; i < count; i++) {
        double v = x[i];
        if (!(v > -limit && v < limit))
            return 0; /* NaN, infinite or too large */
        if ((double)(int64_t)v != v)
            return 0;
        total += v < 0.0 ? -v : v;
        if (total >= limit)
            return 0;
    }
    return 1;
}

enum { MAX_LEVELS = 512, COARSEST_SIZE = 32 };

/* The whole multilevel bisection of multilevel._bisect_python.
   Returns 0 with part_out / cut_out filled, 1 when the kernel declines
   before touching the generator (n outside [2, 2**32], non-integral or
   too large weights), or -1 when memory ran out (the generator may
   have advanced; the caller restores its state). */
int64_t partition_bisect(const int64_t *indptr,
                         const int64_t *indices,
                         const double *edge_w,       /* NULL: unit */
                         int64_t n,
                         const double *vertex_weights,
                         double target_fraction,
                         double imbalance,
                         bitgen_t *bg,
                         int64_t *part_out,          /* n out */
                         double *cut_out)
{
    if (n < 2 || n > 0xFFFFFFFFLL)
        return 1;
    int64_t nnz = indptr[n];
    if (!exact_integers(vertex_weights, n))
        return 1;
    if (edge_w != NULL && !exact_integers(edge_w, nnz))
        return 1;

    scratch_t s;
    s.ecap = nnz + 1;
    s.hcap = n + 2 * nnz + 1;
    /* int64: perm, match, cmap, trial, remaining, moves, part_a, part_b
       (n each), cnt (n + 1), e_lo, e_hi, t_lo, t_hi (ecap each), heap_v
       (hcap); double: gains, fgain (n each), e_w, t_w (ecap each),
       heap_g (hcap); bytes: locked, in_frontier (n each). */
    int64_t icount = 9 * n + 1 + 4 * s.ecap + s.hcap;
    int64_t dcount = 2 * n + 2 * s.ecap + s.hcap;
    int64_t *iscr = malloc((size_t)icount * sizeof(int64_t));
    double *dscr = malloc((size_t)dcount * sizeof(double));
    uint8_t *bscr = malloc((size_t)(2 * n));
    level_t *lv = malloc(MAX_LEVELS * sizeof(level_t));
    if (!iscr || !dscr || !bscr || !lv) {
        free(iscr);
        free(dscr);
        free(bscr);
        free(lv);
        return -1;
    }
    s.perm = iscr;
    s.match = s.perm + n;
    s.cmap = s.match + n;
    s.trial = s.cmap + n;
    s.remaining = s.trial + n;
    s.moves = s.remaining + n;
    int64_t *part_a = s.moves + n;
    int64_t *part_b = part_a + n;
    s.cnt = part_b + n;                 /* n + 1 */
    s.e_lo = s.cnt + n + 1;
    s.e_hi = s.e_lo + s.ecap;
    s.t_lo = s.e_hi + s.ecap;
    s.t_hi = s.t_lo + s.ecap;
    s.heap_v = s.t_hi + s.ecap;         /* hcap */
    s.gains = dscr;
    s.fgain = s.gains + n;
    s.e_w = s.fgain + n;
    s.t_w = s.e_w + s.ecap;
    s.heap_g = s.t_w + s.ecap;          /* hcap */
    s.locked = bscr;
    s.in_frontier = bscr + n;

    int64_t status = 0;
    int64_t nlev = 1;
    lv[0].n = n;
    lv[0].indptr = indptr;
    lv[0].indices = indices;
    lv[0].w = edge_w;
    lv[0].vw = vertex_weights;
    lv[0].f2c = NULL;
    lv[0].iblk = NULL;
    lv[0].dblk = NULL;

    /* 1-2. Coarsen until small or stalled. */
    double max_vw = weight_sum(vertex_weights, n) / COARSEST_SIZE;
    if (!(max_vw > 1.0))
        max_vw = 1.0;
    while (lv[nlev - 1].n > COARSEST_SIZE) {
        level_t *f = &lv[nlev - 1];
        rng_permutation(bg, f->n, s.perm);
        hem_match(f->indptr, f->indices, f->w, f->w != NULL, f->n,
                  s.perm, f->vw, 1, max_vw, s.match);
        int64_t nc = coarse_map_from_matching(s.match, f->n, s.cmap);
        if ((double)nc >= (double)f->n * 0.95)
            break; /* matching stalled */
        int64_t uniq = merged_coarse_edges(f, s.cmap, nc, &s);
        if (uniq < 0 || nlev >= MAX_LEVELS) {
            status = -1;
            break;
        }
        level_t *c = &lv[nlev];
        /* level storage: freed by the cleanup loop at the end */
        size_t ibytes = (size_t)(nc + 1 + 2 * uniq + f->n) * sizeof(int64_t);
        size_t dbytes = (size_t)(2 * uniq + nc) * sizeof(double);
        c->iblk = malloc(ibytes); /* clint: disable=c-malloc-leak */
        c->dblk = malloc(dbytes); /* clint: disable=c-malloc-leak */
        nlev++;
        if (c->iblk == NULL || c->dblk == NULL) {
            status = -1;
            break;
        }
        fill_coarse_level(f, s.cmap, nc, uniq, c, &s);
    }

    if (status == 0) {
        /* 3-4. Grow on the coarsest level, refine there and at every
           level on the way back up. */
        int64_t *part = part_a;
        greedy_bisection(&lv[nlev - 1], bg, target_fraction, part, &s);
        status = fm_refine_level(&lv[nlev - 1], part, target_fraction,
                                 imbalance, &s);
        for (int64_t l = nlev - 1; l >= 1 && status == 0; l--) {
            const level_t *fine = &lv[l - 1];
            int64_t *next = part == part_a ? part_b : part_a;
            for (int64_t u = 0; u < fine->n; u++)
                next[u] = part[lv[l].f2c[u]];
            part = next;
            status = fm_refine_level(fine, part, target_fraction,
                                     imbalance, &s);
        }
        /* 5. The final cut. */
        if (status == 0) {
            memcpy(part_out, part, (size_t)n * sizeof(int64_t));
            *cut_out = level_cut(&lv[0], part);
        }
    }

    for (int64_t l = 1; l < nlev; l++) {
        free(lv[l].iblk);
        free(lv[l].dblk);
    }
    free(lv);
    free(iscr);
    free(dscr);
    free(bscr);
    return status;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)

KERNEL = NativeKernel(
    "partition_fm",
    _SOURCE,
    symbols={
        "partition_bisect": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # edge_w (NULL = unit weights)
                ctypes.c_int64,  # n
                _P_F64,  # vertex_weights
                ctypes.c_double,  # target_fraction
                ctypes.c_double,  # imbalance
                ctypes.c_void_p,  # bitgen_t *
                _P_I64,  # part_out
                _P_F64,  # cut_out
            ],
            ctypes.c_int64,
        ),
        "rng_script": (
            [
                ctypes.c_void_p,  # bitgen_t *
                _P_I64,  # ops
                ctypes.c_int64,  # nops
                _P_I64,  # out
                ctypes.c_int64,  # cap
            ],
            ctypes.c_int64,
        ),
        "hem_match": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # edge_w
                ctypes.c_int64,  # has_edge_w
                ctypes.c_int64,  # n
                _P_I64,  # visit_order
                _P_F64,  # vertex_weights
                ctypes.c_int64,  # constrained
                ctypes.c_double,  # max_vertex_weight
                _P_I64,  # match
            ],
            None,
        ),
        "coarse_map_from_matching": (
            [
                _P_I64,  # match
                ctypes.c_int64,  # n
                _P_I64,  # coarse_of
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.partition.multilevel:_bisect_python",
    vector_twin="repro.partition.multilevel:_bisect_python",
)


def _f64(array: np.ndarray):
    return array.ctypes.data_as(_P_F64)


def _i64(array: np.ndarray):
    return array.ctypes.data_as(_P_I64)


_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: the first-use probe's draw script, ``(kind, size)`` rows: kind 0 is
#: ``permutation(size)``, kind 1 is ``integers(size)``.  It covers the
#: no-draw sizes, the ladder's typical sizes, Lemire's rejection branch
#: (bounds just above a power of two and near ``2**32``) and the plain
#: ``next_uint32`` path of ``integers(2**32)``.
_PROBE_SCRIPT = np.array(
    [
        (0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (1, 3), (0, 33),
        (1, 17), (1, 33), (0, 257), (1, 1000), (1, 2**31 + 1),
        (1, 3 * 2**30), (1, 2**32 - 1), (1, 2**32), (0, 4099),
        (1, 5000), (1, 2), (0, 3), (1, 7), (1, 2**16 + 1),
    ],
    dtype=np.int64,
)

#: probe verdict per bit-generator type (True: the kernel may drive it).
_PROBE_VERDICT: dict[type, bool] = {}


def _numpy_draws(rng: np.random.Generator, script: np.ndarray) -> np.ndarray:
    """The probe script's draws, made by numpy's own ``Generator``."""
    out = []
    for kind, size in script.tolist():
        if kind == 0:
            out.append(rng.permutation(size))
        else:
            out.append(np.array([rng.integers(size)], dtype=np.int64))
    return np.concatenate(out).astype(np.int64)


def _native_draws(
    lib, rng: np.random.Generator, script: np.ndarray, cap: int
) -> np.ndarray | None:
    """The probe script's draws, made by the kernel's replicas."""
    out = np.empty(cap, dtype=np.int64)
    bit_gen = rng.bit_generator
    with bit_gen.lock:
        count = lib.rng_script(
            bit_gen.ctypes.bit_generator,
            _i64(np.ascontiguousarray(script)),
            script.shape[0],
            _i64(out),
            cap,
        )
    return out[:count] if count >= 0 else None


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` values (nested dicts)."""
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_same_state(a[key], b[key]) for key in a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return bool(a == b)


def _probe(lib, rng: np.random.Generator) -> bool:
    """Whether the kernel reproduces ``rng``'s bit generator exactly.

    Decided once per bit-generator type, on two copies of ``rng`` so
    the caller's stream is untouched.  A mismatch opens the kernel's
    breaker with a ``rng-probe-mismatch`` fault (counted in the health
    report; raised under ``REPRO_DEGRADE=strict``).
    """
    kind = type(rng.bit_generator)
    verdict = _PROBE_VERDICT.get(kind)
    if verdict is not None:
        return verdict
    native, reference = copy.deepcopy(rng), copy.deepcopy(rng)
    expected = _numpy_draws(reference, _PROBE_SCRIPT)
    got = _native_draws(lib, native, _PROBE_SCRIPT, expected.size)
    verdict = (
        got is not None
        and np.array_equal(got, expected)
        and _same_state(
            native.bit_generator.state, reference.bit_generator.state
        )
    )
    _PROBE_VERDICT[kind] = verdict
    if not verdict:
        degrade.record_kernel_fault(
            KERNEL,
            RuntimeError(
                f"{kind.__name__} draws differ from numpy's Generator"
            ),
            kind="rng-probe-mismatch",
        )
    return verdict


def engine_label(engine: str) -> str:
    """The tier an ordering built on :func:`bisect_ladder` reports.

    ``"native"`` degrades to ``"vector"`` when the kernel is unavailable,
    its breaker is open, or a probe mismatch made it decline.
    """
    if engine == "native" and (
        KERNEL.usable() is None or False in _PROBE_VERDICT.values()
    ):
        return "vector"  # the Python ladder ran
    return engine


@guarded(KERNEL)
def bisect_ladder(
    graph,
    vertex_weights: np.ndarray,
    target_fraction: float,
    imbalance: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float] | None:
    """One whole multilevel bisection natively; None when declined.

    ``graph`` is the :class:`~repro.graph.csr.CSRGraph` to bisect (at
    least two vertices) and ``vertex_weights`` its validated float64
    weights.  Draws from ``rng`` exactly as
    :func:`repro.partition.multilevel._bisect_python` does and returns
    ``(assignment, cut)``.  Declines (before any draw) on a failed
    probe, on more than ``2**32`` vertices and on weights that are not
    exact integers.
    """
    lib = KERNEL.lib()
    if lib is None or not _probe(lib, rng):
        return None
    n = graph.num_vertices
    indptr = np.ascontiguousarray(graph.indptr)
    indices = np.ascontiguousarray(graph.indices)
    edge_w = graph.weights
    if edge_w is not None:
        edge_w = np.ascontiguousarray(edge_w)
    vertex_weights = np.ascontiguousarray(vertex_weights, dtype=np.float64)
    part = np.empty(n, dtype=np.int64)
    cut = np.zeros(1, dtype=np.float64)
    bit_gen = rng.bit_generator
    with bit_gen.lock:
        saved = bit_gen.state
        status = lib.partition_bisect(
            _i64(indptr),
            _i64(indices),
            None if edge_w is None else _f64(edge_w),
            n,
            _f64(vertex_weights),
            float(target_fraction),
            float(imbalance),
            bit_gen.ctypes.bit_generator,
            _i64(part),
            _f64(cut),
        )
        if status < 0:
            bit_gen.state = saved  # the Python ladder redraws from here
    if status < 0:
        raise MemoryError("partition_bisect ran out of memory")
    if status > 0:
        return None
    return part, float(cut[0])


@guarded(KERNEL)
def hem_match(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_w: np.ndarray | None,
    visit_order: np.ndarray,
    vertex_weights: np.ndarray | None,
    max_vertex_weight: float | None,
) -> np.ndarray | None:
    """Native heavy-edge matching; None when unavailable.

    Returns the ``match`` array (``match[v]`` = partner, or ``v`` when
    unmatched), identical to the scalar scan in
    :func:`repro.partition.matching.heavy_edge_matching`.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = visit_order.size
    match = np.empty(n, dtype=np.int64)
    constrained = vertex_weights is not None and max_vertex_weight is not None
    has_w = edge_w is not None
    lib.hem_match(
        _i64(indptr),
        _i64(indices),
        _f64(edge_w if has_w else _EMPTY_F64),
        int(has_w),
        n,
        _i64(visit_order),
        _f64(
            np.ascontiguousarray(vertex_weights, dtype=np.float64)
            if constrained
            else _EMPTY_F64
        ),
        int(constrained),
        float(max_vertex_weight) if constrained else 0.0,
        _i64(match),
    )
    return match


@guarded(KERNEL)
def coarse_map(match: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Native matching-to-coarse-map; None when unavailable."""
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = match.size
    coarse_of = np.empty(n, dtype=np.int64)
    num_coarse = lib.coarse_map_from_matching(_i64(match), n, _i64(coarse_of))
    return coarse_of, int(num_coarse)

"""Lazily compiled C kernels for hot loops that resist vectorisation.

Every kernel follows the tiered engine contract (:mod:`repro.engine`):
the scalar Python loop is ground truth, the numpy engine (where one
exists) is the tested middle tier, and the native kernel — when a C
compiler is available and ``REPRO_NO_NATIVE`` is unset — is a
bit-identical escalation.  Kernels declare their scalar twin and their
vector twin, or ``None`` when the fallback steps straight to the scalar
loop (verified statically by :mod:`repro.analysis.contracts`), and
report their build status through :func:`build_info_all`.

Thread-parallel kernels (``threaded=True``) additionally declare a
``serial_twin`` and obey the hard contract that results are
bit-identical for every ``REPRO_NATIVE_THREADS`` value
(:func:`native_threads`).

Kernels:

* ``gorder_greedy`` — the whole Gorder sliding-window greedy
  (:mod:`.gorder`);
* ``partition_fm`` — one whole multilevel bisection (matching,
  contraction, growing, FM refinement) for nested dissection / METIS,
  drawing from the caller's numpy generator (:mod:`.fm`);
* ``delta_scan`` — delta-stepping bucket relaxation, threaded over each
  scan's edge list with an ordered merge (:mod:`.delta`);
* ``rrr_sample`` — hash-pinned IC reverse-BFS cascades, threaded over
  independent sample indices (:mod:`.rrr`);
* ``counting_sort`` — BOBA-style stable counting sort behind the
  degree-driven lightweight orderings (:mod:`.counting`);
* ``parse_edges`` — sharded two-pass edge-list byte parser behind
  :func:`repro.graph.io.read_edge_list` (:mod:`.parse`);
* ``louvain_sweep`` — one full greedy Louvain sweep, Grappolo's hot
  routine, behind :mod:`repro.community.louvain` (:mod:`.louvain`);
* ``region_replay`` — one whole simulated parallel region, schedule and
  per-access L1 → L2 → L3 walk, behind
  :class:`repro.simulator.parallel.SimulatedMachine` (:mod:`.replay`);
* ``greedy_cover`` — one whole greedy max-coverage IMM seed selection,
  vertex → RRR-set index included, behind
  :func:`repro.apps.influence_max.greedy_seed_selection` (:mod:`.greedy`).
"""

from __future__ import annotations

from .core import (
    MAX_THREADS,
    SANITIZE_PROFILES,
    NativeBuildError,
    NativeKernel,
    build_info_all,
    cache_dir,
    collect_sanitizer_reports,
    get_kernel,
    kernel_names,
    native_threads,
    sanitize_profile,
    set_thread_cap,
    use_native_threads,
)
from . import (  # noqa: F401  (register)
    counting, delta, fm, gorder, greedy, louvain, parse, replay, rrr,
)

__all__ = [
    "NativeKernel",
    "NativeBuildError",
    "build_info_all",
    "cache_dir",
    "collect_sanitizer_reports",
    "get_kernel",
    "kernel_names",
    "native_threads",
    "sanitize_profile",
    "set_thread_cap",
    "use_native_threads",
    "SANITIZE_PROFILES",
    "MAX_THREADS",
    "counting",
    "delta",
    "fm",
    "gorder",
    "greedy",
    "louvain",
    "parse",
    "replay",
    "rrr",
]

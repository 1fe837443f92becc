"""Extension experiments: kernels, packing factor, hybrid engine, MinLA.

These go beyond the paper's own artifact list along three axes it
explicitly gestures at:

* ``kernel_study`` — the "standard suite of prototypical graph
  operations" of the prior ordering studies the paper cites (PageRank,
  SSSP, BFS), run across orderings on the simulator;
* ``packing_factor_table`` — Balaji & Lucia's amenability criterion
  (Section III-B's "Packing Factor" remark): which inputs stand to gain
  from lightweight reordering at all;
* ``hybrid_engine_sweep`` — the Section VII future-work item: a
  multiscale hybrid ordering engine, swept over (across, within) scheme
  pairs;
* ``minla_refinement`` — how much simulated annealing on the raw MinLA
  objective improves over its community-ordering starting point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..apps.community_detection import run_community_detection
from ..apps.kernels import _sweep_items, run_kernel_study
from ..datasets.registry import load
from ..measures.gaps import average_gap
from ..measures.locality import locality_profile, packing_factor
from ..ordering import HybridOrder, MinLAAnneal, MultilevelMinLA
from ..simulator import hit_ratio_curve, lru_stack_distances
from .experiments import ExperimentResult, _threads_for
from .report import format_table
from .runners import ordering_for, relabelled_graph

__all__ = [
    "kernel_study",
    "cache_capacity_sweep",
    "packing_factor_table",
    "hybrid_engine_sweep",
    "minla_refinement",
    "gap_runtime_correlation",
    "ordering_effect_scaling",
    "EXTENSIONS",
]


def kernel_study(
    datasets: Sequence[str] = ("livejournal", "ca_roadnet", "youtube"),
    schemes: Sequence[str] = ("grappolo", "rcm", "natural", "degree_sort"),
    kernels: Sequence[str] = ("pagerank", "bfs", "sssp"),
) -> ExperimentResult:
    """Prototypical-kernel counters across orderings (prior-work axis)."""
    headers = ["graph", "scheme", "kernel", "ms", "work%", "latency",
               "dram%"]
    rows: list[list[object]] = []
    data: dict[str, dict[str, dict[str, object]]] = {}
    for ds in datasets:
        graph = load(ds)
        threads = _threads_for(ds)
        data[ds] = {}
        for scheme in schemes:
            ordering = ordering_for(scheme, ds)
            reports = run_kernel_study(
                graph, ordering, kernels, num_threads=threads
            )
            data[ds][scheme] = reports
            for name, report in reports.items():
                rows.append([
                    ds, scheme, name,
                    round(report.seconds * 1e3, 3),
                    round(report.work_fraction * 100, 1),
                    round(report.counters.average_latency, 1),
                    round(report.counters.dram_bound * 100, 1),
                ])
    text = format_table(
        headers, rows, title="Prototypical kernels across orderings"
    )
    return ExperimentResult(
        "ext_kernels", "Prototypical kernel study", text, data
    )


def packing_factor_table(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] = (
        "natural", "degree_sort", "dbg", "hub_cluster", "grappolo",
    ),
) -> ExperimentResult:
    """Packing factor per (input, scheme): the amenability criterion."""
    from ..datasets.registry import small_set

    names = list(datasets) if datasets is not None else list(small_set())
    headers = ["input"] + [str(s) for s in schemes]
    rows: list[list[object]] = []
    data: dict[str, dict[str, float]] = {}
    for ds in names:
        graph = load(ds)
        data[ds] = {}
        row: list[object] = [ds]
        for scheme in schemes:
            ordering = ordering_for(scheme, ds)
            pf = packing_factor(graph, ordering.permutation)
            data[ds][scheme] = pf
            row.append(round(pf, 2))
        rows.append(row)
    text = format_table(
        headers, rows,
        title="Packing factor by ordering (1.0 = perfectly line-packed)",
    )
    return ExperimentResult(
        "ext_packing", "Packing-factor amenability table", text, data
    )


def hybrid_engine_sweep(
    datasets: Sequence[str] = ("hamster_small", "pgp", "us_power_grid"),
    pairs: Sequence[tuple[str, str]] = (
        ("natural", "natural"),
        ("rcm", "natural"),
        ("rcm", "rcm"),
        ("rcm", "gorder"),
        ("gorder", "rcm"),
    ),
) -> ExperimentResult:
    """The multiscale hybrid engine over (across, within) scheme pairs."""
    headers = ["input", "across", "within", "avg_gap", "vs_grappolo_rcm"]
    rows: list[list[object]] = []
    data: dict[str, dict[str, float]] = {}
    for ds in datasets:
        graph = load(ds)
        reference = average_gap(
            graph, ordering_for("grappolo_rcm", ds).permutation
        )
        data[ds] = {"grappolo_rcm": reference}
        for across, within in pairs:
            scheme = HybridOrder(across=across, within=within)
            ordering = scheme.order(graph)
            gap = average_gap(graph, ordering.permutation)
            key = f"{across}+{within}"
            data[ds][key] = gap
            rows.append([
                ds, across, within, round(gap, 2),
                f"{gap / max(reference, 1e-9):.2f}x",
            ])
    text = format_table(
        headers, rows,
        title="Hybrid multiscale engine sweep (Section VII future work)",
    )
    return ExperimentResult(
        "ext_hybrid", "Hybrid ordering engine sweep", text, data
    )


def minla_refinement(
    datasets: Sequence[str] = ("chicago_road", "euroroad",
                               "hamster_small"),
) -> ExperimentResult:
    """MinLA heuristics versus the community-ordering baseline."""
    headers = [
        "input", "start_gap", "annealed_gap", "multilevel_gap",
        "anneal_impr", "multilevel_impr",
    ]
    rows: list[list[object]] = []
    data: dict[str, dict[str, float]] = {}
    for ds in datasets:
        graph = load(ds)
        start = average_gap(
            graph, ordering_for("grappolo", ds).permutation
        )
        scheme = MinLAAnneal(moves_per_vertex=30, seed=1)
        annealed = average_gap(graph, scheme.order(graph).permutation)
        multilevel = average_gap(
            graph, MultilevelMinLA(seed=1).order(graph).permutation
        )
        data[ds] = {
            "start": start,
            "annealed": annealed,
            "multilevel": multilevel,
        }
        rows.append([
            ds, round(start, 2), round(annealed, 2),
            round(multilevel, 2),
            f"{(1 - annealed / max(start, 1e-9)) * 100:.1f}%",
            f"{(1 - multilevel / max(start, 1e-9)) * 100:.1f}%",
        ])
    text = format_table(
        headers, rows,
        title="MinLA heuristics vs the Grappolo starting point",
    )
    return ExperimentResult(
        "ext_minla", "MinLA annealing refinement", text, data
    )


def gap_runtime_correlation(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] = (
        "grappolo", "grappolo_rcm", "rcm", "natural",
        "degree_sort", "rabbit", "metis", "random",
    ),
) -> ExperimentResult:
    """Correlate gap statistics with simulated iteration time (§VI).

    For each large input, runs community detection under eight orderings
    and reports the Spearman rank correlation of each gap measure against
    the simulated time-per-iteration and the average load latency —
    quantifying the paper's "correlations to gap statistics" analysis.
    """
    from ..datasets.registry import large_set
    from ..measures.correlation import correlate_metrics
    from ..measures.gaps import gap_measures
    from .experiments import _threads_for

    names = (
        list(datasets) if datasets is not None else list(large_set())[:5]
    )
    headers = [
        "graph", "predictor", "rho(iter_time)", "rho(latency)",
    ]
    rows: list[list[object]] = []
    data: dict[str, dict[str, dict[str, float]]] = {}
    for ds in names:
        graph = load(ds)
        threads = _threads_for(ds)
        iter_time: dict[str, float] = {}
        latency: dict[str, float] = {}
        gap_stats: dict[str, dict[str, float]] = {}
        for scheme in schemes:
            ordering = ordering_for(scheme, ds)
            report = run_community_detection(
                graph, ordering, num_threads=threads
            )
            iter_time[scheme] = report.iteration_seconds
            latency[scheme] = report.counters.average_latency
            gap_stats[scheme] = gap_measures(
                graph, ordering.permutation
            ).as_dict()
        data[ds] = {}
        for measure in ("avg_gap", "bandwidth", "avg_bandwidth",
                        "log_gap"):
            predictor = {
                s: gap_stats[s][measure] for s in schemes
            }
            rho_time = correlate_metrics(
                predictor, iter_time,
                predictor_name=measure, response_name="iter_time",
            ).spearman
            rho_lat = correlate_metrics(
                predictor, latency,
                predictor_name=measure, response_name="latency",
            ).spearman
            data[ds][measure] = {
                "iter_time": rho_time, "latency": rho_lat,
            }
            rows.append([
                ds, measure, round(rho_time, 2), round(rho_lat, 2),
            ])
    text = format_table(
        headers, rows,
        title="Spearman correlation: gap measures vs simulated runtime",
    )
    return ExperimentResult(
        "ext_correlation",
        "Gap-statistic/runtime correlation",
        text,
        data,
    )


def cache_capacity_sweep(
    datasets: Sequence[str] = ("livemocha", "youtube"),
    schemes: Sequence[str] = (
        "grappolo", "rcm", "natural", "degree_sort"
    ),
    capacities_kb: Sequence[int] = (4, 16, 64, 256, 1024),
) -> ExperimentResult:
    """Hit ratio at every cache capacity from one reuse-distance pass.

    The reuse-distance engine's stack-distance pass prices a whole
    cache-geometry axis with a single sweep over the kernel trace: a
    fully associative LRU cache of ``C`` lines hits exactly the accesses
    whose stack distance is below ``C``, so one pass yields the hit
    ratio at *every* capacity — what per-geometry replay would need
    ``len(capacities)`` full simulations to produce.  The table shows
    how much cache each ordering needs before the trace starts hitting,
    the continuous version of the paper's cache-geometry ablation.
    """
    line_bytes = 64
    caps_lines = [kb * 1024 // line_bytes for kb in capacities_kb]
    headers = ["graph", "scheme"] + [f"{kb}KB" for kb in capacities_kb]
    rows: list[list[object]] = []
    data: dict[str, dict[str, dict[str, float]]] = {}
    for ds in datasets:
        data[ds] = {}
        for scheme in schemes:
            items = _sweep_items(relabelled_graph(scheme, ds))
            trace = np.concatenate(
                [np.asarray(item.lines, np.int64) for item in items]
            )
            ratios = hit_ratio_curve(
                lru_stack_distances(trace), caps_lines
            )
            data[ds][scheme] = {
                f"{kb}KB": float(r)
                for kb, r in zip(capacities_kb, ratios)
            }
            rows.append(
                [ds, scheme] + [round(float(r), 4) for r in ratios]
            )
    text = format_table(
        headers, rows,
        title="Fully-associative LRU hit ratio vs cache capacity",
    )
    return ExperimentResult(
        "ext_cache_sweep",
        "Cache-capacity sweep via reuse distances",
        text,
        data,
    )


from .scaling import ordering_effect_scaling  # noqa: E402

#: registry for the CLI.
EXTENSIONS = {
    "ext_kernels": kernel_study,
    "ext_cache_sweep": cache_capacity_sweep,
    "ext_packing": packing_factor_table,
    "ext_hybrid": hybrid_engine_sweep,
    "ext_minla": minla_refinement,
    "ext_correlation": gap_runtime_correlation,
    "ext_scaling": ordering_effect_scaling,
}

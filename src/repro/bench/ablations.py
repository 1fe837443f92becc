"""Ablation experiments beyond the paper's figures (DESIGN.md Section 5).

These probe the design choices the paper leaves implicit:

* ``gorder_window_sweep`` — Gorder's window width ``w`` (the paper fixes
  ``w = 5``);
* ``hub_cutoff_sweep`` — the hub-degree cutoff of Hub Sort / Hub
  Clustering (Balaji & Lucia's packing-factor criterion);
* ``metis_part_order`` — shuffled vs hierarchical part sequencing in the
  METIS ordering (the mechanism behind Figure 7's interior optimum);
* ``cache_geometry_sweep`` — sensitivity of the community-detection
  counters to L3 capacity (the paper's cache-hierarchy motivation);
* ``minloga_profile`` — the MinLogA (log-gap) objective from Section
  III-A, the graph-compression view of ordering quality;
* ``community_order_composition`` — Grappolo vs Grappolo-RCM vs
  Grappolo with *random* community order, isolating the value of the
  coarse-level RCM pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..apps.community_detection import run_community_detection
from ..datasets.registry import load, small_set
from ..graph.permute import ordering_from_sequence
from ..measures.gaps import average_gap, log_gap_cost
from ..measures.profiles import performance_profile, profile_dominance_score
from ..ordering import PAPER_SCHEMES, GorderOrder, HubSort, MetisOrder
from ..ordering.base import Ordering
from ..simulator.cache import CacheConfig
from ..simulator.hierarchy import HierarchyConfig
from .experiments import ExperimentResult
from .report import format_profile, format_table
from .runners import collect_scores, ordering_for, stored_ordering

__all__ = [
    "gorder_window_sweep",
    "hub_cutoff_sweep",
    "metis_part_order",
    "cache_geometry_sweep",
    "minloga_profile",
    "community_order_composition",
    "prefetcher_ablation",
    "write_traffic_ablation",
    "ABLATIONS",
]

#: clustered inputs where window/community choices matter.
ABLATION_DATASETS = (
    "chicago_road", "hamster_small", "delaunay_n11", "figeys", "vsp",
)


def gorder_window_sweep(
    windows: Sequence[int] = (1, 2, 5, 10, 20),
    datasets: Sequence[str] = ABLATION_DATASETS,
) -> ExperimentResult:
    """Gorder window-width sweep on the average gap."""
    scores: dict[str, dict[str, float]] = {}
    for w in windows:
        key = f"gorder_w{w}"
        scores[key] = {}
        for ds in datasets:
            graph = load(ds)
            ordering = GorderOrder(window=w).order(graph)
            scores[key][ds] = max(
                average_gap(graph, ordering.permutation), 1e-9
            )
    profile = performance_profile(scores)
    auc = profile_dominance_score(profile)
    text = format_profile(
        profile, title="Gorder window sweep (average gap)"
    )
    return ExperimentResult(
        "ablation_gorder_window",
        "Gorder window-width ablation",
        text,
        data={"scores": scores, "auc": auc},
    )


def hub_cutoff_sweep(
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    datasets: Sequence[str] = ("figeys", "google_plus", "caida"),
) -> ExperimentResult:
    """Hub Sort cutoff sweep: cutoff = multiplier * average degree."""
    headers = ["dataset", "multiplier", "num_hubs", "avg_gap"]
    rows: list[list[object]] = []
    data: dict[str, dict[float, dict[str, float]]] = {}
    for ds in datasets:
        graph = load(ds)
        avg_deg = graph.num_directed_edges / max(1, graph.num_vertices)
        data[ds] = {}
        for mult in multipliers:
            ordering = HubSort(cutoff=mult * avg_deg).order(graph)
            gap = average_gap(graph, ordering.permutation)
            hubs = ordering.metadata["num_hubs"]
            data[ds][mult] = {"num_hubs": hubs, "avg_gap": gap}
            rows.append([ds, mult, hubs, round(gap, 2)])
    text = format_table(
        headers, rows, title="Hub Sort cutoff ablation"
    )
    return ExperimentResult(
        "ablation_hub_cutoff", "Hub cutoff ablation", text, data
    )


def metis_part_order(
    partition_counts: Sequence[int] = (8, 32, 128),
    datasets: Sequence[str] = ("delaunay_n12", "hamster_full"),
) -> ExperimentResult:
    """Shuffled vs hierarchical part sequencing in the METIS ordering."""
    headers = ["dataset", "parts", "shuffle_gap", "hierarchical_gap"]
    rows: list[list[object]] = []
    data: dict[str, dict[int, dict[str, float]]] = {}
    for ds in datasets:
        graph = load(ds)
        data[ds] = {}
        for k in partition_counts:
            shuffled = MetisOrder(num_parts=k, part_order="shuffle")
            hierarchical = MetisOrder(
                num_parts=k, part_order="hierarchical"
            )
            gap_s = average_gap(
                graph, stored_ordering(shuffled, graph).permutation
            )
            gap_h = average_gap(
                graph, stored_ordering(hierarchical, graph).permutation
            )
            data[ds][k] = {"shuffle": gap_s, "hierarchical": gap_h}
            rows.append([ds, k, round(gap_s, 2), round(gap_h, 2)])
    text = format_table(
        headers, rows, title="METIS part-order ablation (average gap)"
    )
    return ExperimentResult(
        "ablation_metis_part_order",
        "METIS part-order ablation",
        text,
        data,
    )


def cache_geometry_sweep(
    l3_kib: Sequence[int] = (64, 256, 1024),
    dataset: str = "livejournal",
    schemes: Sequence[str] = ("grappolo", "random"),
) -> ExperimentResult:
    """Community-detection latency under different shared-L3 capacities.

    The gap between a good and a bad ordering should shrink as the L3
    grows toward holding the whole working set.
    """
    graph = load(dataset)
    headers = ["l3_kib", "scheme", "latency", "dram%"]
    rows: list[list[object]] = []
    data: dict[int, dict[str, float]] = {}
    for kib in l3_kib:
        config = HierarchyConfig(
            l3=CacheConfig(kib * 1024, 64, 16),
        )
        data[kib] = {}
        for scheme in schemes:
            ordering = ordering_for(scheme, dataset)
            report = run_community_detection(
                graph, ordering, num_threads=4, hierarchy=config
            )
            data[kib][scheme] = report.counters.average_latency
            rows.append([
                kib, scheme,
                round(report.counters.average_latency, 2),
                round(report.counters.dram_bound * 100, 1),
            ])
    text = format_table(
        headers, rows,
        title=f"L3 capacity sweep ({dataset}, community detection)",
    )
    return ExperimentResult(
        "ablation_cache_geometry", "Cache geometry ablation", text, data
    )


def minloga_profile(
    datasets: Sequence[str] | None = None,
) -> ExperimentResult:
    """Performance profile of the MinLogA (log-gap) compression objective."""
    names = list(datasets) if datasets is not None else list(small_set())
    scores = collect_scores(
        PAPER_SCHEMES, names, lambda m: max(m.log_gap, 1e-9)
    )
    profile = performance_profile(scores)
    auc = profile_dominance_score(profile)
    text = format_profile(
        profile, title="MinLogA (log-gap) performance profile"
    )
    return ExperimentResult(
        "ablation_minloga",
        "MinLogA compression-objective profile",
        text,
        data={"scores": scores, "auc": auc},
    )


def community_order_composition(
    datasets: Sequence[str] = ("hamster_small", "pgp", "livejournal"),
) -> ExperimentResult:
    """Isolate the value of ordering communities by coarse-graph RCM.

    Compares Grappolo (arbitrary community order), Grappolo-RCM, and a
    deliberately randomised community order over the same communities.
    """
    headers = ["dataset", "variant", "avg_gap"]
    rows: list[list[object]] = []
    data: dict[str, dict[str, float]] = {}
    rng = np.random.default_rng(17)
    for ds in datasets:
        graph = load(ds)
        grappolo = ordering_for("grappolo", ds)
        grappolo_rcm = ordering_for("grappolo_rcm", ds)
        # random community order: permute community blocks of grappolo.
        from ..community.louvain import louvain

        result = louvain(graph, max_phases=4)
        communities = result.communities
        num_comms = int(communities.max()) + 1 if communities.size else 0
        shuffled_rank = rng.permutation(num_comms)
        order = np.lexsort(
            (np.arange(communities.size), shuffled_rank[communities])
        )
        random_comm = Ordering(
            scheme="grappolo_randomized",
            permutation=ordering_from_sequence(order.astype(np.int64)),
        )
        variants = {
            "grappolo": grappolo,
            "grappolo_rcm": grappolo_rcm,
            "grappolo_random_comm_order": random_comm,
        }
        data[ds] = {}
        for name, ordering in variants.items():
            gap = average_gap(graph, ordering.permutation)
            data[ds][name] = gap
            rows.append([ds, name, round(gap, 2)])
    text = format_table(
        headers, rows, title="Community-order composition ablation"
    )
    return ExperimentResult(
        "ablation_community_order",
        "Community-order composition ablation",
        text,
        data,
    )


def prefetcher_ablation(
    dataset: str = "livejournal",
    schemes: Sequence[str] = ("grappolo", "rcm", "natural", "random"),
) -> ExperimentResult:
    """Next-line prefetching on vs off for the community-detection sweep.

    Prefetching helps streaming access (CSR ``indices``) but cannot fix
    the scattered vertex-data loads a bad ordering produces — so it
    narrows, without closing, the gap between orderings.
    """
    graph = load(dataset)
    headers = ["scheme", "prefetch", "latency", "dram%"]
    rows: list[list[object]] = []
    data: dict[str, dict[bool, float]] = {}
    for scheme in schemes:
        ordering = ordering_for(scheme, dataset)
        data[scheme] = {}
        for prefetch in (False, True):
            config = HierarchyConfig(prefetch_next_line=prefetch)
            report = run_community_detection(
                graph, ordering, num_threads=4, hierarchy=config
            )
            data[scheme][prefetch] = report.counters.average_latency
            rows.append([
                scheme, "on" if prefetch else "off",
                round(report.counters.average_latency, 2),
                round(report.counters.dram_bound * 100, 1),
            ])
    text = format_table(
        headers, rows,
        title=f"Next-line prefetcher ablation ({dataset})",
    )
    return ExperimentResult(
        "ablation_prefetch", "Prefetcher ablation", text, data
    )


def write_traffic_ablation(
    dataset: str = "livejournal",
    schemes: Sequence[str] = ("grappolo", "rcm", "natural", "random"),
) -> ExperimentResult:
    """Store traffic of the Louvain sweep under different orderings.

    Beyond the read counters of Figures 10/12: the sweep *writes* each
    vertex's community id.  With write-allocate caches, a good ordering
    also batches the dirty lines, so writebacks drop alongside load
    latency.  Uses the simulator's optional store model.
    """
    from ..graph.permute import apply_ordering
    from ..simulator.hierarchy import MemoryHierarchy
    from ..simulator.trace import csr_layout

    graph = load(dataset)
    headers = ["scheme", "latency", "writebacks", "wb_per_vertex"]
    rows: list[list[object]] = []
    data: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        ordering = ordering_for(scheme, dataset)
        relabelled = apply_ordering(graph, ordering.permutation)
        layout = csr_layout(
            relabelled.num_vertices, relabelled.num_directed_edges
        )
        hierarchy = MemoryHierarchy(1, HierarchyConfig())
        indptr, indices = relabelled.indptr, relabelled.indices
        for v in range(relabelled.num_vertices):
            hierarchy.access(0, layout.line("indptr", v))
            for k in range(int(indptr[v]), int(indptr[v + 1])):
                hierarchy.access(0, layout.line("indices", k))
                hierarchy.access(
                    0, layout.line("vdata", int(indices[k]))
                )
            # the community-id write of the sweep's move step
            hierarchy.access(0, layout.line("vdata", v), store=True)
        counters = hierarchy.merged_counters()
        writebacks = hierarchy.total_writebacks()
        data[scheme] = {
            "latency": counters.average_latency,
            "writebacks": float(writebacks),
        }
        rows.append([
            scheme,
            round(counters.average_latency, 2),
            writebacks,
            round(writebacks / max(1, relabelled.num_vertices), 3),
        ])
    text = format_table(
        headers, rows,
        title=f"Write traffic of one Louvain sweep ({dataset})",
    )
    return ExperimentResult(
        "ablation_write_traffic", "Write-traffic ablation", text, data
    )


#: registry of ablation experiments (CLI: python -m repro.bench <id>).
ABLATIONS = {
    "ablation_gorder_window": gorder_window_sweep,
    "ablation_hub_cutoff": hub_cutoff_sweep,
    "ablation_metis_part_order": metis_part_order,
    "ablation_cache_geometry": cache_geometry_sweep,
    "ablation_minloga": minloga_profile,
    "ablation_community_order": community_order_composition,
    "ablation_prefetch": prefetcher_ablation,
    "ablation_write_traffic": write_traffic_ablation,
}

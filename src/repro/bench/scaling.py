"""Scaling study: how the ordering effect grows with graph size.

Section VI-B attributes part of its findings to scale: "Larger graphs, as
well as different graph structures, can collectively result in increased
auxiliary work per edge as well as longer access costs and memory
latency."  This experiment quantifies that claim on a controlled family:
planted-partition graphs of increasing size (constant average degree and
community size), fixed cache geometry, community detection instrumented
under a good (grappolo) and a bad (random) ordering.

Expected shape: while the working set fits in cache, orderings hardly
matter; as the graph outgrows L2/L3 the latency gap opens and keeps
growing — the reason the paper's 9 *large* inputs show effects its small
set cannot.
"""

from __future__ import annotations

from typing import Sequence

from ..apps.community_detection import run_community_detection
from ..graph.generators import planted_partition
from ..ordering import get_scheme
from .experiments import ExperimentResult
from .report import format_table
from .runners import stored_ordering

__all__ = ["ordering_effect_scaling"]


def ordering_effect_scaling(
    community_counts: Sequence[int] = (10, 20, 40, 80),
    community_size: int = 50,
    *,
    p_in: float = 0.12,
    num_threads: int = 4,
) -> ExperimentResult:
    """Latency gap between good and bad orderings across graph sizes."""
    headers = [
        "n", "m", "scheme", "latency", "dram%", "iter_ms",
    ]
    rows: list[list[object]] = []
    data: dict[int, dict[str, dict[str, float]]] = {}
    for k in community_counts:
        graph = planted_partition(
            k, community_size, p_in=p_in, p_out=0.02 / k, seed=300 + k,
        )
        n = graph.num_vertices
        data[n] = {}
        for scheme_name in ("grappolo", "natural", "random"):
            ordering = stored_ordering(get_scheme(scheme_name), graph)
            report = run_community_detection(
                graph, ordering, num_threads=num_threads
            )
            data[n][scheme_name] = {
                "latency": report.counters.average_latency,
                "dram_bound": report.counters.dram_bound,
                "iteration_s": report.iteration_seconds,
            }
            rows.append([
                n, graph.num_edges, scheme_name,
                round(report.counters.average_latency, 2),
                round(report.counters.dram_bound * 100, 1),
                round(report.iteration_seconds * 1e3, 3),
            ])
    # summary: the good-vs-bad latency gap per size
    gaps = {
        n: per["random"]["latency"] - per["grappolo"]["latency"]
        for n, per in data.items()
    }
    text = format_table(
        headers, rows,
        title="Ordering effect vs graph size (fixed cache geometry)",
    )
    text += "\nlatency gap (random - grappolo) by n: " + ", ".join(
        f"{n}: {gap:.1f}" for n, gap in sorted(gaps.items())
    )
    return ExperimentResult(
        "ext_scaling",
        "Ordering-effect scaling study",
        text,
        data={"metrics": data, "gaps": gaps},
    )

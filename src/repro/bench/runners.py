"""Shared machinery for running schemes over datasets with caching.

Computing an ordering can be expensive (Gorder, METIS, ND on the larger
surrogates), and several experiments need the same (scheme, dataset)
ordering.  The runner memoises orderings per process so Figures 1, 5, 6a,
6b and 8 share the work.

The caches are explicit dictionaries rather than ``lru_cache`` so that
parallel fan-out can *seed* them: ``warm_orderings``/``warm_measures``
compute missing cells through :func:`repro.bench.pool.map_cells` and
install the results, after which the sequential accessors are pure cache
hits in the parent process.

Resilience wiring (:mod:`repro.resilience`):

* when a run journal is active, every ordering and measures cell is
  recorded under its content-hash key — measures carry their scalar
  values, so ``--resume`` replays them without touching the graph, and
  orderings replay through the content-addressed store as pure cache
  hits;
* a *supervised* warm (journal active, fault plan active, or a default
  timeout set) fans out through :func:`map_cells_detailed`: a cell that
  crashes, hangs, or raises past its retries lands in the
  :func:`degraded_cells` set instead of aborting the grid, and
  ``collect_scores``/``collect_costs`` emit NaN for it.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import numpy as np

from ..datasets.registry import install_shared_graph, load
from ..graph import shm as graph_shm
from ..graph.csr import CSRGraph
from ..measures.gaps import GapMeasures, gap_measures
from ..ordering.base import Ordering, OrderingScheme, get_scheme
from ..ordering.store import default_store
from ..resilience import faults
from ..resilience.journal import active_journal, cell_key
from .pool import (
    default_jobs,
    default_timeout,
    map_cells,
    map_cells_detailed,
)

__all__ = [
    "stored_ordering",
    "ordering_for",
    "measures_for",
    "warm_orderings",
    "warm_measures",
    "collect_scores",
    "collect_costs",
    "degraded_cells",
    "reset_degraded",
    "reset_caches",
]

_ordering_cache: dict[tuple[str, str], Ordering] = {}
_measures_cache: dict[tuple[str, str], GapMeasures] = {}

#: (scheme, dataset) cells that exhausted their retries this process.
_degraded: set[tuple[str, str]] = set()


def degraded_cells() -> list[tuple[str, str]]:
    """The (scheme, dataset) cells degraded so far, sorted."""
    return sorted(_degraded)


def reset_degraded() -> None:
    """Forget recorded degradations (tests and fresh runs)."""
    _degraded.clear()


def reset_caches() -> None:
    """Clear the in-process ordering/measures memos (tests).

    The bit-identity fault tests run the same grid twice in one process
    (faulted vs clean) and must not serve the second run from the first
    run's memo.
    """
    _ordering_cache.clear()
    _measures_cache.clear()


def _supervised() -> bool:
    """Whether warms should degrade instead of raising.

    True inside a journaled run, under an injected fault plan, or when
    the CLI installed a per-cell timeout — exactly the modes where a
    grid must complete with holes rather than abort.  Plain library use
    keeps strict exception propagation.
    """
    return (
        active_journal() is not None
        or faults.active_plan() is not None
        or default_timeout() is not None
    )


def _cell_hash(kind: str, scheme: str, dataset: str) -> str:
    """Content-hash journal key of one grid cell.

    Hashes the scheme's ``cache_token`` (name, algorithm version, seed,
    constructor parameters) rather than just its name, so a journal
    entry can never replay stale values after a scheme changes.
    """
    return cell_key(kind, dataset, get_scheme(scheme).cache_token())


def _measures_to_json(measures: GapMeasures) -> dict:
    return {
        "average_gap": float(measures.average_gap),
        "bandwidth": int(measures.bandwidth),
        "average_bandwidth": float(measures.average_bandwidth),
        "log_gap": float(measures.log_gap),
    }


def _measures_from_json(value: dict) -> GapMeasures:
    return GapMeasures(
        average_gap=float(value["average_gap"]),
        bandwidth=int(value["bandwidth"]),
        average_bandwidth=float(value["average_bandwidth"]),
        log_gap=float(value["log_gap"]),
    )


def stored_ordering(scheme: OrderingScheme, graph: CSRGraph) -> Ordering:
    """``scheme.order(graph)`` through the persistent ordering store.

    Plain computation when the store is off (``REPRO_ORDERING_CACHE=0``).
    """
    store = default_store()
    if store is None:
        return scheme.order(graph)
    return store.get_or_compute(graph, scheme)


def ordering_for(scheme: str, dataset: str) -> Ordering:
    """The (memoised) ordering of ``scheme`` on ``dataset``.

    Misses in the in-process memo fall through to the persistent
    content-addressed store (:mod:`repro.ordering.store`), so repeated
    runs — and pool workers, which call this in their own process — skip
    recomputation entirely once an entry exists on disk.  Under an
    active run journal the cell is recorded (status only — the payload
    lives in the store), and a resumed run counts it as replayed.
    """
    key = (scheme, dataset)
    ordering = _ordering_cache.get(key)
    if ordering is None:
        graph = load(dataset)
        instance = get_scheme(scheme)
        journal = active_journal()
        journal_key = (
            _cell_hash("ordering", scheme, dataset)
            if journal is not None else None
        )
        entry = (
            journal.lookup(journal_key) if journal is not None else None
        )
        ordering = stored_ordering(instance, graph)
        if journal is not None:
            if entry is not None and entry.get("status") == "ok":
                journal.mark_replayed(journal_key)
            else:
                journal.record(
                    journal_key, kind="ordering", status="ok",
                    label=f"ordering:{scheme}/{dataset}",
                )
        _ordering_cache[key] = ordering
    return ordering


def measures_for(scheme: str, dataset: str) -> GapMeasures:
    """The (memoised) gap measures of ``scheme`` on ``dataset``.

    Under an active run journal the four scalars are journaled with the
    cell, so a resumed run replays them bit-exactly (JSON float repr
    round-trips) without loading the graph at all.
    """
    key = (scheme, dataset)
    measures = _measures_cache.get(key)
    if measures is None:
        journal = active_journal()
        journal_key = (
            _cell_hash("measures", scheme, dataset)
            if journal is not None else None
        )
        if journal is not None:
            entry = journal.lookup(journal_key)
            if (
                entry is not None
                and entry.get("status") == "ok"
                and isinstance(entry.get("value"), dict)
            ):
                measures = _measures_from_json(entry["value"])
                journal.mark_replayed(journal_key)
                _measures_cache[key] = measures
                return measures
        graph = load(dataset)
        ordering = ordering_for(scheme, dataset)
        measures = gap_measures(graph, ordering.permutation)
        if journal is not None:
            journal.record(
                journal_key, kind="measures", status="ok",
                label=f"measures:{scheme}/{dataset}",
                value=_measures_to_json(measures),
            )
        _measures_cache[key] = measures
    return measures


def _ordering_cell(cell: tuple[str, str]) -> Ordering:
    """Pool worker: compute one (scheme, dataset) ordering."""
    return ordering_for(*cell)


def _install_shared(metas: tuple[tuple[str, dict], ...]) -> None:
    """Worker init: register the parent's shared-graph segments."""
    for name, meta in metas:
        install_shared_graph(name, meta)


def _shared_worker_init(
    missing: list[tuple[str, str]], jobs: int | None
) -> Callable[[], None] | None:
    """Publish each dataset's CSR once; workers then attach zero-copy.

    Only kicks in when the warm will actually fan out (effective width
    > 1) and sharing is enabled.  The parent loads each graph (it
    usually needs them afterwards anyway, e.g. for gap measures) and
    publishes it; the returned init — a picklable partial over a
    module-level function — installs the segment metas in every worker
    the supervisor (re)spawns.  Segments stay published until process
    exit, so later warms reuse them for free.
    """
    width = jobs if jobs is not None else default_jobs()
    if min(width, len(missing)) <= 1 or not graph_shm.shm_enabled():
        return None
    metas: list[tuple[str, dict]] = []
    for dataset in dict.fromkeys(ds for _scheme, ds in missing):
        meta = graph_shm.publish_graph(load(dataset))
        if meta is not None:
            metas.append((dataset, meta))
    if not metas:
        return None
    return functools.partial(_install_shared, tuple(metas))


def _measures_cell(cell: tuple[str, str]) -> GapMeasures:
    """Pool worker: compute one (scheme, dataset) gap-measure set."""
    return measures_for(*cell)


def _warm_supervised(
    missing: list[tuple[str, str]], *, kind: str, jobs: int | None
) -> None:
    """Degrading warm: replay journaled cells, supervise the rest.

    Cells the journal already holds are served through the sequential
    accessor (journal values for measures, store hits for orderings) and
    never re-dispatched.  The remainder fan out under supervision; a
    cell that fails every attempt is journaled as degraded and added to
    :func:`degraded_cells` — the grid always completes.
    """
    journal = active_journal()
    if kind == "measures":
        worker: Callable = _measures_cell
        cache: dict = _measures_cache
        accessor: Callable = measures_for
    else:
        worker = _ordering_cell
        cache = _ordering_cache
        accessor = ordering_for
    dispatch: list[tuple[str, str]] = []
    for pair in missing:
        if pair in _degraded:
            continue
        if journal is not None:
            entry = journal.lookup(_cell_hash(kind, *pair))
            if entry is not None and entry.get("status") == "ok":
                accessor(*pair)
                continue
        dispatch.append(pair)
    if not dispatch:
        return
    for pair, result in zip(
        dispatch,
        map_cells_detailed(
            worker, dispatch, jobs=jobs,
            worker_init=_shared_worker_init(dispatch, jobs),
        ),
    ):
        scheme, dataset = pair
        journal_key = (
            _cell_hash(kind, scheme, dataset)
            if journal is not None else None
        )
        if result.ok:
            cache[pair] = result.value
            if journal is not None:
                value = (
                    _measures_to_json(result.value)
                    if kind == "measures" else None
                )
                journal.record(
                    journal_key, kind=kind, status="ok",
                    label=f"{kind}:{scheme}/{dataset}", value=value,
                    attempts=result.attempts, duration=result.duration,
                )
        else:
            _degraded.add(pair)
            if journal is not None:
                journal.record(
                    journal_key, kind=kind, status="degraded",
                    label=f"{kind}:{scheme}/{dataset}",
                    error=result.error, attempts=result.attempts,
                    duration=result.duration,
                )


def warm_orderings(
    pairs: Iterable[tuple[str, str]], *, jobs: int | None = None
) -> None:
    """Fill the ordering cache for ``pairs``, fanning out when missing.

    Deterministic: results are installed in input order, and each cell's
    value is identical to what the sequential accessor would compute.
    In supervised mode (journal, faults, or timeout active) failed cells
    degrade instead of raising.
    """
    missing = [
        p for p in dict.fromkeys(pairs) if p not in _ordering_cache
    ]
    if not missing:
        return
    if _supervised():
        _warm_supervised(missing, kind="ordering", jobs=jobs)
        return
    for pair, ordering in zip(
        missing,
        map_cells(
            _ordering_cell, missing, jobs=jobs,
            worker_init=_shared_worker_init(missing, jobs),
        ),
    ):
        _ordering_cache[pair] = ordering


def warm_measures(
    pairs: Iterable[tuple[str, str]], *, jobs: int | None = None
) -> None:
    """Fill the measures cache (and seed orderings) for ``pairs``."""
    missing = [
        p for p in dict.fromkeys(pairs) if p not in _measures_cache
    ]
    if not missing:
        return
    if _supervised():
        _warm_supervised(missing, kind="measures", jobs=jobs)
        return
    for pair, measures in zip(
        missing,
        map_cells(
            _measures_cell, missing, jobs=jobs,
            worker_init=_shared_worker_init(missing, jobs),
        ),
    ):
        _measures_cache[pair] = measures


def collect_scores(
    schemes: Iterable[str],
    datasets: Iterable[str],
    metric: Callable[[GapMeasures], float],
) -> dict[str, dict[str, float]]:
    """``scores[scheme][dataset]`` for a gap metric (profile input).

    Degraded cells (supervised runs only) come back as NaN so the grid
    renders with visible holes instead of aborting; the completeness
    report names them.
    """
    schemes = list(schemes)
    datasets = list(datasets)
    warm_measures((s, ds) for s in schemes for ds in datasets)
    scores: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        row: dict[str, float] = {}
        for ds in datasets:
            if (scheme, ds) in _degraded:
                row[ds] = float("nan")
            else:
                row[ds] = float(metric(measures_for(scheme, ds)))
        scores[scheme] = row
    return scores


def collect_costs(
    schemes: Iterable[str],
    datasets: Iterable[str],
) -> dict[str, dict[str, float]]:
    """``costs[scheme][dataset]``: reordering operation counts (Fig. 4)."""
    schemes = list(schemes)
    datasets = list(datasets)
    warm_orderings((s, ds) for s in schemes for ds in datasets)
    costs: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        row: dict[str, float] = {}
        for ds in datasets:
            if (scheme, ds) in _degraded:
                row[ds] = float("nan")
            else:
                row[ds] = float(max(1, ordering_for(scheme, ds).cost))
        costs[scheme] = row
    return costs


def relabelled_graph(scheme: str, dataset: str) -> CSRGraph:
    """The dataset graph relabelled under a scheme's ordering."""
    graph = load(dataset)
    return ordering_for(scheme, dataset).apply(graph)


def permutation_for(scheme: str, dataset: str) -> np.ndarray:
    """Just the permutation array of a memoised ordering."""
    return ordering_for(scheme, dataset).permutation

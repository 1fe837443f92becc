"""Shared fixtures: small hand-constructed graphs with known properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.graph import CSRGraph, from_edges


@pytest.fixture(autouse=True)
def _isolated_ordering_cache(tmp_path, monkeypatch):
    """Route the persistent ordering cache into each test's tmp dir.

    Keeps test runs from writing `.repro-cache/` into the repo and from
    seeing entries persisted by other tests or earlier runs.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _reset_resilience_state():
    """Restore pool defaults and the degraded-cell set after each test.

    Deliberately leaves ``REPRO_FAULTS`` alone: the chaos CI leg
    (``make test-faults``) exports it so the equivalence suites run with
    injected faults active — clearing it here would neuter that leg.
    """
    from repro.bench import pool, runners
    from repro.resilience import degrade

    yield
    runners.reset_degraded()
    pool.set_default_jobs(1)
    pool.set_default_timeout(None)
    pool.set_default_retries(2)
    degrade.reset()


@pytest.fixture(autouse=True)
def _numeric_sanitizer():
    """Arm the numeric sanitizer for every test when REPRO_SANITIZE=1.

    When the switch is unset this yields inside a null context and costs
    nothing; with ``REPRO_SANITIZE=1`` (the CI equivalence legs) every
    test body runs with numpy raising on float overflow/invalid, plus
    the boundary checks in :mod:`repro.analysis.sanitize` active.
    """
    with sanitize.sanitized():
        yield


def make_path(n: int) -> CSRGraph:
    """Path 0-1-2-...-(n-1)."""
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> CSRGraph:
    """Cycle over n vertices."""
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_star(leaves: int) -> CSRGraph:
    """Star: hub 0 with `leaves` leaves."""
    return from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def make_clique(n: int, offset: int = 0):
    """Edge list of a clique over [offset, offset+n)."""
    return [
        (offset + i, offset + j)
        for i in range(n)
        for j in range(i + 1, n)
    ]


def make_two_cliques(k: int = 5) -> CSRGraph:
    """Two k-cliques joined by a single bridge edge."""
    edges = make_clique(k) + make_clique(k, offset=k)
    edges.append((k - 1, k))
    return from_edges(2 * k, edges)


def make_grid(w: int, h: int) -> CSRGraph:
    """w x h grid graph."""
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return from_edges(w * h, edges)


def random_graph(n: int, m: int, seed: int = 0) -> CSRGraph:
    """Random multigraph input canonicalised into a simple graph."""
    rng = np.random.default_rng(seed)
    src = rng.integers(n, size=m)
    dst = rng.integers(n, size=m)
    return from_edges(n, np.column_stack((src, dst)))


def dynamic_reference(num_threads, items, *, chunk, config=None):
    """Per-access oracle of ``SimulatedMachine.run_dynamic``.

    Chunks of ``chunk`` items go to the first thread with the lowest
    clock and every load walks :meth:`MemoryHierarchy.access`.  Returns
    ``(clocks, hierarchy, compute)``: per-thread busy cycles, the
    hierarchy with its integer counters, and the summed compute cycles.
    """
    from repro.simulator import MemoryHierarchy

    hierarchy = MemoryHierarchy(num_threads, config)
    clocks = [0] * num_threads
    for pos in range(0, len(items), chunk):
        t = min(range(num_threads), key=lambda x: clocks[x])
        for item in items[pos: pos + chunk]:
            for line in item.lines:
                level = hierarchy.access(t, int(line))
                clocks[t] += hierarchy.config.latency_of(level)
            clocks[t] += item.compute_cycles
    return clocks, hierarchy, sum(item.compute_cycles for item in items)


@pytest.fixture
def path7() -> CSRGraph:
    return make_path(7)


@pytest.fixture
def cycle8() -> CSRGraph:
    return make_cycle(8)


@pytest.fixture
def star6() -> CSRGraph:
    return make_star(6)


@pytest.fixture
def two_cliques() -> CSRGraph:
    return make_two_cliques(5)


@pytest.fixture
def grid5x4() -> CSRGraph:
    return make_grid(5, 4)


@pytest.fixture
def medium_random() -> CSRGraph:
    return random_graph(120, 400, seed=5)

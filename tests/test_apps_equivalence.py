"""The vector app engines are bit-identical to the scalar references.

Mirror of ``test_engine_equivalence.py`` for the application workloads
(:mod:`repro.apps`) and the locality measures: every engine-gated path
keeps its original Python loop as executable ground truth, and these
tests require the *exact* same outputs — RRR vertex visit order, seeds
and tie-breaks, operation counts, distances, work-item line streams —
not approximate agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.batch import (
    edge_coins_bulk,
    greedy_seed_selection_vector,
    sample_rrr_ic_pinned_batch,
)
from repro.apps.community_detection import build_sweep_items
from repro.apps.delta_stepping import delta_stepping
from repro.apps.influence_max import (
    RRRSet,
    _edge_coins,
    greedy_seed_selection,
    sample_rrr_ic,
    sample_rrr_ic_pinned,
)
from repro.engine import use_engine
from repro.graph import from_edges
from repro.measures.gaps import vertex_bandwidths
from repro.measures.locality import vertex_line_fragmentation
from tests.conftest import (
    make_grid,
    make_star,
    make_two_cliques,
    random_graph,
)

GRAPHS = {
    "star": make_star(12),
    "two_cliques": make_two_cliques(5),
    "grid": make_grid(6, 5),
    "random": random_graph(60, 200, seed=3),
    "empty_edges": from_edges(5, []),
    "single": from_edges(1, []),
}


def assert_rrr_equal(a: RRRSet, b: RRRSet) -> None:
    assert a.root == b.root
    assert np.array_equal(a.vertices, b.vertices)
    assert a.edges_examined == b.edges_examined


def assert_items_equal(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.lines, y.lines)
        assert x.compute_cycles == y.compute_cycles


class TestEdgeCoinsBulk:
    def test_matches_scalar_per_sample(self):
        rng = np.random.default_rng(0)
        orig_u = rng.integers(0, 500, size=400).astype(np.int64)
        orig_v = rng.integers(0, 500, size=400).astype(np.int64)
        idx = rng.integers(0, 32, size=400).astype(np.int64)
        for seed in (0, 7, 12345):
            bulk = edge_coins_bulk(orig_u, orig_v, idx, seed)
            for i in range(orig_u.size):
                scalar = _edge_coins(
                    int(orig_u[i]),
                    np.asarray([int(orig_v[i])], dtype=np.int64),
                    int(idx[i]), seed,
                )[0]
                assert bulk[i] == scalar


class TestPinnedBatch:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    # 0.0 and 1.5 pin the native kernel's empty and all-pass coin ranges
    @pytest.mark.parametrize("probability", [0.0, 0.05, 0.3, 1.0, 1.5])
    def test_matches_scalar_loop(self, name, probability):
        graph = GRAPHS[name]
        n = graph.num_vertices
        original_of = np.arange(n, dtype=np.int64)
        rng = np.random.default_rng(11)
        roots = rng.integers(0, n, size=20).astype(np.int64)
        indices = np.arange(20, dtype=np.int64)
        batched = sample_rrr_ic_pinned_batch(
            graph, probability, roots, original_of, indices, 7,
            batch_size=6,
        )
        for i in range(20):
            scalar = sample_rrr_ic_pinned(
                graph, probability, int(roots[i]), original_of,
                int(indices[i]), 7, engine="scalar",
            )
            assert_rrr_equal(scalar, batched[i])

    def test_parallel_jobs_match_sequential(self):
        graph = GRAPHS["random"]
        n = graph.num_vertices
        original_of = np.arange(n, dtype=np.int64)
        roots = np.random.default_rng(2).integers(
            0, n, size=30
        ).astype(np.int64)
        indices = np.arange(30, dtype=np.int64)
        sequential = sample_rrr_ic_pinned_batch(
            graph, 0.2, roots, original_of, indices, 5, jobs=1
        )
        parallel = sample_rrr_ic_pinned_batch(
            graph, 0.2, roots, original_of, indices, 5, jobs=3
        )
        for a, b in zip(sequential, parallel):
            assert_rrr_equal(a, b)

    def test_relabelled_graph_original_ids(self):
        """Pinned coins key on original ids through ``original_of``."""
        graph = GRAPHS["random"]
        n = graph.num_vertices
        pi = np.random.default_rng(4).permutation(n).astype(np.int64)
        from repro.graph import apply_ordering, invert_ordering

        relabelled = apply_ordering(graph, pi)
        original_of = invert_ordering(pi)
        roots = np.arange(0, n, 7, dtype=np.int64)
        indices = np.arange(roots.size, dtype=np.int64)
        batched = sample_rrr_ic_pinned_batch(
            relabelled, 0.25, roots, original_of, indices, 9
        )
        for i, root in enumerate(roots):
            scalar = sample_rrr_ic_pinned(
                relabelled, 0.25, int(root), original_of,
                int(indices[i]), 9, engine="scalar",
            )
            assert_rrr_equal(scalar, batched[i])

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 30),
        m=st.integers(0, 90),
        seed=st.integers(0, 2**16),
        batch_size=st.integers(1, 9),
        probability=st.floats(0.05, 0.95),
    )
    def test_random_graphs(self, n, m, seed, batch_size, probability):
        graph = random_graph(n, m, seed=seed)
        original_of = np.arange(n, dtype=np.int64)
        roots = np.random.default_rng(seed + 1).integers(
            0, n, size=8
        ).astype(np.int64)
        indices = np.arange(8, dtype=np.int64)
        batched = sample_rrr_ic_pinned_batch(
            graph, probability, roots, original_of, indices, seed,
            batch_size=batch_size,
        )
        for i in range(8):
            scalar = sample_rrr_ic_pinned(
                graph, probability, int(roots[i]), original_of,
                int(indices[i]), seed, engine="scalar",
            )
            assert_rrr_equal(scalar, batched[i])


class TestRngSampler:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_vector_matches_scalar_stream(self, name):
        """Consecutive draws consume the rng stream identically."""
        graph = GRAPHS[name]
        rng_s = np.random.default_rng(13)
        rng_v = np.random.default_rng(13)
        for _ in range(12):
            scalar = sample_rrr_ic(graph, 0.3, rng_s, engine="scalar")
            vector = sample_rrr_ic(graph, 0.3, rng_v, engine="vector")
            assert_rrr_equal(scalar, vector)
        # both generators must land in the same state
        assert rng_s.integers(1 << 30) == rng_v.integers(1 << 30)


def _random_rrr_sets(rng, num_vertices, count):
    sets = []
    for i in range(count):
        size = int(rng.integers(0, max(2, num_vertices // 2)))
        vertices = rng.permutation(num_vertices)[:size].astype(np.int64)
        sets.append(RRRSet(
            root=int(vertices[0]) if size else 0,
            vertices=vertices,
            edges_examined=int(rng.integers(0, 50)),
        ))
    # duplicated sets exercise the covered-set live-skip behaviour
    if count >= 2:
        sets.append(sets[0])
        sets.append(sets[1])
    return sets


class TestGreedySeeding:
    """Vector twin and native kernel against the scalar greedy loop."""

    ENGINES = ("vector", "native")

    def _assert_tiers_match(self, sets, n, k):
        scalar = greedy_seed_selection(sets, n, k, engine="scalar")
        assert greedy_seed_selection_vector(sets, n, k) == scalar
        for engine in self.ENGINES:
            assert greedy_seed_selection(sets, n, k, engine=engine) == scalar

    @pytest.mark.parametrize("k", [1, 4, 16, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 40
        sets = _random_rrr_sets(rng, n, 25)
        self._assert_tiers_match(sets, n, k)

    def test_empty_sets(self):
        self._assert_tiers_match([], 10, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 30),
        count=st.integers(0, 20),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_random_sets(self, n, count, k, seed):
        rng = np.random.default_rng(seed)
        sets = _random_rrr_sets(rng, n, count)
        self._assert_tiers_match(sets, n, k)


def _weighted_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges, weights = [], []
    for _ in range(m):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
            weights.append(float(rng.uniform(0.1, 4.0)))
    return from_edges(n, edges, weights=weights)


class TestDeltaStepping:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_unweighted_matches_scalar(self, name):
        graph = GRAPHS[name]
        d_s, i_s = delta_stepping(graph, 0, engine="scalar")
        d_v, i_v = delta_stepping(graph, 0, engine="vector")
        assert np.array_equal(d_s, d_v)
        assert_items_equal(i_s, i_v)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 5.0, None])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_weighted_matches_scalar(self, delta, seed):
        graph = _weighted_graph(35, 120, seed)
        d_s, i_s = delta_stepping(graph, 0, delta=delta, engine="scalar")
        d_v, i_v = delta_stepping(graph, 0, delta=delta, engine="vector")
        assert np.array_equal(d_s, d_v)
        assert_items_equal(i_s, i_v)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 25),
        m=st.integers(0, 80),
        seed=st.integers(0, 2**16),
        source=st.integers(0, 24),
    )
    def test_random_weighted(self, n, m, seed, source):
        graph = _weighted_graph(n, m, seed)
        source = source % n
        d_s, i_s = delta_stepping(graph, source, engine="scalar")
        d_v, i_v = delta_stepping(graph, source, engine="vector")
        assert np.array_equal(d_s, d_v)
        assert_items_equal(i_s, i_v)


class TestSweepItems:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("with_communities", [False, True])
    def test_matches_scalar(self, name, with_communities):
        graph = GRAPHS[name]
        n = graph.num_vertices
        communities = (
            np.random.default_rng(5).integers(
                0, max(1, n // 3), size=n
            ).astype(np.int64)
            if with_communities else None
        )
        scalar = build_sweep_items(graph, communities, engine="scalar")
        vector = build_sweep_items(graph, communities, engine="vector")
        assert_items_equal(scalar, vector)


class TestMeasures:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("use_pi", [False, True])
    def test_vertex_bandwidths(self, name, use_pi):
        graph = GRAPHS[name]
        n = graph.num_vertices
        pi = (
            np.random.default_rng(6).permutation(n).astype(np.int64)
            if use_pi else None
        )
        scalar = vertex_bandwidths(graph, pi, engine="scalar")
        vector = vertex_bandwidths(graph, pi, engine="vector")
        assert np.array_equal(scalar, vector)
        assert scalar.dtype == vector.dtype

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("entries_per_line", [1, 3, 8])
    def test_vertex_line_fragmentation(self, name, entries_per_line):
        graph = GRAPHS[name]
        n = graph.num_vertices
        pi = np.random.default_rng(8).permutation(n).astype(np.int64)
        scalar = vertex_line_fragmentation(
            graph, pi, entries_per_line=entries_per_line,
            engine="scalar",
        )
        vector = vertex_line_fragmentation(
            graph, pi, entries_per_line=entries_per_line,
            engine="vector",
        )
        assert np.array_equal(scalar, vector)


class TestEngineContextDispatch:
    def test_use_engine_drives_apps(self):
        """The context manager selects the path, same as explicit args."""
        graph = GRAPHS["random"]
        with use_engine("scalar"):
            d_s, i_s = delta_stepping(graph, 0)
        with use_engine("vector"):
            d_v, i_v = delta_stepping(graph, 0)
        assert np.array_equal(d_s, d_v)
        assert_items_equal(i_s, i_v)


class TestEndToEndInfluenceMax:
    def test_run_identical_across_engines_and_jobs(self):
        from repro.apps.influence_max import run_influence_maximization
        from repro.ordering import get_scheme

        graph = random_graph(50, 160, seed=12)
        ordering = get_scheme("natural").order(graph)
        kwargs = dict(k=4, probability=0.2, max_samples=120, seed=3)
        with use_engine("scalar"):
            base = run_influence_maximization(graph, ordering, **kwargs)
        with use_engine("vector"):
            vec = run_influence_maximization(graph, ordering, **kwargs)
            par = run_influence_maximization(
                graph, ordering, jobs=2, **kwargs
            )
        for other in (vec, par):
            assert base.seeds == other.seeds
            assert base.num_samples == other.num_samples
            assert base.estimated_spread == other.estimated_spread

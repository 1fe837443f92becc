"""Unit tests for graph coloring and the colored parallel schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import (
    color_classes,
    greedy_coloring,
    is_valid_coloring,
)
from repro.graph import from_edges
from tests.conftest import (
    dynamic_reference,
    make_clique,
    make_cycle,
    make_path,
    random_graph,
)


class TestGreedyColoring:
    def test_path_two_colors(self, path7):
        colors = greedy_coloring(path7)
        assert is_valid_coloring(path7, colors)
        assert int(colors.max()) + 1 == 2

    def test_even_cycle_two_colors(self, cycle8):
        colors = greedy_coloring(cycle8)
        assert is_valid_coloring(cycle8, colors)
        assert int(colors.max()) + 1 == 2

    def test_odd_cycle_three_colors(self):
        g = make_cycle(7)
        colors = greedy_coloring(g)
        assert is_valid_coloring(g, colors)
        assert int(colors.max()) + 1 == 3

    def test_clique_needs_n_colors(self):
        g = from_edges(5, make_clique(5))
        colors = greedy_coloring(g)
        assert is_valid_coloring(g, colors)
        assert int(colors.max()) + 1 == 5

    def test_bounded_by_max_degree_plus_one(self, medium_random):
        colors = greedy_coloring(medium_random)
        assert is_valid_coloring(medium_random, colors)
        assert colors.max() <= medium_random.degrees().max()

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_always_valid(self, seed):
        g = random_graph(30, 80, seed=seed)
        for ldf in (True, False):
            colors = greedy_coloring(g, largest_degree_first=ldf)
            assert is_valid_coloring(g, colors)


class TestValidity:
    def test_invalid_coloring_detected(self, path7):
        assert not is_valid_coloring(path7, np.zeros(7, dtype=np.int64))

    def test_wrong_length(self, path7):
        assert not is_valid_coloring(path7, np.asarray([0, 1]))

    def test_negative_color(self, path7):
        colors = greedy_coloring(path7)
        colors[0] = -1
        assert not is_valid_coloring(path7, colors)


class TestColorClasses:
    def test_partition(self, medium_random):
        colors = greedy_coloring(medium_random)
        classes = color_classes(colors)
        flat = np.concatenate(classes)
        assert sorted(flat) == list(range(120))

    def test_no_internal_edges(self, medium_random):
        colors = greedy_coloring(medium_random)
        for batch in color_classes(colors):
            batch_set = set(int(v) for v in batch)
            for v in batch:
                for u in medium_random.neighbors(int(v)):
                    assert int(u) not in batch_set or int(u) == int(v)

    def test_empty(self):
        assert color_classes(np.zeros(0, dtype=np.int64)) == []


class TestColoredSchedule:
    def test_colored_run(self):
        from repro.apps import run_community_detection
        from repro.graph.generators import planted_partition
        from repro.ordering import get_scheme

        g = planted_partition(4, 12, p_in=0.4, p_out=0.02, seed=3)
        ordering = get_scheme("natural").order(g)
        block = run_community_detection(
            g, ordering, num_threads=2, schedule="block"
        )
        colored = run_community_detection(
            g, ordering, num_threads=2, schedule="colored"
        )
        # colored execution pays barrier costs: never faster than block
        assert colored.iteration_seconds >= block.iteration_seconds * 0.9
        assert colored.counters.loads == block.counters.loads

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_colored_counters_are_exact(self, seed):
        """The aggregated report equals one built from the exact
        per-region integer counters (no float round-trip drift)."""
        from repro.apps import run_community_detection
        from repro.apps.community_detection import build_sweep_items
        from repro.graph import apply_ordering
        from repro.graph.generators import planted_partition
        from repro.ordering import get_scheme
        from repro.simulator import ThreadCounters, report_from_counters

        g = planted_partition(5, 12, p_in=0.4, p_out=0.03, seed=seed)
        ordering = get_scheme("rcm").order(g)
        colored = run_community_detection(
            g, ordering, num_threads=3, schedule="colored"
        )
        relabelled = apply_ordering(g, ordering.permutation)
        items = build_sweep_items(relabelled)
        merged = ThreadCounters()
        compute = 0
        for batch in color_classes(greedy_coloring(relabelled)):
            _, hierarchy, region_compute = dynamic_reference(
                3, [items[int(v)] for v in batch], chunk=8
            )
            merged.merge(hierarchy.merged_counters())
            compute += region_compute
        assert colored.counters == report_from_counters(merged, compute)

    def test_invalid_schedule_rejected(self, two_cliques):
        from repro.apps import run_community_detection
        from repro.ordering import get_scheme

        ordering = get_scheme("natural").order(two_cliques)
        with pytest.raises(ValueError, match="schedule"):
            run_community_detection(
                two_cliques, ordering, schedule="guided"
            )

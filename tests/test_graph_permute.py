"""Unit and property tests for orderings-as-permutations and relabelling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    apply_ordering,
    compose_orderings,
    from_edges,
    identity_ordering,
    invert_ordering,
    is_valid_ordering,
    ordering_from_sequence,
    validate_ordering,
)
from repro.measures import average_gap, graph_bandwidth
from tests.conftest import make_two_cliques, random_graph


class TestValidation:
    def test_identity_is_valid(self):
        assert is_valid_ordering(identity_ordering(5))

    def test_duplicate_invalid(self):
        assert not is_valid_ordering(np.asarray([0, 0, 2]))

    def test_out_of_range_invalid(self):
        assert not is_valid_ordering(np.asarray([0, 1, 3]))

    def test_wrong_length_invalid(self):
        assert not is_valid_ordering(np.asarray([0, 1]), num_vertices=3)

    def test_validate_raises(self):
        with pytest.raises(ValueError):
            validate_ordering(np.asarray([1, 1]))


class TestInversionComposition:
    def test_invert_roundtrip(self):
        pi = np.asarray([2, 0, 1, 4, 3])
        inv = invert_ordering(pi)
        assert list(pi[inv]) == [0, 1, 2, 3, 4]

    def test_ordering_from_sequence(self):
        sequence = np.asarray([3, 1, 0, 2])  # vertex 3 gets rank 0...
        pi = ordering_from_sequence(sequence)
        assert pi[3] == 0
        assert pi[1] == 1
        assert pi[0] == 2

    def test_compose(self):
        first = np.asarray([1, 2, 0])
        second = np.asarray([2, 0, 1])
        composed = compose_orderings(first, second)
        assert list(composed) == [0, 1, 2]

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            compose_orderings(np.asarray([0, 1]), np.asarray([0, 1, 2]))


class TestApplyOrdering:
    def test_identity_is_noop(self, two_cliques):
        g = apply_ordering(two_cliques, identity_ordering(10))
        assert g == two_cliques

    def test_relabel_reverses(self, path7):
        pi = np.asarray([6, 5, 4, 3, 2, 1, 0])
        g = apply_ordering(path7, pi)
        # a reversed path is still a path with the same gap structure
        assert g.num_edges == path7.num_edges
        assert average_gap(g) == average_gap(path7)

    def test_weighted_relabel_preserves_weights(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 5.0])
        pi = np.asarray([2, 1, 0])
        h = apply_ordering(g, pi)
        assert h.total_weight() == g.total_weight()
        # edge (1,2) w=5 becomes (1,0)
        k = list(h.neighbors(0)).index(1)
        assert h.weights[h.indptr[0] + k] == 5.0


permutations = st.permutations(list(range(12)))


class TestApplyOrderingProperties:
    @given(perm=permutations)
    @settings(max_examples=40, deadline=None)
    def test_structure_preserved(self, perm):
        g = random_graph(12, 30, seed=3)
        pi = np.asarray(perm)
        h = apply_ordering(g, pi)
        assert h.num_edges == g.num_edges
        assert sorted(h.degrees()) == sorted(g.degrees())
        # every edge maps under pi
        for u, v in g.edges():
            assert h.has_edge(int(pi[u]), int(pi[v]))

    @given(perm=permutations)
    @settings(max_examples=40, deadline=None)
    def test_gap_measure_matches_relabelled_graph(self, perm):
        """gap(G, pi) computed on G equals gap of the relabelled graph."""
        g = make_two_cliques(6)
        pi = np.concatenate([np.asarray(perm)])
        assert pi.size == g.num_vertices
        relabelled = apply_ordering(g, pi)
        assert average_gap(g, pi) == pytest.approx(average_gap(relabelled))
        assert graph_bandwidth(g, pi) == graph_bandwidth(relabelled)

    @given(perm=permutations)
    @settings(max_examples=40, deadline=None)
    def test_apply_then_inverse_roundtrips(self, perm):
        g = random_graph(12, 25, seed=9)
        pi = np.asarray(perm)
        h = apply_ordering(apply_ordering(g, pi), invert_ordering(pi))
        assert h == g


def apply_ordering_loop(graph, pi):
    """Oracle: the per-row relabelling loop, one stable argsort per row."""
    pi = validate_ordering(pi, graph.num_vertices)
    n = graph.num_vertices
    inv = invert_ordering(pi)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(graph.degrees()[inv], out=indptr[1:])
    indices = np.empty(graph.num_directed_edges, dtype=np.int64)
    weights = (
        np.empty(graph.num_directed_edges, dtype=np.float64)
        if graph.is_weighted
        else None
    )
    for new_id in range(n):
        old_id = inv[new_id]
        start, end = graph.indptr[old_id], graph.indptr[old_id + 1]
        nbrs = pi[graph.indices[start:end]]
        order = np.argsort(nbrs, kind="stable")
        indices[indptr[new_id]:indptr[new_id + 1]] = nbrs[order]
        if weights is not None:
            weights[indptr[new_id]:indptr[new_id + 1]] = (
                graph.weights[start:end][order]
            )
    return CSRGraph(indptr, indices, weights)


def assert_same_csr(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    if b.weights is None:
        assert a.weights is None
    else:
        assert np.array_equal(a.weights, b.weights)


@st.composite
def csr_graphs(draw):
    """Raw CSR graphs, possibly weighted, with repeated neighbours.

    Rows are unsorted and may repeat a neighbour with different weights,
    so the test sees whether equal labels keep their order.
    """
    n = draw(st.integers(1, 14))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=8),
            min_size=n,
            max_size=n,
        )
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.asarray([v for r in rows for v in r], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(
                st.lists(
                    st.floats(-4.0, 4.0, allow_nan=False),
                    min_size=indices.size,
                    max_size=indices.size,
                )
            ),
            dtype=np.float64,
        )
    return CSRGraph(indptr, indices, weights)


class TestApplyOrderingMatchesLoop:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_raw_csr(self, data):
        g = data.draw(csr_graphs(), label="graph")
        pi = np.asarray(
            data.draw(st.permutations(list(range(g.num_vertices))))
        )
        assert_same_csr(apply_ordering(g, pi), apply_ordering_loop(g, pi))

    @pytest.mark.parametrize("weighted", [False, True])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, weighted, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(40, 120, seed=seed % 97)
        if weighted:
            g = CSRGraph(
                g.indptr, g.indices, rng.uniform(0.5, 2.0, g.indices.size)
            )
        pi = rng.permutation(g.num_vertices)
        assert_same_csr(apply_ordering(g, pi), apply_ordering_loop(g, pi))

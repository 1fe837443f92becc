"""The native (C) tier is bit-identical to its scalar ground truth.

Every :class:`repro._native.core.NativeKernel` declares a scalar twin
and a vector twin (or ``None`` when it has no vector tier); this suite
is the dynamic half of that contract (the static half is the reprolint
``native-twin`` check).  Each kernel is driven against its scalar twin
over structured and random inputs, the ``REPRO_NO_NATIVE`` gate is
exercised through ``reset()``, and the build-info reporting surface is
pinned.

Every kernel is serial: no kernel compiles with ``-pthread``, and a
leftover ``REPRO_NATIVE_THREADS`` setting changes no result.

``make bench-native`` runs this file twice — once with the C tier and
once under ``REPRO_NO_NATIVE=1`` — so a kernel regression and a
fallback regression are both loud.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro._native import core as native_core
from repro._native import fm as native_fm
from repro.apps.delta_stepping import delta_stepping
from repro.community.louvain import _LouvainState, louvain
from repro.engine import strip_engine_metadata, use_engine
from repro.graph import CSRGraph, from_edges
from repro.ordering import get_scheme
from repro.partition import bisect, partition_graph, vertex_separator
from repro.partition import multilevel
from repro.simulator import HierarchyConfig
from repro.simulator.parallel import SimulatedMachine, WorkItem
from tests.conftest import (
    make_grid,
    make_star,
    make_two_cliques,
    random_graph,
)

KERNEL_NAMES = (
    "gorder_greedy",
    "partition_fm",
    "delta_scan",
    "rrr_sample",
    "counting_sort",
    "parse_edges",
    "louvain_sweep",
    "region_replay",
    "greedy_cover",
)

GRAPHS = {
    "grid": make_grid(7, 6),
    "cliques": make_two_cliques(6),
    "random": random_graph(120, 520, seed=5),
    "empty": from_edges(4, []),
    "single": from_edges(1, []),
}


def native_available() -> bool:
    return all(
        native_core.get_kernel(name).lib() is not None
        for name in KERNEL_NAMES
    )


# ---------------------------------------------------------------------------
# Registry and build reporting
# ---------------------------------------------------------------------------
def test_all_kernels_registered():
    assert set(KERNEL_NAMES) <= set(native_core.kernel_names())


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_build_info_fields(name):
    info = native_core.get_kernel(name).build_info()
    assert info["kernel"] == name
    assert isinstance(info["available"], bool)
    assert isinstance(info["status"], str) and info["status"]
    assert info["source_digest"]
    assert ":" in info["scalar_twin"]
    assert info["vector_twin"] is None or ":" in info["vector_twin"]
    if info["available"]:
        assert info["fallback"] is None
    else:
        assert info["fallback"] == info["status"]


def test_threaded_kernel_set_is_pinned():
    """The threaded kernel set is empty: no kernel links pthreads."""
    for name in KERNEL_NAMES:
        kernel = native_core.get_kernel(name)
        for profile in (None, *native_core.SANITIZE_PROFILES):
            assert "-pthread" not in kernel.build_flags(profile)


def test_native_threads_resolution(monkeypatch):
    """Kernels are serial, so a leftover thread knob resolves to 1."""
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert native_core.native_threads() == 1
    for value in ("8", "0", "bogus"):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", value)
        assert native_core.native_threads() == 1


def test_build_info_all_covers_every_kernel():
    infos = _native.build_info_all()
    assert set(KERNEL_NAMES) <= set(infos)
    for name, info in infos.items():
        assert info["kernel"] == name


def test_twins_resolve_dynamically():
    import importlib

    for name in KERNEL_NAMES:
        info = native_core.get_kernel(name).build_info()
        targets = [
            info[role]
            for role in ("scalar_twin", "vector_twin")
            if info[role] is not None
        ]
        for target in targets:
            mod_name, qualname = target.split(":")
            obj = importlib.import_module(mod_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            assert callable(obj)


def test_no_native_gate_disables_kernel(monkeypatch):
    kernel = native_core.get_kernel("region_replay")
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    kernel.reset()
    try:
        assert kernel.lib() is None
        info = kernel.build_info()
        assert not info["available"]
        assert "REPRO_NO_NATIVE" in info["status"]
    finally:
        monkeypatch.delenv("REPRO_NO_NATIVE")
        kernel.reset()
    # With the gate lifted the kernel builds again (or reports a real
    # toolchain failure — never the disabled status).
    assert "REPRO_NO_NATIVE" not in kernel.build_info()["status"]


def test_reset_forgets_build_state():
    kernel = native_core.get_kernel("gorder_greedy")
    kernel.lib()
    kernel.reset()
    assert kernel.build_info()["status"] != "not built"  # rebuilt lazily


# ---------------------------------------------------------------------------
# Bit-identity: orderings through the native tier
# ---------------------------------------------------------------------------
def order_with(scheme_name, graph, engine):
    with use_engine(engine):
        return get_scheme(scheme_name).order(graph)


@pytest.mark.parametrize(
    "scheme_name", ("gorder", "metis", "nested_dissection")
)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_orderings_match_scalar(scheme_name, graph_name):
    graph = GRAPHS[graph_name]
    native = order_with(scheme_name, graph, "native")
    scalar = order_with(scheme_name, graph, "scalar")
    assert np.array_equal(native.permutation, scalar.permutation)
    assert native.cost == scalar.cost


@pytest.mark.parametrize(
    "scheme_name", ("gorder", "metis", "nested_dissection")
)
@given(
    n=st.integers(2, 24),
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)),
        min_size=0,
        max_size=80,
    ),
)
@settings(max_examples=10, deadline=None)
def test_native_orderings_match_scalar_random_shapes(scheme_name, n, edges):
    graph = from_edges(n, [(u % n, v % n) for u, v in edges])
    native = order_with(scheme_name, graph, "native")
    scalar = order_with(scheme_name, graph, "scalar")
    assert np.array_equal(native.permutation, scalar.permutation)
    assert native.cost == scalar.cost


def test_native_ordering_metadata_records_tier():
    graph = GRAPHS["random"]
    native = order_with("gorder", graph, "native")
    expected = (
        "native"
        if native_core.get_kernel("gorder_greedy").lib() is not None
        else "vector"
    )
    assert native.metadata["engine"] == expected


# ---------------------------------------------------------------------------
# Bit-identity: the whole multilevel bisection (partition_fm)
# ---------------------------------------------------------------------------
TIERS = ("native", "vector", "scalar")

#: ladder inputs beyond GRAPHS: a star (matching stalls at once), many
#: components with isolated vertices (growth tops up), a graph on the
#: stall test's boundary, and an integer-weighted graph deep enough to
#: coarsen over several levels.
LADDER_GRAPHS = {
    **GRAPHS,
    "star": make_star(60),
    "components": from_edges(
        90, [(u, u + 1) for u in range(0, 80) if u % 9 != 8]
    ),
    # four matchable pairs: 76 coarse vertices == 0.95 * 80, the stall
    # test's boundary (80 / 32 lets a pair weigh 2)
    "stall_boundary": from_edges(80, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    "weighted": from_edges(
        300,
        [(u, (u * 7 + 3) % 300) for u in range(300)]
        + [(u, u + 1) for u in range(299)],
        weights=[float(1 + u % 5) for u in range(599)],
    ),
}


def ladder_available() -> bool:
    return native_fm.KERNEL.lib() is not None


def python_ladder_refused(monkeypatch):
    """Make the Python ladder fail loudly: the kernel must run."""

    def refuse(*args, **kwargs):
        raise AssertionError("the Python ladder ran under the native tier")

    monkeypatch.setattr(multilevel, "_bisect_python", refuse)


def bisect_outcome(graph, engine, bit_generator=np.random.PCG64, **kwargs):
    rng = np.random.Generator(bit_generator(11))
    with use_engine(engine):
        result = bisect(graph, seed=rng, **kwargs)
    return result.assignment, result.cut, rng.bit_generator.state


def assert_same_outcome(a, b):
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert native_fm._same_state(a[2], b[2])


def assert_bisect_tiers_match(monkeypatch, graph, **kwargs):
    """Native, vector and scalar bisections agree, generator state too."""
    vector = bisect_outcome(graph, "vector", **kwargs)
    assert_same_outcome(bisect_outcome(graph, "scalar", **kwargs), vector)
    with monkeypatch.context() as mp:
        if ladder_available() and graph.num_vertices >= 2:
            python_ladder_refused(mp)
        native = bisect_outcome(graph, "native", **kwargs)
    assert_same_outcome(native, vector)


@pytest.mark.parametrize("graph_name", sorted(LADDER_GRAPHS))
@pytest.mark.parametrize("bit_generator", (np.random.PCG64, np.random.MT19937))
def test_bisect_ladder_matches_twins(monkeypatch, graph_name, bit_generator):
    assert_bisect_tiers_match(
        monkeypatch, LADDER_GRAPHS[graph_name], bit_generator=bit_generator
    )


@st.composite
def ladder_inputs(draw):
    """A graph (random, star or components), integer weights, targets."""
    n = draw(st.integers(2, 90))
    shape = draw(st.sampled_from(("random", "star", "components")))
    if shape == "star":
        edges = [(0, v) for v in range(1, n) if draw(st.booleans())]
    elif shape == "components":
        size = draw(st.integers(1, 12))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, min(n, u + size))
            if u // size == v // size and draw(st.integers(0, 3)) == 0
        ]
    else:
        edges = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=4 * n,
            )
        )
    weights = None
    if edges and draw(st.booleans()):
        weights = [
            float(w)
            for w in draw(
                st.lists(
                    st.integers(1, 6), min_size=len(edges),
                    max_size=len(edges),
                )
            )
        ]
    graph = from_edges(n, edges, weights=weights)
    vertex_weights = None
    if draw(st.booleans()):
        vertex_weights = np.array(
            draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
            dtype=np.float64,
        )
    return {
        "graph": graph,
        "vertex_weights": vertex_weights,
        "target_fraction": draw(st.floats(0.05, 0.95)),
        "imbalance": draw(st.floats(0.0, 0.6)),
        "bit_generator": draw(
            st.sampled_from((np.random.PCG64, np.random.MT19937))
        ),
    }


@given(inputs=ladder_inputs())
@settings(max_examples=60, deadline=None)
def test_bisect_ladder_matches_twins_random(inputs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        graph = inputs.pop("graph")
        assert_bisect_tiers_match(monkeypatch, graph, **inputs)


def partition_outcomes(graph, engine, num_parts, bit_generator):
    rng = np.random.Generator(bit_generator(5))
    with use_engine(engine):
        result = partition_graph(graph, num_parts, seed=rng)
        split = vertex_separator(graph, seed=rng)
    return (
        result.assignment, result.cut,
        split.left, split.right, split.separator,
        rng.bit_generator.state,
    )


@pytest.mark.parametrize("graph_name", sorted(LADDER_GRAPHS))
@pytest.mark.parametrize("num_parts", (2, 5))
def test_partition_and_separator_match_twins(graph_name, num_parts):
    graph = LADDER_GRAPHS[graph_name]
    outcomes = [
        partition_outcomes(graph, engine, num_parts, np.random.MT19937)
        for engine in TIERS
    ]
    for other in outcomes[1:]:
        for x, y in zip(outcomes[0][:-1], other[:-1]):
            assert np.array_equal(x, y)
        assert native_fm._same_state(outcomes[0][-1], other[-1])


@given(inputs=ladder_inputs(), num_parts=st.integers(2, 7))
@settings(max_examples=25, deadline=None)
def test_partition_and_separator_match_twins_random(inputs, num_parts):
    graph, bit_generator = inputs["graph"], inputs["bit_generator"]
    native = partition_outcomes(graph, "native", num_parts, bit_generator)
    vector = partition_outcomes(graph, "vector", num_parts, bit_generator)
    for x, y in zip(native[:-1], vector[:-1]):
        assert np.array_equal(x, y)
    assert native_fm._same_state(native[-1], vector[-1])


@pytest.mark.parametrize("scheme_name", ("metis", "nested_dissection"))
@pytest.mark.parametrize("graph_name", sorted(LADDER_GRAPHS))
def test_partition_orderings_match_all_tiers(scheme_name, graph_name):
    graph = LADDER_GRAPHS[graph_name]
    results = [
        order_with(scheme_name, graph, engine) for engine in TIERS
    ]
    for other in results[1:]:
        assert np.array_equal(results[0].permutation, other.permutation)
        assert results[0].cost == other.cost


@pytest.mark.parametrize("scheme_name", ("metis", "nested_dissection"))
@given(inputs=ladder_inputs())
@settings(max_examples=15, deadline=None)
def test_partition_orderings_match_twins_random(scheme_name, inputs):
    graph = inputs["graph"]
    native = order_with(scheme_name, graph, "native")
    vector = order_with(scheme_name, graph, "vector")
    assert np.array_equal(native.permutation, vector.permutation)
    assert native.cost == vector.cost


@pytest.mark.parametrize(
    "case",
    ("fractional edge", "fractional vertex", "huge edge", "huge vertex"),
)
def test_bisect_ladder_declines_inexact_weights(monkeypatch, case):
    if not ladder_available():
        pytest.skip("partition_fm kernel unavailable")
    base = LADDER_GRAPHS["weighted"]
    edge_w = base.weights.copy()
    vertex_weights = np.ones(base.num_vertices)
    if case == "fractional edge":
        edge_w[::7] += 0.5
    elif case == "fractional vertex":
        vertex_weights[3] = 1.25
    elif case == "huge edge":
        edge_w[:] = 2.0**52  # integral, but the sum passes 2**53
    else:
        vertex_weights[7] = 2.0**53
    graph = CSRGraph(base.indptr, base.indices, edge_w)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    declined = native_fm.bisect_ladder(graph, vertex_weights, 0.5, 0.1, rng)
    assert declined is None
    # declined before any draw
    assert native_fm._same_state(rng.bit_generator.state, before)
    assert_same_outcome(
        bisect_outcome(graph, "native", vertex_weights=vertex_weights),
        bisect_outcome(graph, "vector", vertex_weights=vertex_weights),
    )


@given(
    script=st.lists(
        st.one_of(
            st.tuples(st.just(0), st.integers(0, 300)),
            st.tuples(
                st.just(1),
                st.one_of(
                    st.integers(1, 70), st.integers(1, 2**32),
                    st.sampled_from((2**31 + 1, 3 * 2**30, 2**32)),
                ),
            ),
        ),
        min_size=1,
        max_size=30,
    ),
    seed=st.integers(0, 2**32),
    bit_generator=st.sampled_from((np.random.PCG64, np.random.MT19937)),
)
@settings(max_examples=40, deadline=None)
def test_rng_replicas_match_numpy(script, seed, bit_generator):
    """permutation/integers replicas: same draws, same final state."""
    lib = native_fm.KERNEL.lib()
    if lib is None:
        pytest.skip("partition_fm kernel unavailable")
    ops = np.array(script, dtype=np.int64)
    native = np.random.Generator(bit_generator(seed))
    reference = np.random.Generator(bit_generator(seed))
    expected = native_fm._numpy_draws(reference, ops)
    got = native_fm._native_draws(lib, native, ops, expected.size)
    assert np.array_equal(got, expected)
    assert native_fm._same_state(
        native.bit_generator.state, reference.bit_generator.state
    )


def test_probe_accepts_numpy_generators():
    if not ladder_available():
        pytest.skip("partition_fm kernel unavailable")
    lib = native_fm.KERNEL.lib()
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        rng = np.random.Generator(bit_generator(2))
        before = rng.bit_generator.state
        assert native_fm._probe(lib, rng)
        # the probe draws from copies only
        assert native_fm._same_state(rng.bit_generator.state, before)


# ---------------------------------------------------------------------------
# Bit-identity: delta-stepping through the native tier
# ---------------------------------------------------------------------------
def assert_same_sssp(a, b):
    dist_a, items_a = a
    dist_b, items_b = b
    assert np.array_equal(dist_a, dist_b, equal_nan=True)
    assert len(items_a) == len(items_b)
    for x, y in zip(items_a, items_b):
        assert np.array_equal(x.lines, y.lines)
        assert x.compute_cycles == y.compute_cycles


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_delta_stepping_matches_scalar(graph_name):
    graph = GRAPHS[graph_name]
    native = delta_stepping(graph, 0, engine="native")
    scalar = delta_stepping(graph, 0, engine="scalar")
    assert_same_sssp(native, scalar)


@given(
    n=st.integers(2, 24),
    edges=st.lists(
        st.tuples(
            st.integers(0, 23),
            st.integers(0, 23),
            st.floats(0.1, 4.0, allow_nan=False),
        ),
        min_size=0,
        max_size=80,
    ),
    source=st.integers(0, 23),
)
@settings(max_examples=10, deadline=None)
def test_native_delta_stepping_weighted_random(n, edges, source):
    pairs = [(u % n, v % n) for u, v, _w in edges]
    weights = [round(w, 3) for _u, _v, w in edges]
    graph = from_edges(n, pairs, weights=weights)
    native = delta_stepping(graph, source % n, engine="native")
    scalar = delta_stepping(graph, source % n, engine="scalar")
    assert_same_sssp(native, scalar)


# ---------------------------------------------------------------------------
# Bit-identity: multi-phase Louvain through the louvain_sweep kernel
# ---------------------------------------------------------------------------
def louvain_with(graph, engine, order=None):
    with use_engine(engine):
        return louvain(graph, vertex_order=order)


def assert_same_louvain(a, b):
    assert np.array_equal(a.communities, b.communities)
    assert a.modularity == b.modularity
    # PhaseStats/IterationStats are frozen dataclasses: == compares
    # moves, modularity, communities_scanned and edges_scanned exactly
    # for every sweep of every phase.
    assert a.phases == b.phases


@pytest.mark.parametrize("shuffled", (False, True))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_louvain_matches_twins(graph_name, shuffled):
    graph = GRAPHS[graph_name]
    order = (
        np.random.default_rng(7).permutation(graph.num_vertices)
        if shuffled
        else None
    )
    native = louvain_with(graph, "native", order)
    assert_same_louvain(native, louvain_with(graph, "scalar", order))
    assert_same_louvain(native, louvain_with(graph, "vector", order))


@given(
    n=st.integers(2, 40),
    edges=st.lists(
        st.tuples(
            st.integers(0, 39),
            st.integers(0, 39),
            st.floats(0.1, 4.0, allow_nan=False),
        ),
        min_size=0,
        max_size=160,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_native_louvain_weighted_random_order(n, edges, seed):
    pairs = [(u % n, v % n) for u, v, _w in edges]
    weights = [round(w, 3) for _u, _v, w in edges]
    graph = from_edges(n, pairs, weights=weights)
    order = np.random.default_rng(seed).permutation(n)
    native = louvain_with(graph, "native", order)
    assert_same_louvain(native, louvain_with(graph, "scalar", order))
    assert_same_louvain(native, louvain_with(graph, "vector", order))


def test_native_louvain_sweep_skips_list_copies():
    from repro._native import louvain as native_louvain

    if native_louvain.KERNEL.lib() is None:
        pytest.skip("louvain kernel unavailable")
    graph = GRAPHS["random"]
    order = np.arange(graph.num_vertices, dtype=np.int64)
    loops = np.zeros(graph.num_vertices)
    native = _LouvainState(graph, loops)
    vector = _LouvainState(graph, loops)
    with use_engine("native"):
        stats = native.sweep(order)
        scratch = native._scratch
        assert native.sweep(order) is not None
        assert native._scratch is scratch  # allocated once per level
    with use_engine("vector"):
        expected = vector.sweep(order)
        vector.sweep(order)
    assert stats == expected
    assert native._adj is None and native._adj_w is None
    assert np.array_equal(native.community, vector.community)
    assert np.array_equal(native.comm_tot, vector.comm_tot)
    assert not scratch.acc.any() and not scratch.seen.any()


def test_native_louvain_refuses_mismatched_buffers():
    from repro._native import louvain as native_louvain

    graph = GRAPHS["random"]
    n = graph.num_vertices
    scratch = native_louvain.Scratch(
        graph.indptr, graph.indices, graph.weights
    )
    k = np.ones(n)
    order = np.arange(n, dtype=np.int64)
    community = np.arange(n, dtype=np.int64)
    comm_tot = np.ones(n)
    bad = {
        "short order": (k, order[:-1], community, comm_tot),
        "int32 community": (k, order, community.astype(np.int32), comm_tot),
        "strided comm_tot": (k, order, community, np.ones(2 * n)[::2]),
        "short k": (k[:-1], order, community, comm_tot),
    }
    for name, (k_, order_, community_, comm_tot_) in bad.items():
        result = native_louvain.run(
            scratch, k_, order_, float(n), community_, comm_tot_
        )
        assert result is None, name
    assert np.array_equal(community, np.arange(n))  # untouched


# ---------------------------------------------------------------------------
# Region replay: one simulated parallel region per kernel call
# ---------------------------------------------------------------------------
def region_items(seed, num_items=50):
    rng = np.random.default_rng(seed)
    return [
        WorkItem(
            lines=rng.integers(0, 1500, size=int(rng.integers(0, 1300))),
            compute_cycles=int(rng.integers(0, 3)),
        )
        for _ in range(num_items)
    ]


def region_outcome(result):
    return result.thread_cycles, result.thread_loads, result.report


REGION_CONFIGS = {
    "default": HierarchyConfig(),
    "small": HierarchyConfig.for_scale(0.05),
}


@pytest.mark.parametrize("config_name", sorted(REGION_CONFIGS))
@pytest.mark.parametrize("threads", (1, 3, 8))
def test_region_replay_matches_twins(monkeypatch, config_name, threads):
    from repro._native import replay as native_replay

    config = REGION_CONFIGS[config_name]
    items = region_items(threads)
    per_thread = [items[t::threads] for t in range(threads)]
    machine = SimulatedMachine(threads, config)
    native_static = region_outcome(machine.run(per_thread))
    native_dynamic = region_outcome(machine.run_dynamic(items, chunk=3))
    assert native_static == region_outcome(machine.run_reference(per_thread))
    monkeypatch.setattr(native_replay.KERNEL, "_lib", None)
    monkeypatch.setattr(native_replay.KERNEL, "_tried", True)
    assert native_static == region_outcome(machine.run(per_thread))
    assert native_dynamic == region_outcome(
        machine.run_dynamic(items, chunk=3)
    )


def test_region_replay_declines_bad_input():
    from repro._native import replay as native_replay

    if native_replay.KERNEL.lib() is None:
        pytest.skip("region_replay kernel unavailable")
    config = HierarchyConfig()
    items = region_items(5, num_items=6)
    owner = np.zeros(len(items), dtype=np.int64)
    assert native_replay.run(config, 2, items, owner=owner) is not None
    bad = {
        "no threads": (0, items, owner),
        "owner out of range": (2, items, owner + 2),
        "negative owner": (2, items, owner - 1),
        "short owner": (2, items, owner[:-1]),
        "negative line": (
            2, [*items, WorkItem(lines=np.array([3, -1]))], None
        ),
        "float compute": (
            2, [*items, WorkItem(lines=np.array([3]), compute_cycles=0.5)],
            None,
        ),
    }
    for name, (threads, items_, owner_) in bad.items():
        result = native_replay.run(config, threads, items_, owner=owner_)
        assert result is None, name
    prefetch = HierarchyConfig(prefetch_next_line=True)
    assert native_replay.run(prefetch, 2, items) is None


# ---------------------------------------------------------------------------
# Greedy max-coverage: one IMM seed selection per kernel call
# ---------------------------------------------------------------------------
def greedy_sets(member_lists):
    from repro.apps.influence_max import RRRSet

    return [
        RRRSet(root=0, vertices=np.asarray(m, dtype=np.int64),
               edges_examined=0)
        for m in member_lists
    ]


def greedy_outcome(sets, n, k, engine):
    """A tier's ``(seeds, fraction, operations)``, or the error it raised."""
    from repro.apps.influence_max import greedy_seed_selection

    try:
        return greedy_seed_selection(sets, n, k, engine=engine)
    except (ValueError, IndexError) as exc:
        return type(exc)


def assert_greedy_tiers_match(member_lists, n, k):
    from repro._native import greedy as native_greedy

    sets = greedy_sets(member_lists)
    scalar = greedy_outcome(sets, n, k, "scalar")
    assert greedy_outcome(sets, n, k, "vector") == scalar
    assert greedy_outcome(sets, n, k, "native") == scalar
    if native_greedy.KERNEL.lib() is not None:
        assert native_greedy.run(sets, n, k) == scalar


GREEDY_CASES = {
    "no sets": ([], 5, 3),
    "no vertices": ([[], []], 0, 4),
    "one vertex": ([[0], [], [0, 0]], 1, 3),
    "empty sets only": ([[], [], []], 4, 2),
    "all tied": ([[0], [1], [2], [3]], 4, 2),
    "tie after cover": ([[0, 1], [1, 2], [2, 3], [3, 0]], 4, 4),
    "repeats in a set": ([[2, 2, 2], [1, 1], [1]], 3, 3),
    "k above n": ([[0, 1], [2], [1, 2]], 3, 50),
    "k zero": ([[0, 1]], 2, 0),
    "k negative": ([[0, 1]], 2, -1),
}


@pytest.mark.parametrize("case", sorted(GREEDY_CASES))
def test_greedy_cover_matches_twins(case):
    assert_greedy_tiers_match(*GREEDY_CASES[case])


@st.composite
def greedy_inputs(draw):
    n = draw(st.integers(0, 14))
    member = st.integers(0, n - 1) if n else st.nothing()
    member_lists = draw(st.lists(
        st.lists(member, max_size=8 if n else 0), max_size=30
    ))
    k = draw(st.integers(-1, n + 3))
    return member_lists, n, k


@given(inputs=greedy_inputs())
@settings(max_examples=120, deadline=None)
def test_greedy_cover_matches_twins_random(inputs):
    assert_greedy_tiers_match(*inputs)


@pytest.mark.parametrize("bad", (-1, 6))
def test_greedy_cover_declines_out_of_range_member(bad):
    from repro._native import greedy as native_greedy

    sets = greedy_sets([[0, 1], [2, bad], [3]])
    assert native_greedy.run(sets, 6, 2) is None
    assert greedy_outcome(sets, 6, 2, "vector") is ValueError
    assert greedy_outcome(sets, 6, 2, "native") is ValueError
    assert greedy_outcome(sets, 6, 2, "scalar") is ValueError
    # a negative id must not wrap around to vertex n + id
    wrapped = greedy_sets([[0, bad], [bad]])
    assert greedy_outcome(wrapped, 3, 1, "scalar") is ValueError


# ---------------------------------------------------------------------------
# Thread invariance: a leftover REPRO_NATIVE_THREADS changes nothing
# ---------------------------------------------------------------------------
def test_rrr_sampling_thread_invariant(monkeypatch):
    from repro.apps.batch import sample_rrr_ic_pinned_batch
    from repro.apps.influence_max import sample_rrr_ic_pinned

    graph = GRAPHS["random"]
    n = graph.num_vertices
    original_of = np.arange(n, dtype=np.int64)
    num_samples = 24
    roots = np.random.default_rng(2).integers(
        n, size=num_samples
    ).astype(np.int64)
    sample_indices = np.arange(num_samples, dtype=np.int64)

    def run():
        with use_engine("native"):
            return sample_rrr_ic_pinned_batch(
                graph, 0.3, roots, original_of, sample_indices, 9
            )

    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    native = run()
    scalar = [
        sample_rrr_ic_pinned(
            graph, 0.3, int(roots[i]), original_of,
            int(sample_indices[i]), 9, engine="scalar",
        )
        for i in range(num_samples)
    ]
    assert len(native) == len(scalar)
    for a, c in zip(native, scalar):
        assert a.root == c.root
        assert np.array_equal(a.vertices, c.vertices)
        assert a.edges_examined == c.edges_examined


def test_delta_stepping_thread_invariant(monkeypatch):
    graph = GRAPHS["random"]
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    native = delta_stepping(graph, 0, engine="native")
    scalar = delta_stepping(graph, 0, engine="scalar")
    assert_same_sssp(native, scalar)


@pytest.mark.parametrize(
    "scheme_name", ("degree_sort", "hub_sort", "hub_cluster", "dbg")
)
def test_degree_orderings_thread_invariant(scheme_name, monkeypatch):
    graph = GRAPHS["random"]
    scalar = order_with(scheme_name, graph, "scalar")
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    native = order_with(scheme_name, graph, "native")
    assert np.array_equal(native.permutation, scalar.permutation)
    assert native.cost == scalar.cost
    assert strip_engine_metadata(native.metadata) == (
        strip_engine_metadata(scalar.metadata)
    )


def test_degree_ordering_no_native_gate(monkeypatch):
    kernel = native_core.get_kernel("counting_sort")
    graph = GRAPHS["random"]
    scalar = order_with("hub_sort", graph, "scalar")
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    kernel.reset()
    try:
        gated = order_with("hub_sort", graph, "native")
    finally:
        monkeypatch.delenv("REPRO_NO_NATIVE")
        kernel.reset()
    assert np.array_equal(gated.permutation, scalar.permutation)
    assert gated.metadata["engine"] != "native"  # argsort fallback ran


# ---------------------------------------------------------------------------
# Counting-sort kernel: direct parity with the stable argsort
# ---------------------------------------------------------------------------
@given(keys=st.lists(st.integers(0, 15), min_size=0, max_size=200))
@settings(max_examples=20, deadline=None)
def test_counting_sort_matches_stable_argsort(keys):
    from repro._native import counting

    if counting.KERNEL.lib() is None:
        pytest.skip("counting kernel unavailable")
    arr = np.asarray(keys, dtype=np.int64)
    out = counting.run(arr, 16)
    assert out is not None
    assert np.array_equal(out, np.argsort(arr, kind="stable"))


def test_counting_sort_declines_oversized_buckets():
    from repro._native import counting

    keys = np.zeros(4, dtype=np.int64)
    assert counting.run(keys, counting._MAX_BUCKETS + 1) is None
    assert counting.run(keys, 0) is None


# ---------------------------------------------------------------------------
# Build cache: the compiler survives a cache hit via the sidecar
# ---------------------------------------------------------------------------
def test_build_info_reports_compiler_on_cache_hit():
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    compiled_with = kernel.build_info()["compiler"]
    assert compiled_with
    kernel.reset()
    assert kernel.lib() is not None
    info = kernel.build_info()
    assert info["cache_hit"] is True
    assert info["compiler"] == compiled_with


# ---------------------------------------------------------------------------
# Sanitizer build profiles: knob parsing, flags, and per-profile caching
# ---------------------------------------------------------------------------
def test_sanitize_profile_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
    assert native_core.sanitize_profile() is None
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "")
    assert native_core.sanitize_profile() is None
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", " ASan ")
    assert native_core.sanitize_profile() == "asan"
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "msan")
    with pytest.raises(ValueError, match="msan"):
        native_core.sanitize_profile()


def test_malformed_sanitize_knob_fails_loudly(monkeypatch):
    """A typo'd knob must raise, never silently build uninstrumented."""
    kernel = native_core.get_kernel("counting_sort")
    kernel.reset()
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "nope")
    try:
        with pytest.raises(ValueError, match="nope"):
            kernel.lib()
    finally:
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        kernel.reset()


def test_build_flags_per_profile():
    kernel = native_core.get_kernel("counting_sort")
    plain = kernel.build_flags(None)
    assert "-O3" in plain and "-Werror" not in plain
    for profile, extra in native_core.SANITIZE_PROFILES.items():
        flags = kernel.build_flags(profile)
        for flag in extra:
            assert flag in flags
        # instrumented builds keep symbols and promote warnings
        assert "-g" in flags and "-Werror" in flags
        assert "-O3" not in flags


def test_so_cache_keyed_per_profile():
    """Instrumented .so files never shadow the -O3 build (or each other)."""
    kernel = native_core.get_kernel("counting_sort")
    paths = {
        kernel._so_path(p)
        for p in (None, *native_core.SANITIZE_PROFILES)
    }
    assert len(paths) == 1 + len(native_core.SANITIZE_PROFILES)
    assert all(kernel.source_digest in p for p in paths)


def test_ubsan_profile_builds_and_reports():
    """REPRO_NATIVE_SANITIZE=ubsan recompiles with the sanitizer flags
    (ubsan needs no runtime preload, so it can run inside this suite).

    The ambient knob is restored by hand — not via monkeypatch — so the
    kernel is rebuilt under whatever profile the enclosing leg runs
    (the sanitize legs execute this very test with the knob set)."""
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    ambient = os.environ.get("REPRO_NATIVE_SANITIZE")
    os.environ["REPRO_NATIVE_SANITIZE"] = "ubsan"
    kernel.reset()
    try:
        info = kernel.build_info()
        assert info["available"] is True
        assert info["profile"] == "ubsan"
        assert "-fsanitize=undefined" in info["flags"]
        assert "-Werror" in info["flags"]
    finally:
        if ambient is None:
            os.environ.pop("REPRO_NATIVE_SANITIZE", None)
        else:
            os.environ["REPRO_NATIVE_SANITIZE"] = ambient
        kernel.reset()
    assert kernel.lib() is not None
    assert kernel.build_info()["profile"] == native_core.sanitize_profile()


# ---------------------------------------------------------------------------
# Build provenance: sidecar records version + flags; $CC wrappers work
# ---------------------------------------------------------------------------
def test_sidecar_records_version_and_flags():
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    info = kernel.build_info()
    assert info["compiler_version"]
    # whatever profile is ambient (the sanitize legs re-run this test
    # with REPRO_NATIVE_SANITIZE set), the recorded flags must match it
    assert info["flags"] == kernel.build_flags(info["profile"])
    kernel.reset()
    assert kernel.lib() is not None
    cached = kernel.build_info()
    assert cached["cache_hit"] is True
    assert cached["compiler_version"] == info["compiler_version"]
    assert cached["flags"] == info["flags"]


def test_compiler_honors_cc_wrapper_with_args(monkeypatch):
    if not shutil.which("cc"):
        pytest.skip("no cc on PATH")
    monkeypatch.setenv("CC", "cc -pipe")
    assert native_core._compiler() == ["cc", "-pipe"]


def test_compiler_falls_back_past_a_bogus_cc(monkeypatch):
    monkeypatch.setenv("CC", "definitely-not-a-compiler --fast")
    argv = native_core._compiler()
    assert argv is None or argv[0] != "definitely-not-a-compiler"


def test_compiler_version_is_one_line():
    cc = native_core._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    version = native_core._compiler_version(cc)
    assert version and "\n" not in version


# ---------------------------------------------------------------------------
# Compile failures surface their diagnostics instead of vanishing
# ---------------------------------------------------------------------------
BROKEN_SRC = (
    "#include <stdint.h>\n"
    "int64_t broken(void) { return missing_symbol; }\n"
)


def test_compile_failure_surfaces_stderr(monkeypatch):
    if native_core._compiler() is None:
        pytest.skip("no C compiler")
    # the soft path below goes through lib(), which the no-native leg
    # of `make bench-native` would otherwise short-circuit
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    kernel = native_core.NativeKernel(
        "test_broken_fixture",
        BROKEN_SRC,
        symbols={},
        scalar_twin="builtins:sum",
        vector_twin="builtins:sum",
    )
    try:
        with pytest.raises(native_core.NativeBuildError) as excinfo:
            kernel._build(None)
        assert "missing_symbol" in excinfo.value.stderr
        assert "test_broken_fixture" in str(excinfo.value)
        # the soft path opens the circuit breaker and keeps the diagnosis
        assert kernel.lib() is None
        info = kernel.build_info()
        assert info["available"] is False
        assert info["degraded"] is True
        assert info["status"].startswith("degraded: ")
        assert "failed to compile" in info["status"]
        assert "missing_symbol" in info["compile_stderr"]
        assert "breaker open (native-build-fail)" in info["fallback"]
    finally:
        native_core._KERNELS.pop("test_broken_fixture", None)

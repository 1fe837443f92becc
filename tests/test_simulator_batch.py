"""Property tests: the batched replay engines vs the per-access model.

The batched engine (`repro.simulator.batch`) must be *bit-identical* to
the scalar `Cache`/`MemoryHierarchy` replay — same hits, same misses,
same writebacks, same final resident state — on arbitrary traces and
cache geometries, through both the compiled kernel and the pure-Python
fallback.  The reuse-distance engine must agree with brute force and
with an actual fully-associative cache.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._native import replay as native_replay
from repro.analysis import sanitize
from repro.simulator import (
    Cache,
    CacheConfig,
    HierarchyConfig,
    MemoryHierarchy,
    cache_access_batch,
    hierarchy_access_batch,
    hit_ratio_curve,
    lru_stack_distances,
    miss_ratio_curve,
    report_from_counters,
)
from repro.simulator import _native, batch
from repro.simulator.parallel import (
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
)
from tests.conftest import dynamic_reference

GEOMETRIES = [
    CacheConfig(1 * 64, 64, 1),     # one set, one way
    CacheConfig(4 * 64, 64, 1),     # direct-mapped
    CacheConfig(8 * 64, 64, 8),     # single set, fully associative
    CacheConfig(16 * 64, 64, 4),    # 4 sets x 4 ways
    CacheConfig(64 * 64, 64, 8),    # 8 sets x 8 ways
]


def scalar_replay(cache, lines):
    """Ground truth: the per-access loop over the same cache."""
    return np.array([cache.access(int(x)) for x in lines], dtype=bool)


def warmed_pair(config, warmup):
    """Two caches in the same state after a scalar warmup with stores."""
    a, b = Cache(config), Cache(config)
    for i, line in enumerate(warmup):
        store = i % 3 == 0  # leave a mix of dirty and clean lines
        a.access(int(line), store=store)
        b.access(int(line), store=store)
    return a, b


def assert_same_state(a, b):
    assert a._sets == b._sets  # tags, dirty bits, and LRU order
    assert a.stats == b.stats
    assert a.writebacks == b.writebacks


def disable_native(monkeypatch):
    """Turn off the LRU and region-replay kernels for ``monkeypatch``'s
    lifetime, so every replay runs the pure-Python engine."""
    monkeypatch.setattr(_native, "_tried", True)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(native_replay.KERNEL, "_tried", True)
    monkeypatch.setattr(native_replay.KERNEL, "_lib", None)


@pytest.fixture
def python_fallback(monkeypatch):
    """Force the pure-Python replay path regardless of the toolchain."""
    disable_native(monkeypatch)


class TestCacheAccessBatch:
    @pytest.mark.parametrize("config", GEOMETRIES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_scalar(self, config, data):
        warmup = data.draw(
            st.lists(st.integers(0, 200), max_size=60), label="warmup"
        )
        trace = data.draw(
            st.lists(st.integers(0, 200), min_size=1, max_size=250),
            label="trace",
        )
        a, b = warmed_pair(config, warmup)
        expected = scalar_replay(a, trace)
        got = cache_access_batch(b, np.asarray(trace, dtype=np.int64))
        assert np.array_equal(got, expected)
        assert_same_state(a, b)

    @pytest.mark.parametrize("config", GEOMETRIES)
    def test_python_path_matches_scalar(self, config, python_fallback):
        rng = np.random.default_rng(7)
        for _ in range(10):
            warmup = rng.integers(0, 150, size=40)
            trace = rng.integers(0, 150, size=300)
            a, b = warmed_pair(config, warmup)
            expected = scalar_replay(a, trace)
            got = cache_access_batch(b, trace)
            assert np.array_equal(got, expected)
            assert_same_state(a, b)

    def test_empty_trace(self):
        cache = Cache(GEOMETRIES[3])
        got = cache_access_batch(cache, np.array([], dtype=np.int64))
        assert got.size == 0
        assert cache.stats.accesses == 0

    def test_native_and_python_paths_agree(self, monkeypatch):
        if _native.lib() is None:
            pytest.skip("no compiler available for the native kernel")
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 400, size=2000)
        native_cache = Cache(GEOMETRIES[4])
        native_hits = cache_access_batch(native_cache, trace)
        monkeypatch.setattr(_native, "_lib", None)
        python_cache = Cache(GEOMETRIES[4])
        python_hits = cache_access_batch(python_cache, trace)
        assert np.array_equal(native_hits, python_hits)
        assert_same_state(native_cache, python_cache)


class TestHierarchyAccessBatch:
    @given(
        trace=st.lists(st.integers(0, 600), min_size=1, max_size=400),
        threads=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar(self, trace, threads):
        scalar = MemoryHierarchy(threads)
        batched = MemoryHierarchy(threads)
        lines = np.asarray(trace, dtype=np.int64)
        t = threads - 1
        expected = np.array(
            [scalar.access(t, int(x)) for x in lines], dtype=np.int64
        )
        # force the batched path even for tiny hypothesis traces
        saved = batch.SCALAR_CUTOFF
        batch.SCALAR_CUTOFF = 0
        try:
            got = hierarchy_access_batch(batched, t, lines)
        finally:
            batch.SCALAR_CUTOFF = saved
        assert np.array_equal(got, expected)
        for l1a, l1b in zip(scalar.l1, batched.l1):
            assert_same_state(l1a, l1b)
        for l2a, l2b in zip(scalar.l2, batched.l2):
            assert_same_state(l2a, l2b)
        assert_same_state(scalar.l3, batched.l3)
        assert scalar.merged_counters() == batched.merged_counters()

    def test_short_trace_uses_scalar_path(self):
        # below the cutoff the scalar loop runs; results stay identical
        trace = np.arange(batch.SCALAR_CUTOFF - 1, dtype=np.int64) % 97
        scalar = MemoryHierarchy(1)
        batched = MemoryHierarchy(1)
        expected = np.array(
            [scalar.access(0, int(x)) for x in trace], dtype=np.int64
        )
        assert np.array_equal(
            hierarchy_access_batch(batched, 0, trace), expected
        )

    def test_prefetcher_falls_back_to_scalar(self):
        cfg = HierarchyConfig(prefetch_next_line=True)
        trace = np.arange(3000, dtype=np.int64) % 511
        scalar = MemoryHierarchy(1, cfg)
        batched = MemoryHierarchy(1, cfg)
        expected = np.array(
            [scalar.access(0, int(x)) for x in trace], dtype=np.int64
        )
        got = hierarchy_access_batch(batched, 0, trace)
        assert np.array_equal(got, expected)
        assert scalar.merged_counters() == batched.merged_counters()


def random_region(rng, num_threads, num_items=60, lines_per_item=40):
    items = [
        WorkItem(
            lines=rng.integers(0, 800, size=rng.integers(1, lines_per_item)),
            compute_cycles=int(rng.integers(0, 20)),
        )
        for _ in range(num_items)
    ]
    schedule = static_block_schedule(len(items), num_threads)
    return [[items[i] for i in idx] for idx in schedule]


class TestRunExactRegion:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_run_matches_reference(self, threads):
        rng = np.random.default_rng(threads)
        per_thread = random_region(rng, threads)
        machine = SimulatedMachine(threads)
        reference = machine.run_reference(per_thread)
        batched = machine.run(per_thread)
        assert batched.thread_cycles == reference.thread_cycles
        assert batched.thread_loads == reference.thread_loads
        assert batched.report == reference.report

    def test_run_matches_reference_python_path(self, python_fallback):
        rng = np.random.default_rng(3)
        per_thread = random_region(rng, 4)
        machine = SimulatedMachine(4)
        assert (
            machine.run(per_thread).report
            == machine.run_reference(per_thread).report
        )

    def test_prefetch_config_still_exact(self):
        rng = np.random.default_rng(5)
        per_thread = random_region(rng, 2)
        machine = SimulatedMachine(
            2, HierarchyConfig(prefetch_next_line=True)
        )
        assert (
            machine.run(per_thread).report
            == machine.run_reference(per_thread).report
        )

    def test_empty_threads_ok(self):
        machine = SimulatedMachine(3)
        per_thread = [[WorkItem(lines=[1, 2, 3])], [], []]
        batched = machine.run(per_thread)
        reference = machine.run_reference(per_thread)
        assert batched.thread_cycles == reference.thread_cycles


#: tiny geometry: 2-set L1, 4-set L2, 8-set L3, so every level evicts.
TINY = HierarchyConfig(
    l1=CacheConfig(2 * 64, 64, 1),
    l2=CacheConfig(8 * 64, 64, 2),
    l3=CacheConfig(16 * 64, 64, 2),
)


@st.composite
def work_items(draw, *, negative):
    """Items with empty, short and above-``SCALAR_CUTOFF`` line streams.

    Compute cycles are mostly 0 or 1, so clocks tie often and the
    lowest-thread-id tie-break is exercised.  With ``negative`` some
    lines are negative, which the kernel must decline.
    """
    low = -40 if negative else 0
    items = []
    for _ in range(draw(st.integers(0, 14), label="num_items")):
        kind = draw(st.sampled_from(["empty", "short", "short", "long"]))
        if kind == "empty":
            lines = np.zeros(0, dtype=np.int64)
        elif kind == "short":
            lines = np.asarray(
                draw(st.lists(st.integers(low, 300), min_size=1, max_size=40)),
                dtype=np.int64,
            )
        else:
            seed = draw(st.integers(0, 2**16))
            size = batch.SCALAR_CUTOFF + draw(st.integers(0, 200))
            lines = np.random.default_rng(seed).integers(low, 900, size=size)
        compute = draw(st.sampled_from([0, 0, 1, 1, 7, 250]))
        items.append(WorkItem(lines=lines, compute_cycles=compute))
    return items


def expected_result(num_threads, items, chunk, config):
    """The per-access dynamic oracle as an ExecutionResult."""
    clocks, hierarchy, compute = dynamic_reference(
        num_threads, items, chunk=chunk, config=config
    )
    return (
        tuple(clocks),
        tuple(c.loads for c in hierarchy.counters),
        report_from_counters(hierarchy.merged_counters(), compute),
    )


def outcome(result):
    return result.thread_cycles, result.thread_loads, result.report


@contextlib.contextmanager
def kernel_calls():
    """Record, per ``region_replay`` dispatch, whether the kernel ran."""
    calls: list[bool] = []
    real = native_replay.run

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native_replay, "run", spy)
        yield calls


def has_negative(items):
    return any(item.lines.size and item.lines.min() < 0 for item in items)


class TestRegionReplayDynamic:
    """``run_dynamic``: native kernel == Python loop == per-access oracle."""

    @given(
        data=st.data(),
        threads=st.integers(1, 8),
        config=st.sampled_from([TINY, HierarchyConfig()]),
        negative=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiers_match_oracle(self, data, threads, config, negative):
        items = data.draw(work_items(negative=negative), label="items")
        chunk = data.draw(st.integers(1, len(items) + 3), label="chunk")
        machine = SimulatedMachine(threads, config)
        expected = expected_result(threads, items, chunk, config)
        with kernel_calls() as calls:
            native = machine.run_dynamic(items, chunk=chunk)
        assert outcome(native) == expected
        available = native_replay.KERNEL.lib() is not None
        assert calls == [available and not has_negative(items)]
        with pytest.MonkeyPatch.context() as mp:
            disable_native(mp)
            python = machine.run_dynamic(items, chunk=chunk)
        assert outcome(python) == expected

    def test_ties_go_to_lowest_thread(self):
        # zero-cost empty items never advance a clock: thread 0 takes all
        items = [WorkItem(lines=np.zeros(0, np.int64))] * 5
        items.append(WorkItem(lines=np.arange(3), compute_cycles=2))
        result = SimulatedMachine(4).run_dynamic(items, chunk=1)
        assert result.thread_cycles == (2 + 3 * 200, 0, 0, 0)

    def test_prefetcher_declines(self):
        config = HierarchyConfig(prefetch_next_line=True)
        items = [WorkItem(lines=np.arange(40) % 23, compute_cycles=3)] * 6
        with kernel_calls() as calls:
            result = SimulatedMachine(2, config).run_dynamic(items, chunk=2)
        assert calls == [False]
        assert outcome(result) == expected_result(2, items, 2, config)

    def test_sanitizer_still_checks_line_stream(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_SWITCH, "1")
        items = [WorkItem(lines=np.array([0.5, 1.5]))]
        with pytest.raises(sanitize.SanitizerError):
            SimulatedMachine(2).run_dynamic(items)


class TestRegionReplayStatic:
    """``run``: native kernel == ``run_exact_region`` == ``run_reference``."""

    @given(
        data=st.data(),
        threads=st.integers(1, 8),
        config=st.sampled_from([TINY, HierarchyConfig()]),
        negative=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiers_match_reference(self, data, threads, config, negative):
        items = data.draw(work_items(negative=negative), label="items")
        owners = data.draw(
            st.lists(
                st.integers(0, threads - 1),
                min_size=len(items),
                max_size=len(items),
            ),
            label="owners",
        )
        per_thread = [
            [item for item, t in zip(items, owners) if t == u]
            for u in range(threads)
        ]
        machine = SimulatedMachine(threads, config)
        expected = outcome(machine.run_reference(per_thread))
        with kernel_calls() as calls:
            native = machine.run(per_thread)
        assert outcome(native) == expected
        available = native_replay.KERNEL.lib() is not None
        assert calls == [available and not has_negative(items)]
        with pytest.MonkeyPatch.context() as mp:
            disable_native(mp)
            python = machine.run(per_thread)
        assert outcome(python) == expected

    @pytest.mark.parametrize("negative", [False, True])
    def test_one_shot_iterables(self, negative):
        rng = np.random.default_rng(4)
        per_thread = random_region(rng, 3)
        if negative:
            per_thread[1][0] = WorkItem(lines=np.array([-5, 3, -5]))
        machine = SimulatedMachine(3)
        expected = outcome(machine.run_reference(per_thread))
        result = machine.run([iter(items) for items in per_thread])
        assert outcome(result) == expected


def brute_force_distances(lines):
    out = []
    for i, line in enumerate(lines):
        prev = None
        for j in range(i - 1, -1, -1):
            if lines[j] == line:
                prev = j
                break
        if prev is None:
            out.append(-1)
        else:
            out.append(len(set(lines[prev + 1: i])))
    return np.asarray(out, dtype=np.int64)


class TestReuseDistances:
    @given(
        trace=st.lists(st.integers(0, 30), min_size=1, max_size=120)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, trace):
        got = lru_stack_distances(np.asarray(trace, dtype=np.int64))
        assert np.array_equal(got, brute_force_distances(trace))

    @pytest.mark.parametrize("capacity", [1, 2, 4, 8, 16])
    def test_curve_matches_fully_associative_cache(self, capacity):
        rng = np.random.default_rng(capacity)
        trace = rng.integers(0, 40, size=600)
        cache = Cache(CacheConfig(capacity * 64, 64, capacity))
        hits = scalar_replay(cache, trace)
        distances = lru_stack_distances(trace)
        (ratio,) = hit_ratio_curve(distances, [capacity])
        assert ratio == pytest.approx(hits.mean())
        (miss,) = miss_ratio_curve(distances, [capacity])
        assert miss == pytest.approx(1.0 - hits.mean())

    def test_curve_monotone_in_capacity(self):
        rng = np.random.default_rng(0)
        distances = lru_stack_distances(rng.integers(0, 64, size=500))
        curve = hit_ratio_curve(distances, [1, 2, 4, 8, 16, 32, 64, 128])
        assert np.all(np.diff(curve) >= 0)

    def test_empty_trace(self):
        distances = lru_stack_distances(np.array([], dtype=np.int64))
        assert distances.size == 0
        assert np.array_equal(
            hit_ratio_curve(distances, [4, 8]), [0.0, 0.0]
        )

"""Property tests: region replay and the reuse-distance engine.

Every simulated parallel region replays through two tiers, the
``region_replay`` kernel and the per-access loop
(``SimulatedMachine.run_reference`` for static regions, the
``MemoryHierarchy.access_batch`` schedule loop for dynamic ones).  Both
must be *bit-identical* to a per-access oracle of the schedule — same
cycles, loads and counter reports — on arbitrary items and geometries,
with and without the compiled kernel.  The reuse-distance engine must
agree with brute force and with an actual fully-associative cache.
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
    hit_ratio_curve,
    lru_stack_distances,
    miss_ratio_curve,
    report_from_counters,
)
from repro.simulator.parallel import (
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
)
from tests.conftest import dynamic_reference


def scalar_replay(cache, lines):
    """Ground truth: the per-access loop over the same cache."""
    return np.array([cache.access(int(x)) for x in lines], dtype=bool)


def assert_same_state(a, b):
    assert a._sets == b._sets  # tags, dirty bits, and LRU order
    assert a.stats == b.stats
    assert a.writebacks == b.writebacks


def disable_native(monkeypatch):
    """Turn off the region-replay kernel for ``monkeypatch``'s lifetime,
    so every replay runs the per-access loop."""
    monkeypatch.setattr(native_replay.KERNEL, "_tried", True)
    monkeypatch.setattr(native_replay.KERNEL, "_lib", None)


#: tiny geometry: 2-set L1, 4-set L2, 8-set L3, so every level evicts.
TINY = HierarchyConfig(
    l1=CacheConfig(2 * 64, 64, 1),
    l2=CacheConfig(8 * 64, 64, 2),
    l3=CacheConfig(16 * 64, 64, 2),
)

#: the next-line prefetcher, which the kernel declines.
PREFETCH = HierarchyConfig(prefetch_next_line=True)

CONFIGS = [TINY, HierarchyConfig(), PREFETCH]


class TestHierarchyAccessBatch:
    @given(
        chunks=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.integers(0, 600), max_size=200),
            ),
            min_size=1,
            max_size=6,
        ),
        config=st.sampled_from(CONFIGS),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar(self, chunks, config):
        """Chunks from several threads, prefetcher on and off."""
        scalar = MemoryHierarchy(3, config)
        batched = MemoryHierarchy(3, config)
        for t, trace in chunks:
            lines = np.asarray(trace, dtype=np.int64)
            expected = np.array(
                [scalar.access(t, int(x)) for x in lines], dtype=np.int64
            )
            assert np.array_equal(batched.access_batch(t, lines), expected)
        for l1a, l1b in zip(scalar.l1, batched.l1):
            assert_same_state(l1a, l1b)
        for l2a, l2b in zip(scalar.l2, batched.l2):
            assert_same_state(l2a, l2b)
        assert_same_state(scalar.l3, batched.l3)
        assert scalar.counters == batched.counters

    def test_prefetcher_falls_back_to_scalar(self):
        """A long prefetching trace: the kernel declines the prefetcher,
        so ``access_batch`` must equal the per-access loop exactly."""
        config = HierarchyConfig(prefetch_next_line=True)
        trace = np.arange(3000, dtype=np.int64) % 511
        scalar = MemoryHierarchy(1, config)
        batched = MemoryHierarchy(1, config)
        expected = np.array(
            [scalar.access(0, int(x)) for x in trace], dtype=np.int64
        )
        assert np.array_equal(batched.access_batch(0, trace), expected)
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


@st.composite
def work_items(draw, *, negative):
    """Items with empty, short and long (1024+ line) streams.

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
            size = 1024 + draw(st.integers(0, 200))
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


def kernel_runs(items, config):
    """Whether the kernel should take a region of ``items``."""
    available = native_replay.KERNEL.lib() is not None
    negative = any(
        np.asarray(item.lines).size and np.min(item.lines) < 0
        for item in items
    )
    return available and not negative and not config.prefetch_next_line


class TestRegionReplayDynamic:
    """``run_dynamic``: native kernel == Python loop == per-access oracle."""

    @given(
        data=st.data(),
        threads=st.integers(1, 8),
        config=st.sampled_from(CONFIGS),
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
        assert calls == [kernel_runs(items, config)]
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
        items = [WorkItem(lines=np.arange(40) % 23, compute_cycles=3)] * 6
        with kernel_calls() as calls:
            result = SimulatedMachine(2, PREFETCH).run_dynamic(items, chunk=2)
        assert calls == [False]
        assert outcome(result) == expected_result(2, items, 2, PREFETCH)


def assert_static_tiers_match(machine, per_thread):
    """``run`` through the kernel and the per-access loop == reference."""
    items = [item for thread_items in per_thread for item in thread_items]
    expected = outcome(machine.run_reference(per_thread))
    with kernel_calls() as calls:
        native = machine.run(per_thread)
    assert outcome(native) == expected
    assert calls == [kernel_runs(items, machine.config)]
    with pytest.MonkeyPatch.context() as mp:
        disable_native(mp)
        python = machine.run(per_thread)
    assert outcome(python) == expected


class TestRegionReplayStatic:
    """``run``: native kernel == per-access loop == ``run_reference``."""

    @given(
        data=st.data(),
        threads=st.integers(1, 8),
        config=st.sampled_from(CONFIGS),
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
        assert_static_tiers_match(
            SimulatedMachine(threads, config), per_thread
        )

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


class TestRunExactRegion:
    """Fixed block-scheduled random regions: ``run`` == ``run_reference``."""

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_run_matches_reference(self, threads):
        per_thread = random_region(np.random.default_rng(threads), threads)
        assert_static_tiers_match(SimulatedMachine(threads), per_thread)

    def test_run_matches_reference_python_path(self, monkeypatch):
        disable_native(monkeypatch)
        per_thread = random_region(np.random.default_rng(3), 4)
        machine = SimulatedMachine(4)
        with kernel_calls() as calls:
            result = machine.run(per_thread)
        assert calls == [False]
        assert outcome(result) == outcome(machine.run_reference(per_thread))

    def test_prefetch_config_still_exact(self):
        per_thread = random_region(np.random.default_rng(5), 2)
        assert_static_tiers_match(SimulatedMachine(2, PREFETCH), per_thread)

    def test_empty_threads_ok(self):
        per_thread = [[WorkItem(lines=[1, 2, 3])], [], []]
        assert_static_tiers_match(SimulatedMachine(3), per_thread)


@pytest.mark.parametrize("tier", ["native", "python"])
@pytest.mark.parametrize("method", ["run", "run_dynamic"])
def test_sanitizer_still_checks_line_stream(monkeypatch, method, tier):
    monkeypatch.setenv(sanitize.ENV_SWITCH, "1")
    if tier == "python":
        disable_native(monkeypatch)
    machine = SimulatedMachine(2)
    items = [WorkItem(lines=np.array([0.5, 1.5]))]
    with pytest.raises(sanitize.SanitizerError):
        if method == "run":
            machine.run([items, []])
        else:
            machine.run_dynamic(items)


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

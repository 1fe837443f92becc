"""The degradation ladder: breakers, resource-pressure fallback, health.

Every test here proves the same contract from a different angle: a
degraded run *finishes with the same bits* as a clean one — the native
tier silently re-dispatches to its twins, resource pressure downgrades
to compute-without-cache, and all of it is counted, warned once, and
visible in the health report instead of crashing (or vanishing).
"""

import json
import types

import numpy as np
import pytest

from repro._native import core as native_core
from repro._native import counting as native_counting
from repro._native import fm as native_fm
from repro._native import greedy as native_greedy
from repro._native import louvain as native_louvain
from repro._native import replay as native_replay
from repro.apps.influence_max import RRRSet, greedy_seed_selection
from repro.community import louvain
from repro.engine import use_engine
from repro.graph import shm
from repro.ordering import OrderingStore, get_scheme
from repro.partition import bisect
from repro.resilience import degrade, faults
from repro.resilience.journal import RunJournal
from repro.simulator.parallel import SimulatedMachine, WorkItem
from tests.conftest import random_graph


def _set_faults(monkeypatch, spec):
    monkeypatch.setenv("REPRO_FAULTS", spec)


def _fail_build_of(monkeypatch, kernel):
    """Arm an injected build failure that only ``kernel`` can hit.

    The other kernels' builds are latched first, so the failure cannot
    leave them unavailable for later tests.  ``REPRO_NO_NATIVE`` is
    lifted afterwards: the injected fault fires in ``NativeKernel._build``
    before any compile, so the build-failure path runs without a
    compiler too.
    """
    for name in native_core.kernel_names():
        if name != kernel.name:
            native_core.get_kernel(name).lib()
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    _set_faults(monkeypatch, "native-build-fail:p=1")


def _fake_kernel(name="fake_kernel", digest="00ab" + "0" * 60):
    """A stand-in with the two attributes the breaker bookkeeping reads."""
    return types.SimpleNamespace(name=name, source_digest=digest)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    """Fresh fault plans and degrade state around every test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults._PLANS.clear()
    degrade.reset()
    yield
    faults._PLANS.clear()
    degrade.reset()


@pytest.fixture
def counting_kernel():
    """The real counting-sort kernel, reset before and after the test.

    Resetting matters both ways: a previous test may have latched a
    build attempt (``_tried``), and a test that injects a build failure
    must not leave the kernel latched as unavailable for the rest of
    the session.
    """
    kernel = native_counting.KERNEL
    kernel.reset()
    yield kernel
    kernel.reset()


@pytest.fixture
def louvain_kernel():
    """The real louvain_sweep kernel, reset before and after the test."""
    kernel = native_louvain.KERNEL
    kernel.reset()
    yield kernel
    kernel.reset()


# ---------------------------------------------------------------------------
# record(): counters, events, one warning, strict mode
# ---------------------------------------------------------------------------
class TestRecord:
    def test_counts_and_warns_once_per_site_kind(self, capsys):
        degrade.record("site-a", "kind-x", "first")
        degrade.record("site-a", "kind-x", "second")
        degrade.record("site-b", "kind-x", "other site")
        assert degrade.counters() == {
            "site-a:kind-x": 2,
            "site-b:kind-x": 1,
        }
        err = capsys.readouterr().err
        assert err.count("[degrade] site-a: kind-x") == 1
        assert err.count("[degrade] site-b: kind-x") == 1

    def test_exceptions_stringify(self):
        degrade.record("site", "kind", OSError(28, "No space left"))
        (event,) = degrade.events()
        assert "No space left" in event["detail"]

    def test_event_log_bounded_counters_exact(self):
        for index in range(degrade.MAX_EVENTS + 40):
            degrade.record("site", "kind", f"event {index}")
        assert len(degrade.events()) == degrade.MAX_EVENTS
        assert degrade.counters()["site:kind"] == degrade.MAX_EVENTS + 40

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setenv(degrade.ENV_DEGRADE, "strict")
        with pytest.raises(degrade.DegradationError, match="site.*kind"):
            degrade.record("site", "kind", "detail")

    def test_unknown_mode_fails_loud(self, monkeypatch):
        monkeypatch.setenv(degrade.ENV_DEGRADE, "lenient")
        with pytest.raises(ValueError, match="REPRO_DEGRADE"):
            degrade.degrade_mode()

    def test_outbox_drains_once(self):
        degrade.record("site", "kind", "one")
        degrade.record("site", "kind", "two")
        drained = degrade.drain_outbox()
        assert [event["detail"] for event in drained] == ["one", "two"]
        assert degrade.drain_outbox() == []

    def test_absorb_merges_without_rewarning(self, capsys):
        degrade.record("worker-site", "kind", "worker warned already")
        drained = degrade.drain_outbox()
        capsys.readouterr()
        degrade.reset()  # simulate the parent process
        degrade.absorb(drained)
        assert degrade.counters() == {"worker-site:kind": 1}
        assert capsys.readouterr().err == ""
        # the dedup set was merged: a parent-side repeat stays quiet too
        degrade.record("worker-site", "kind", "parent repeat")
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Circuit breaker lifecycle
# ---------------------------------------------------------------------------
class TestBreaker:
    def test_base_cooldown_deterministic_and_bounded(self):
        digests = ["0000" + "0" * 60, "ffff" + "0" * 60, "1a2b" + "0" * 60]
        for digest in digests:
            cooldown = degrade.base_cooldown(digest)
            assert cooldown == degrade.base_cooldown(digest)
            assert 4 <= cooldown < 16

    def test_open_skip_probe_recover(self):
        kernel = _fake_kernel()
        assert degrade.kernel_allowed(kernel)  # untouched: closed
        degrade.record_kernel_fault(kernel, RuntimeError("boom"))
        breaker = degrade.breaker_state(kernel.name)
        assert breaker.state == "open"
        assert breaker.cooldown == degrade.base_cooldown(kernel.source_digest)
        # cool-down: exactly `cooldown` dispatches skipped...
        for _ in range(breaker.cooldown):
            assert not degrade.kernel_allowed(kernel)
        # ...then a half-open probe is granted
        assert degrade.kernel_allowed(kernel)
        degrade.record_kernel_recovery(kernel)
        after = degrade.breaker_state(kernel.name)
        assert after.state == "closed"
        assert degrade.kernel_allowed(kernel)
        assert any(
            event["kind"] == "recovered" for event in degrade.events()
        )

    def test_failed_probe_doubles_cooldown_capped(self):
        kernel = _fake_kernel()
        degrade.record_kernel_fault(kernel, RuntimeError("first"))
        base = degrade.breaker_state(kernel.name).cooldown
        degrade.record_kernel_fault(kernel, RuntimeError("probe failed"))
        assert degrade.breaker_state(kernel.name).cooldown == base * 2
        for _ in range(20):
            degrade.record_kernel_fault(kernel, RuntimeError("again"))
        assert (
            degrade.breaker_state(kernel.name).cooldown
            == degrade.MAX_COOLDOWN
        )

    def test_fault_counter_and_reason_recorded(self):
        kernel = _fake_kernel()
        degrade.record_kernel_fault(
            kernel, RuntimeError("segfault stand-in")
        )
        assert (
            degrade.counters()[f"kernel.{kernel.name}:native-runtime-fault"]
            == 1
        )
        breaker = degrade.breaker_state(kernel.name)
        assert breaker.kind == "native-runtime-fault"
        assert "segfault stand-in" in breaker.reason

    def test_breaker_state_returns_a_copy(self):
        kernel = _fake_kernel()
        degrade.record_kernel_fault(kernel, RuntimeError("boom"))
        copy = degrade.breaker_state(kernel.name)
        copy.state = "closed"
        assert degrade.breaker_state(kernel.name).state == "open"

    def test_strict_mode_still_opens_breaker(self, monkeypatch):
        monkeypatch.setenv(degrade.ENV_DEGRADE, "strict")
        kernel = _fake_kernel()
        with pytest.raises(degrade.DegradationError):
            degrade.record_kernel_fault(kernel, RuntimeError("boom"))
        assert degrade.breaker_state(kernel.name).state == "open"


# ---------------------------------------------------------------------------
# Native kernels under injected faults (the guarded dispatch path)
# ---------------------------------------------------------------------------
KEYS = np.array([1, 0, 2, 1, 0, 2, 2, 1], dtype=np.int64)
EXPECTED = np.array([1, 4, 0, 3, 7, 2, 5, 6], dtype=np.int64)


class TestKernelFaults:
    def test_build_fail_opens_breaker_and_falls_back(
        self, monkeypatch, counting_kernel
    ):
        _fail_build_of(monkeypatch, counting_kernel)
        assert counting_kernel.lib() is None
        assert native_counting.run(KEYS, 3) is None  # caller's twin runs
        breaker = degrade.breaker_state(counting_kernel.name)
        assert breaker.state == "open"
        assert breaker.kind == "native-build-fail"
        assert "injected native-build-fail" in breaker.reason

    def test_build_info_reports_degraded(
        self, monkeypatch, counting_kernel
    ):
        _fail_build_of(monkeypatch, counting_kernel)
        info = counting_kernel.build_info()
        assert info["degraded"] is True
        assert info["available"] is False
        assert info["status"].startswith("degraded: ")
        assert "native-build-fail" in info["fallback"]
        assert "injected native-build-fail" in info["status"]

    def test_build_info_clean_kernel_not_degraded(self, counting_kernel):
        info = counting_kernel.build_info()
        assert info["degraded"] is False

    def test_runtime_fault_opens_then_probe_recovers(
        self, monkeypatch, counting_kernel
    ):
        if counting_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        assert native_counting.run(KEYS, 3) is None  # fault -> fallback
        breaker = degrade.breaker_state(counting_kernel.name)
        assert breaker.state == "open"
        # clear the schedule: the breaker keeps gating on its own
        monkeypatch.delenv("REPRO_FAULTS")
        for _ in range(breaker.cooldown):
            assert native_counting.run(KEYS, 3) is None  # cool-down skip
        result = native_counting.run(KEYS, 3)  # half-open probe succeeds
        assert np.array_equal(result, EXPECTED)
        assert degrade.breaker_state(counting_kernel.name).state == "closed"

    def test_usable_gates_on_open_breaker(self, counting_kernel):
        if counting_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        assert counting_kernel.usable() is not None
        degrade.record_kernel_fault(counting_kernel, RuntimeError("boom"))
        assert counting_kernel.usable() is None


class TestLouvainKernelFaults:
    """A faulted ``louvain_sweep`` kernel hands the sweep to the vector tier."""

    GRAPH = random_graph(80, 300, seed=13)

    def _vector_result(self):
        with use_engine("vector"):
            return louvain(self.GRAPH)

    def _assert_same(self, a, b):
        assert np.array_equal(a.communities, b.communities)
        assert a.modularity == b.modularity
        assert a.phases == b.phases

    def test_runtime_fault_falls_back_to_vector(
        self, monkeypatch, louvain_kernel
    ):
        if louvain_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        expected = self._vector_result()
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        with use_engine("native"):
            result = louvain(self.GRAPH)
        self._assert_same(result, expected)
        assert degrade.breaker_state(louvain_kernel.name).state == "open"
        assert (
            degrade.counters()["kernel.louvain_sweep:native-runtime-fault"]
            >= 1
        )

    def test_build_fail_falls_back_to_vector(
        self, monkeypatch, louvain_kernel
    ):
        expected = self._vector_result()
        _fail_build_of(monkeypatch, louvain_kernel)
        with use_engine("native"):
            result = louvain(self.GRAPH)
        self._assert_same(result, expected)
        breaker = degrade.breaker_state(louvain_kernel.name)
        assert breaker.state == "open"
        assert breaker.kind == "native-build-fail"
        assert (
            degrade.counters()["kernel.louvain_sweep:native-build-fail"]
            == 1
        )

    def test_strict_mode_raises(self, monkeypatch, louvain_kernel):
        if louvain_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        monkeypatch.setenv(degrade.ENV_DEGRADE, "strict")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        with use_engine("native"):
            with pytest.raises(
                degrade.DegradationError, match="louvain_sweep"
            ):
                louvain(self.GRAPH)


@pytest.fixture
def replay_kernel():
    """The real region_replay kernel, reset before and after the test."""
    kernel = native_replay.KERNEL
    kernel.reset()
    yield kernel
    kernel.reset()


class TestRegionReplayKernelFaults:
    """A faulted ``region_replay`` kernel hands regions to the Python tiers."""

    THREADS = 3

    def _items(self):
        rng = np.random.default_rng(21)
        return [
            WorkItem(
                lines=rng.integers(0, 900, size=int(rng.integers(1, 1400))),
                compute_cycles=int(rng.integers(0, 30)),
            )
            for _ in range(24)
        ]

    def _outcomes(self):
        """(static, dynamic) region results, as tuples of their parts."""
        machine = SimulatedMachine(self.THREADS)
        items = self._items()
        per_thread = [items[t::self.THREADS] for t in range(self.THREADS)]
        static = machine.run(per_thread)
        dynamic = machine.run_dynamic(items, chunk=2)
        return tuple(
            (r.thread_cycles, r.thread_loads, r.report)
            for r in (static, dynamic)
        )

    def _python_outcomes(self, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(native_replay.KERNEL, "_tried", True)
            mp.setattr(native_replay.KERNEL, "_lib", None)
            return self._outcomes()

    def test_runtime_fault_falls_back_to_python(
        self, monkeypatch, replay_kernel
    ):
        if replay_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        expected = self._python_outcomes(monkeypatch)
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        assert self._outcomes() == expected
        assert degrade.breaker_state(replay_kernel.name).state == "open"
        assert (
            degrade.counters()["kernel.region_replay:native-runtime-fault"]
            >= 1
        )

    def test_build_fail_falls_back_to_python(
        self, monkeypatch, replay_kernel
    ):
        expected = self._python_outcomes(monkeypatch)
        _fail_build_of(monkeypatch, replay_kernel)
        assert self._outcomes() == expected
        breaker = degrade.breaker_state(replay_kernel.name)
        assert breaker.state == "open"
        assert breaker.kind == "native-build-fail"
        assert (
            degrade.counters()["kernel.region_replay:native-build-fail"]
            == 1
        )

    def test_strict_mode_raises(self, monkeypatch, replay_kernel):
        if replay_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        monkeypatch.setenv(degrade.ENV_DEGRADE, "strict")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        with pytest.raises(degrade.DegradationError, match="region_replay"):
            SimulatedMachine(2).run_dynamic(self._items())


@pytest.fixture
def ladder_kernel(monkeypatch):
    """The real partition_fm kernel with a fresh generator probe."""
    kernel = native_fm.KERNEL
    kernel.reset()
    monkeypatch.setattr(native_fm, "_PROBE_VERDICT", {})
    yield kernel
    kernel.reset()


class TestPartitionLadderFaults:
    """A faulted ``partition_fm`` kernel hands bisection to Python."""

    GRAPH = random_graph(150, 600, seed=17)

    def _outcome(self, engine):
        """(assignment, cut, generator state) of one seeded bisection."""
        rng = np.random.default_rng(23)
        with use_engine(engine):
            result = bisect(self.GRAPH, seed=rng)
        return result.assignment, result.cut, rng.bit_generator.state

    def _assert_python_result(self):
        expected = self._outcome("vector")
        result = self._outcome("native")
        assert np.array_equal(result[0], expected[0])
        assert result[1] == expected[1]
        assert result[2] == expected[2]

    def test_runtime_fault_falls_back_to_python(
        self, monkeypatch, ladder_kernel
    ):
        if ladder_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        self._assert_python_result()
        assert degrade.breaker_state(ladder_kernel.name).state == "open"
        assert (
            degrade.counters()["kernel.partition_fm:native-runtime-fault"]
            >= 1
        )

    def test_build_fail_falls_back_to_python(
        self, monkeypatch, ladder_kernel
    ):
        _fail_build_of(monkeypatch, ladder_kernel)
        self._assert_python_result()
        breaker = degrade.breaker_state(ladder_kernel.name)
        assert breaker.state == "open"
        assert breaker.kind == "native-build-fail"
        assert (
            degrade.counters()["kernel.partition_fm:native-build-fail"] == 1
        )

    def test_probe_mismatch_declines_for_the_process(
        self, monkeypatch, ladder_kernel
    ):
        if ladder_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        numpy_draws = native_fm._numpy_draws

        def skewed(rng, script):
            draws = numpy_draws(rng, script)
            draws[-1] += 1
            return draws

        monkeypatch.setattr(native_fm, "_numpy_draws", skewed)
        self._assert_python_result()
        breaker = degrade.breaker_state(ladder_kernel.name)
        assert breaker.state == "open"
        assert breaker.kind == "rng-probe-mismatch"
        assert not native_fm._PROBE_VERDICT[np.random.PCG64]
        assert native_fm.engine_label("native") == "vector"
        # declined for the rest of the process: no second probe, same count
        monkeypatch.setattr(native_fm, "_numpy_draws", numpy_draws)
        for _ in range(40):  # past the breaker's cool-down
            self._assert_python_result()
        assert (
            degrade.counters()["kernel.partition_fm:rng-probe-mismatch"] == 1
        )
        assert not degrade.health_report()["healthy"]

    def test_strict_mode_raises(self, monkeypatch, ladder_kernel):
        if ladder_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        monkeypatch.setenv(degrade.ENV_DEGRADE, "strict")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        with use_engine("native"):
            with pytest.raises(degrade.DegradationError, match="partition_fm"):
                bisect(self.GRAPH, seed=1)


@pytest.fixture
def greedy_kernel():
    """The real greedy_cover kernel, reset before and after the test."""
    kernel = native_greedy.KERNEL
    kernel.reset()
    yield kernel
    kernel.reset()


class TestGreedyCoverFaults:
    """A faulted ``greedy_cover`` kernel hands selection to the vector tier."""

    N = 60

    def _sets(self):
        rng = np.random.default_rng(29)
        return [
            RRRSet(
                root=0,
                vertices=rng.integers(
                    0, self.N, size=int(rng.integers(0, 12))
                ),
                edges_examined=0,
            )
            for _ in range(200)
        ]

    def _assert_vector_result(self):
        sets = self._sets()
        expected = greedy_seed_selection(sets, self.N, 8, engine="vector")
        assert greedy_seed_selection(sets, self.N, 8, engine="native") == (
            expected
        )

    def test_runtime_fault_falls_back_to_vector(
        self, monkeypatch, greedy_kernel
    ):
        if greedy_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        self._assert_vector_result()
        assert degrade.breaker_state(greedy_kernel.name).state == "open"
        assert (
            degrade.counters()["kernel.greedy_cover:native-runtime-fault"]
            >= 1
        )

    def test_build_fail_falls_back_to_vector(
        self, monkeypatch, greedy_kernel
    ):
        _fail_build_of(monkeypatch, greedy_kernel)
        self._assert_vector_result()
        breaker = degrade.breaker_state(greedy_kernel.name)
        assert breaker.state == "open"
        assert breaker.kind == "native-build-fail"
        assert (
            degrade.counters()["kernel.greedy_cover:native-build-fail"] == 1
        )

    def test_strict_mode_raises(self, monkeypatch, greedy_kernel):
        if greedy_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        monkeypatch.setenv(degrade.ENV_DEGRADE, "strict")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        with pytest.raises(degrade.DegradationError, match="greedy_cover"):
            greedy_seed_selection(self._sets(), self.N, 8, engine="native")


# ---------------------------------------------------------------------------
# Resource pressure: shm, disk-full, torn reads
# ---------------------------------------------------------------------------
class TestResourcePressure:
    def test_shm_exhausted_degrades_to_none(self, monkeypatch):
        if not shm.shm_enabled():
            pytest.skip("shared memory disabled")
        _set_faults(monkeypatch, "shm-exhausted:p=1")
        graph = random_graph(50, 120, seed=7)
        assert shm.publish_graph(graph) is None
        assert degrade.counters()["shm.publish:shm-exhausted"] == 1

    def test_ordering_store_disk_full_computes_without_cache(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(50, 120, seed=2)
        scheme = get_scheme("bfs")
        clean = OrderingStore(str(tmp_path / "clean"))
        expected = clean.get_or_compute(graph, scheme)

        _set_faults(monkeypatch, "disk-full:p=1")
        store = OrderingStore(str(tmp_path / "full"))
        ordering = store.get_or_compute(graph, scheme)
        assert np.array_equal(ordering.permutation, expected.permutation)
        assert store.store(graph, scheme, ordering) is None
        assert degrade.counters()["ordering-store.write:disk-full"] >= 1

    def test_journal_disk_full_never_crashes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _set_faults(monkeypatch, "disk-full:p=1")
        journal = RunJournal("pressure-run")
        journal.record("cell", kind="x", status="ok")  # write swallowed
        assert degrade.counters()["run-journal.write:disk-full"] >= 1
        assert not journal.exists

    def test_torn_read_quarantines_and_recomputes(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(50, 120, seed=9)
        scheme = get_scheme("rcm")
        store = OrderingStore(str(tmp_path / "store"))
        expected = store.get_or_compute(graph, scheme)  # clean write

        _set_faults(monkeypatch, "store-torn-read:p=1")
        again = store.get_or_compute(graph, scheme)
        assert np.array_equal(again.permutation, expected.permutation)
        assert store.quarantined >= 1
        assert degrade.counters()["ordering-store:quarantined"] >= 1


# ---------------------------------------------------------------------------
# Health reporting
# ---------------------------------------------------------------------------
class TestHealth:
    def test_clean_process_is_healthy(self):
        report = degrade.health_report()
        assert report["healthy"]
        assert report["counters"] == {}
        assert "ok (no degradation recorded)" in degrade.format_health()

    def test_degraded_process_reports_everything(self):
        degrade.record("some-site", "some-kind", "detail")
        kernel = _fake_kernel()
        degrade.record_kernel_fault(kernel, RuntimeError("boom"))
        report = degrade.health_report()
        assert not report["healthy"]
        text = degrade.format_health(report)
        assert "open-breakers=1" in text
        assert f"[breaker] {kernel.name}: open" in text
        assert "re-dispatching to vector" in text
        assert "[counter] some-site:some-kind: 1" in text

    def test_journal_write_health_record(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        degrade.record("site", "kind", "detail")
        journal = RunJournal("health-run")
        journal.write_health()
        with open(journal.path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        (health,) = [r for r in records if r.get("type") == "health"]
        assert health["run_id"] == "health-run"
        assert health["counters"] == {"site:kind": 1}
        assert health["healthy"] is False

    def test_reporting_summary_includes_degrade_counters(
        self, monkeypatch, tmp_path
    ):
        from repro.resilience.reporting import completeness, format_report

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        degrade.record("site", "kind", "detail")
        journal = RunJournal("summary-run")
        journal.record("cell", kind="x", status="ok")
        text = format_report(completeness(journal))
        assert "[degrade] site:kind: 1" in text

"""The content-store contract, checked once per store.

Both persistent caches — the ordering store (``.npz``) and the graph
store (``.rgr``) — sit on :class:`repro.resilience.store.ContentStore`,
so each contract check below runs against both: torn reads quarantine,
a full disk degrades to compute-without-cache, a failed quarantine
never raises, racing writers leave one valid entry, the maintenance
counts agree with the disk, and ``default_store()`` is one store per
root.  The format pins at the end guard existing caches: entry bytes
must not change unless the format version does.
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro.graph import from_edges
from repro.graph import store as graph_store
from repro.ordering import OrderingStore, get_scheme
from repro.ordering import store as ordering_store
from repro.resilience import degrade, faults
from repro.resilience.store import atomic_write
from tests.conftest import random_graph

SCHEMES = ("rcm", "bfs", "natural")
ORDERED = random_graph(60, 200, seed=9)


class OrderingKind:
    """Entry ``i`` is the ordering of ``ORDERED`` under ``SCHEMES[i]``."""

    site = "ordering-store"
    module = ordering_store
    subdir = "orderings"

    @staticmethod
    def make(root):
        return OrderingStore(root)

    @staticmethod
    def expected(i):
        return get_scheme(SCHEMES[i]).order(ORDERED)

    def save(self, store, i):
        return store.store(ORDERED, get_scheme(SCHEMES[i]), self.expected(i))

    @staticmethod
    def load(store, i):
        return store.load(ORDERED, get_scheme(SCHEMES[i]))

    @staticmethod
    def same(a, b):
        return (
            np.array_equal(a.permutation, b.permutation)
            and a.cost == b.cost
            and a.metadata == b.metadata
        )


class GraphKind:
    """Entry ``i`` is a small random graph stored under key ``g<i>``."""

    site = "graph-store"
    module = graph_store
    subdir = "graphs"

    @staticmethod
    def make(root):
        return graph_store.GraphStore(os.path.join(root, "graphs"))

    @staticmethod
    def expected(i):
        return random_graph(30 + i, 70, seed=i)

    def save(self, store, i):
        return store.save(f"g{i}", self.expected(i))

    @staticmethod
    def load(store, i):
        return store.load(f"g{i}", verify=True)

    @staticmethod
    def same(a, b):
        return a == b and a.content_hash() == b.content_hash()


@pytest.fixture(params=[OrderingKind(), GraphKind()], ids=["ordering", "graph"])
def kind(request):
    return request.param


@pytest.fixture
def clean_faults(monkeypatch):
    """No ambient fault schedule; fresh per-process fault counters."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults._PLANS.clear()
    degrade.reset()
    yield monkeypatch
    faults._PLANS.clear()
    degrade.reset()


def _set_faults(monkeypatch, spec):
    monkeypatch.setenv("REPRO_FAULTS", spec)
    faults._PLANS.clear()


def _scratch_files(root):
    return [
        name
        for _dir, _subdirs, names in os.walk(root)
        for name in names
        if name.startswith(".tmp-")
    ]


# ---------------------------------------------------------------------------
# Fault routes
# ---------------------------------------------------------------------------
def test_torn_read_quarantines(kind, clean_faults, tmp_path):
    store = kind.make(str(tmp_path))
    path = kind.save(store, 0)
    assert path is not None
    _set_faults(clean_faults, "store-torn-read:p=1")
    assert kind.load(store, 0) is None
    assert store.quarantined == 1 and store.misses == 1
    assert os.path.isfile(path + ".bad") and not os.path.exists(path)
    assert degrade.counters()[f"{kind.site}:quarantined"] == 1
    # the rebuilt entry serves the same value once reads are clean
    clean_faults.delenv("REPRO_FAULTS")
    faults._PLANS.clear()
    assert kind.save(store, 0) == path
    assert kind.same(kind.load(store, 0), kind.expected(0))


def test_disk_full_degrades_to_no_cache(kind, clean_faults, tmp_path):
    _set_faults(clean_faults, "disk-full:p=1")
    store = kind.make(str(tmp_path))
    assert kind.save(store, 0) is None
    assert degrade.counters()[f"{kind.site}.write:disk-full"] == 1
    assert store.entry_count() == 0
    assert _scratch_files(str(tmp_path)) == []
    assert kind.load(store, 0) is None  # a plain miss, nothing to heal
    assert store.misses == 1 and store.quarantined == 0


def test_quarantine_failure_never_raises(kind, clean_faults, tmp_path):
    store = kind.make(str(tmp_path))
    path = kind.save(store, 0)
    with open(path, "wb") as handle:
        handle.write(b"garbage")

    def refuse(src, dst):
        raise PermissionError(13, "read-only cache volume", src)

    with clean_faults.context() as patch:
        patch.setattr(os, "replace", refuse)
        assert kind.load(store, 0) is None  # no exception escapes
    assert store.quarantined == 0 and store.misses == 1
    assert degrade.counters() == {f"{kind.site}:quarantine-failed": 1}
    assert os.path.isfile(path) and store.quarantined_count() == 0


def test_atomic_write_failure_leaves_nothing(tmp_path):
    def fill_disk(handle):
        handle.write(b"partial")
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        atomic_write(str(tmp_path / "entry.npz"), fill_disk)
    assert os.listdir(tmp_path) == []  # no entry, no scratch file


# ---------------------------------------------------------------------------
# Concurrent writers: N processes racing one entry
# ---------------------------------------------------------------------------
def _race_writer(kind, root, barrier):
    store = kind.make(root)
    barrier.wait()
    if kind.load(store, 0) is None:
        assert kind.save(store, 0) is not None


def test_concurrent_writers_one_valid_entry(kind, tmp_path):
    root = str(tmp_path / "race")
    workers = 6
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(workers)
    processes = [
        ctx.Process(target=_race_writer, args=(kind, root, barrier))
        for _ in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    store = kind.make(root)
    assert store.entry_count() == 1
    assert store.quarantined_count() == 0
    cached = kind.load(store, 0)
    assert cached is not None
    assert kind.same(cached, kind.expected(0))
    # atomic writes leave no temp droppings behind
    assert _scratch_files(root) == []


# ---------------------------------------------------------------------------
# Maintenance and the per-root registry
# ---------------------------------------------------------------------------
def test_clear_and_counts(kind, tmp_path):
    store = kind.make(str(tmp_path))
    assert (store.entry_count(), store.quarantined_count()) == (0, 0)
    assert store.clear() == 0  # nothing on disk yet
    paths = [kind.save(store, i) for i in range(3)]
    with open(paths[1], "wb") as handle:
        handle.write(b"garbage")
    assert kind.load(store, 1) is None  # quarantined
    assert store.entry_count() == 2
    assert store.quarantined_count() == 1
    assert store.clear() == 3  # two entries and the .bad file
    assert (store.entry_count(), store.quarantined_count()) == (0, 0)
    assert kind.load(store, 0) is None


def test_default_store_is_one_per_root(kind, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    store = kind.module.default_store()
    assert store is not None
    assert store.root == os.path.join(str(tmp_path / "alt"), kind.subdir)
    # counters persist: a second call returns the very same store
    assert kind.module.default_store() is store
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
    assert kind.module.default_store() is not store
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    assert kind.module.default_store() is store


# ---------------------------------------------------------------------------
# On-disk format stability
# ---------------------------------------------------------------------------
#: entry bytes of the graph below, recorded before the two stores were
#: folded onto the shared primitive; a change here invalidates every
#: existing cache and must come with a format-version bump.
PINNED = {
    "orderings/1e816c8da2f8f0f7a20f35961dfff6e40c1edb70df7146daef0dd8db539f4b89/"
    "rcm-cf582697fe5b5890.npz":
        "34bfda776e65a76e85981e83afd1100c33854bfccd4265201dafa8ed70d0f731",
    "graphs/fixed.rgr":
        "caf45bbbf2e84ae6d0ecdd43643bc55cfd4a8ffd7bcbc487f8016657279178ab",
}


def test_entry_bytes_are_pinned(tmp_path):
    graph = from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (2, 5)],
    )
    scheme = get_scheme("rcm")
    root = str(tmp_path)
    written = [
        OrderingStore(root).store(graph, scheme, scheme.order(graph)),
        graph_store.GraphStore(os.path.join(root, "graphs")).save(
            "fixed", graph
        ),
    ]
    digests = {}
    for path in written:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    assert digests == PINNED

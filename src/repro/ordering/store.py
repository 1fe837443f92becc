"""Persistent content-addressed ordering cache.

Orderings are pure functions of (graph content, scheme configuration):
every scheme is deterministic under a fixed seed, and the vector/scalar
engines are bit-identical by contract.  That makes orderings safe to cache
across processes — repeated figure runs, parallel bench workers, and CI
jobs all skip recomputation once a cache entry exists.

Layout (under ``$REPRO_CACHE_DIR``, default ``.repro-cache/``)::

    .repro-cache/orderings/<graph-hash>/<scheme>-<key-hash>.npz

``graph-hash`` is :meth:`repro.graph.csr.CSRGraph.content_hash` (sha256 of
the CSR arrays), ``key-hash`` digests the scheme's
:meth:`~repro.ordering.base.OrderingScheme.cache_token` (name, algorithm
version, seed, and every scalar constructor parameter).  Entries store the
permutation plus the operation count and metadata, so a cache hit
reproduces the fresh :class:`~repro.ordering.base.Ordering` exactly.

Every entry also records a sha256 over its payload (permutation bytes,
cost, metadata, schema version) at write time, and loads verify it.  A
corrupt, truncated, or stale-schema entry is quarantined and treated as
a miss.  Atomic writes, quarantine, the fault hooks, disk-full
degradation and the counters come from the shared content-store
primitive, :class:`repro.resilience.store.ContentStore`; this module
holds only the ``.npz`` format.

Set ``REPRO_ORDERING_CACHE=0`` to disable the persistent layer entirely
(the in-process memo in :mod:`repro.bench.runners` still applies).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np

from ..graph.csr import CSRGraph
from ..resilience.store import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ContentStore,
    CorruptEntry,
    cache_root,
)
from .base import Ordering, OrderingScheme

__all__ = [
    "OrderingStore",
    "default_store",
    "store_enabled",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ENV_CACHE_SWITCH",
]

ENV_CACHE_SWITCH = "REPRO_ORDERING_CACHE"

#: bump to invalidate every persisted entry at once (format changes).
#: v2 added the per-entry schema tag and payload checksum.
_FORMAT_VERSION = 2

#: every array an entry must carry; anything less is a stale schema.
_REQUIRED_FIELDS = frozenset(
    {"permutation", "cost", "metadata", "schema", "checksum"}
)


def store_enabled() -> bool:
    """Whether the persistent layer is switched on (default: yes)."""
    return os.environ.get(ENV_CACHE_SWITCH, "1") != "0"


def _payload_digest(
    permutation: np.ndarray, cost: int, metadata_json: str
) -> str:
    """sha256 over everything an entry stores (the write-time seal)."""
    digest = hashlib.sha256()
    digest.update(f"fmt{_FORMAT_VERSION}:{int(cost)}:{metadata_json}:".encode())
    digest.update(np.ascontiguousarray(permutation, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _encode(ordering: Ordering) -> bytes:
    """The ``.npz`` bytes of one entry, sealed with its checksum."""
    permutation = ordering.permutation.astype(np.int64)
    metadata_json = json.dumps(ordering.metadata, sort_keys=True)
    payload = io.BytesIO()
    np.savez(
        payload,
        permutation=permutation,
        cost=np.int64(ordering.cost),
        metadata=metadata_json,
        schema=np.int64(_FORMAT_VERSION),
        checksum=_payload_digest(permutation, ordering.cost, metadata_json),
    )
    return payload.getvalue()


def _decode(path: str, scheme_name: str, num_vertices: int) -> Ordering:
    """The ordering in ``path``; raises :class:`CorruptEntry` on damage."""
    with np.load(path, allow_pickle=False) as bundle:
        if not _REQUIRED_FIELDS <= set(bundle.files):
            raise CorruptEntry("stale schema (missing fields)")
        if int(bundle["schema"]) != _FORMAT_VERSION:
            raise CorruptEntry("stale schema version")
        permutation = bundle["permutation"].astype(np.int64)
        cost = int(bundle["cost"])
        metadata_json = str(bundle["metadata"])
        checksum = str(bundle["checksum"])
    if checksum != _payload_digest(permutation, cost, metadata_json):
        raise CorruptEntry("checksum mismatch")
    if permutation.size != num_vertices:
        raise CorruptEntry("wrong-sized permutation (stale entry)")
    return Ordering(
        scheme=scheme_name,
        permutation=permutation,
        cost=cost,
        metadata=json.loads(metadata_json),
    )


class OrderingStore(ContentStore):
    """A content-addressed on-disk cache of :class:`Ordering` results."""

    site = "ordering-store"
    suffix = ".npz"
    corruption_errors = ContentStore.corruption_errors + (zipfile.BadZipFile,)

    def __init__(self, root: str | None = None) -> None:
        if root is None:
            root = cache_root()
        super().__init__(os.path.join(root, "orderings"))

    @staticmethod
    def entry_name(scheme: OrderingScheme) -> str:
        """File name (sans directory) for a scheme configuration."""
        token = scheme.cache_token()
        digest = hashlib.sha256(
            f"fmt{_FORMAT_VERSION}:{token}".encode()
        ).hexdigest()[:16]
        return f"{scheme.name}-{digest}.npz"

    def entry_path(self, graph: CSRGraph, scheme: OrderingScheme) -> str:
        """Full path of the cache entry for (graph, scheme config)."""
        return os.path.join(
            self.root, graph.content_hash(), self.entry_name(scheme)
        )

    def load(
        self, graph: CSRGraph, scheme: OrderingScheme
    ) -> Ordering | None:
        """The cached ordering, or ``None`` on a miss (counted).

        Damaged entries — truncated archives, checksum mismatches,
        stale schemas, wrong-sized permutations — are quarantined to
        ``<entry>.bad`` and reported as a miss; no exception escapes.
        """
        return self._read(
            self.entry_path(graph, scheme),
            lambda path: _decode(path, scheme.name, graph.num_vertices),
        )

    def store(
        self, graph: CSRGraph, scheme: OrderingScheme, ordering: Ordering
    ) -> str | None:
        """Persist ``ordering`` atomically; returns the entry path.

        A cache volume refusing the write degrades to
        compute-without-cache and returns ``None``.
        """
        payload = _encode(ordering)
        return self._write(
            self.entry_path(graph, scheme),
            lambda handle: handle.write(payload),
        )

    def get_or_compute(
        self, graph: CSRGraph, scheme: OrderingScheme
    ) -> Ordering:
        """Cache-through ordering computation."""
        cached = self.load(graph, scheme)
        if cached is not None:
            return cached
        ordering = scheme.order(graph)
        self.store(graph, scheme, ordering)
        return ordering


def default_store() -> OrderingStore | None:
    """The process-wide store for the current environment, or ``None``.

    Re-resolves ``REPRO_CACHE_DIR`` on every call (tests repoint it), and
    returns ``None`` when ``REPRO_ORDERING_CACHE=0``.  Hit/miss counters
    persist per resolved root for the life of the process.
    """
    if not store_enabled():
        return None
    return OrderingStore.shared(cache_root())

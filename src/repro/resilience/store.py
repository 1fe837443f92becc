"""The content-store primitive under the persistent caches.

The ordering store (:mod:`repro.ordering.store`, ``.npz`` entries) and
the graph store (:mod:`repro.graph.store`, mmap-able ``.rgr`` entries)
keep only their formats; the storage machinery they share lives here:
:func:`cache_root` (``$REPRO_CACHE_DIR``, default ``.repro-cache``),
:func:`atomic_write` (temp file + ``os.replace``, raises on failure),
and :class:`ContentStore`, whose contract every store inherits:

* **Never raise on a damaged entry.**  A torn, truncated or stale
  entry (the format's decoder raises, e.g. :class:`CorruptEntry`) is
  quarantined to ``<entry>.bad`` and reported as a miss, so the caller
  recomputes and rewrites.  Quarantines and failures to quarantine are
  named degradation counters (``<site>:quarantined`` /
  ``<site>:quarantine-failed``).
* **Never crash on a refusing volume.**  ``ENOSPC``, a read-only mount
  and the like degrade to compute-without-cache, counted as
  ``<site>.write:disk-full``.
* **Concurrent writers are safe.**  Processes sharing a cache directory
  at worst overwrite an entry with identical bytes.

The fault hooks of :mod:`repro.resilience.faults` fire in a fixed order
per entry — torn read before a decode; disk full, the write, then cache
corrupt — so a deterministic ``REPRO_FAULTS`` schedule replays
identically.
"""

from __future__ import annotations

import os
import tempfile
from typing import BinaryIO, Callable, TypeVar

from . import degrade, faults

__all__ = [
    "ContentStore",
    "CorruptEntry",
    "atomic_write",
    "cache_root",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
]

DEFAULT_CACHE_DIR = ".repro-cache"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

T = TypeVar("T")


def cache_root() -> str:
    """The cache root: ``$REPRO_CACHE_DIR``, default ``.repro-cache``.

    Re-resolved on every call (tests repoint it per test).
    """
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def atomic_write(path: str, write: Callable[[BinaryIO], object]) -> str:
    """Publish ``path`` atomically; returns ``path``, raises on failure.

    ``write`` fills an open temp file in the target directory, which is
    then renamed over ``path`` with ``os.replace``.  On any failure the
    scratch file is removed and the error propagates.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=os.path.splitext(path)[1]
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass  # degrade: scratch file on a refusing volume; no route
        raise
    return path


class CorruptEntry(ValueError):
    """A format check rejected an entry; the message is the reason."""


class ContentStore:
    """Counters, quarantine, guarded I/O and maintenance under ``root``.

    Subclasses set :attr:`site` (the degradation-counter prefix),
    :attr:`suffix` (the entry file extension) and, if their decoder can
    raise more, :attr:`corruption_errors`; they build ``load`` on
    :meth:`_read` and their write on :meth:`_write`.
    """

    site = "store"
    suffix = ""
    #: what decoding a damaged entry raises; all mean "quarantine".
    corruption_errors: tuple[type[BaseException], ...] = (
        OSError, EOFError, KeyError, ValueError, TypeError,
    )

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @classmethod
    def shared(cls, root: str):
        """The process-wide ``cls(root)``; its counters live as long."""
        store = _STORES.get((cls, root))
        if store is None:
            store = _STORES[(cls, root)] = cls(root)
        return store

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a damaged entry aside as ``<entry>.bad`` (never raises).

        The ``.bad`` file keeps the evidence for post-mortems and is
        never picked up as an entry again.
        """
        try:
            os.replace(path, path + ".bad")
            self.quarantined += 1
        except OSError as exc:
            # degrade: could not even move the damaged entry aside
            degrade.record(self.site, "quarantine-failed", exc)
            return
        degrade.record(
            self.site, "quarantined", f"{os.path.basename(path)}: {reason}"
        )

    def _read(self, path: str, decode: Callable[[str], T]) -> T | None:
        """``decode(path)``, or ``None`` on a miss (counted, never raises).

        An injected torn read and any :attr:`corruption_errors` from
        ``decode`` quarantine the entry; a missing file is a plain miss.
        """
        if os.path.isfile(path) and faults.maybe_store_torn_read(path):
            # the deterministic stand-in for an mmap SIGBUS / torn page:
            # same quarantine-and-rebuild path as genuine damage
            self._quarantine(path, "injected store-torn-read")
            self.misses += 1
            return None
        try:
            value = decode(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except self.corruption_errors as exc:
            if os.path.isfile(path):
                reason = (
                    str(exc) if isinstance(exc, CorruptEntry)
                    else f"{exc.__class__.__name__}: {exc}"
                )
                self._quarantine(path, reason)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _write(
        self, path: str, write: Callable[[BinaryIO], object]
    ) -> str | None:
        """:func:`atomic_write` under the fault hooks; the path or ``None``.

        A volume refusing the write degrades to compute-without-cache:
        the error is counted and warned once, ``None`` is returned, and
        the caller keeps its value in memory.
        """
        try:
            faults.maybe_disk_full(path)
            atomic_write(path, write)
            faults.maybe_cache_corrupt(path)
        except OSError as exc:
            # degrade: only the persistent layer is lost for this entry
            degrade.record(f"{self.site}.write", "disk-full", exc)
            return None
        return path

    def _names(self):
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            yield from filenames

    def clear(self) -> int:
        """Delete every entry and ``.bad`` file; returns how many."""
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(
            self.root, topdown=False
        ):
            for name in filenames:
                if not name.endswith((self.suffix, ".bad")):
                    continue
                try:
                    os.unlink(os.path.join(dirpath, name))
                    removed += 1
                except OSError:
                    pass  # degrade: explicit maintenance; nothing to route
            if dirpath != self.root:
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass  # degrade: non-empty dir is fine during clear()
        return removed

    def entry_count(self) -> int:
        """Number of live entries on disk."""
        return sum(
            1 for name in self._names()
            if name.endswith(self.suffix) and not name.startswith(".tmp-")
        )

    def quarantined_count(self) -> int:
        """Number of quarantined ``.bad`` files currently on disk."""
        return sum(1 for name in self._names() if name.endswith(".bad"))


_STORES: dict[tuple[type, str], ContentStore] = {}

"""Supervised process fan-out: timeouts, retries, respawn, degradation.

``multiprocessing.Pool.map`` is the wrong substrate for wide experiment
grids: one crashed worker poisons the pool, a hung cell blocks the whole
map call forever, and the only failure mode is an exception that throws
away every completed cell.  :func:`run_supervised` replaces it with an
explicitly supervised pool:

* each worker process runs **one cell at a time** through its own task
  queue, so the supervisor always knows which cell a dead or hung worker
  was holding;
* per-cell **timeouts** — a cell past its deadline is killed and
  retried, not waited on;
* **bounded retries** with deterministic, seeded backoff (delays are
  hashed from ``(seed, cell, attempt)``, never drawn from wall-clock
  jittered RNG state — the reprolint determinism rules apply here too);
* **worker-death detection and respawn** — a worker that segfaults or
  ``os._exit``\\ s is detected via ``Process.is_alive``/``exitcode``,
  its cell is retried on a freshly spawned worker, and the pool keeps
  its width;
* a structured :class:`CellResult` per cell — a cell that still fails
  after its retries degrades to ``ok=False`` with the error recorded,
  instead of aborting the grid.

Results are returned in input order.  With ``jobs=1`` (and no active
fault plan) callers at the :mod:`repro.bench.pool` layer bypass the
supervisor entirely, so the sequential path the equivalence tests pin
stays bit-identical.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import multiprocessing.connection
import time
from typing import Callable, Iterable, Sequence, TypeVar

from . import degrade, faults
from .faults import _unit

__all__ = ["CellResult", "run_supervised"]

T = TypeVar("T")

#: supervisor poll interval while waiting on results (seconds).
_POLL_S = 0.02

#: grace period for joining a terminated worker before SIGKILL.
_JOIN_GRACE_S = 5.0


@dataclasses.dataclass
class CellResult:
    """The recorded outcome of one supervised cell.

    ``ok`` cells carry the worker's return value; failed (degraded)
    cells carry the last error string instead.  ``attempts`` counts
    every try including the successful one; ``duration`` is wall-clock
    seconds from first dispatch to resolution (telemetry only — it never
    feeds back into result values).
    """

    ok: bool
    value: object
    error: str | None
    attempts: int
    duration: float


def _context() -> multiprocessing.context.BaseContext:
    """Fork when available (inherits warmed caches), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _backoff_delay(
    base: float, seed: int, index: int, attempt: int
) -> float:
    """Deterministic exponential backoff with hashed (not RNG) jitter."""
    if base <= 0.0:
        return 0.0
    jitter = 0.5 + _unit(seed, f"backoff:{index}:{attempt}")
    return base * (2.0 ** (attempt - 1)) * jitter


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_loop(
    worker: Callable[[T], object],
    tasks,
    results,
    timeout_hint: float | None,
    worker_init: Callable[[], None] | None = None,
) -> None:
    """One supervised worker: run cells from ``tasks`` until sentinel.

    Tasks and results travel over per-worker pipes rather than shared
    ``multiprocessing.Queue``\\ s on purpose: a queue's feeder thread
    writes under a lock *shared across processes*, so a worker dying
    mid-put (exactly what the supervisor must survive) would wedge every
    other worker's results forever.  With one pipe per worker a crash
    can only ever lose that worker's own in-flight cell, which the
    supervisor detects and retries.

    Injected worker-crash faults die hard here (``os._exit``) so the
    supervisor exercises true process-death recovery; injected timeouts
    stall past the supervisor's deadline when one is configured.
    """
    if worker_init is not None:
        try:
            worker_init()
        except Exception:  # noqa: BLE001 - init is only an optimisation
            pass  # cells still run; they just rebuild what init shared
    stall = timeout_hint * 4.0 if timeout_hint else None
    while True:
        try:
            task = tasks.recv()
        except (EOFError, OSError):
            return  # degrade: supervisor pipe closed; worker exits
        if task is None:
            return
        index, attempt, cell = task
        try:
            faults.maybe_worker_crash(index, attempt, hard=True)
            faults.maybe_cell_timeout(index, attempt, stall_seconds=stall)
            value = worker(cell)
        except Exception as exc:  # noqa: BLE001 - reported to supervisor
            ok, value, error = False, None, _describe(exc)
        else:
            ok, error = True, None
        # degradation events (breaker opens, cache write failures, …)
        # piggyback on the result message so the parent's health report
        # covers the whole pool, not just its own process
        message = (index, attempt, ok, value, error, degrade.drain_outbox())
        try:
            results.send(message)
        except (BrokenPipeError, OSError):
            return  # degrade: supervisor is gone; nothing to report to


class _WorkerHandle:
    """A supervised worker process plus its dispatch bookkeeping."""

    __slots__ = ("process", "tasks", "results", "current", "deadline")

    def __init__(self, process, tasks, results) -> None:
        self.process = process
        #: parent end of the task pipe (send side).
        self.tasks = tasks
        #: parent end of the result pipe (recv side).
        self.results = results
        #: the (index, attempt) the worker is running, or None when idle.
        self.current: tuple[int, int] | None = None
        self.deadline: float | None = None

    def close(self) -> None:
        """Release both pipe ends (never raises)."""
        for conn in (self.tasks, self.results):
            try:
                conn.close()
            except OSError:
                pass  # degrade: pipe already gone with its worker


def _run_sequential(
    worker: Callable[[T], object],
    cell_list: Sequence[T],
    *,
    retries: int,
    backoff_base: float,
    backoff_seed: int,
) -> list[CellResult]:
    """The in-process path: same retry/degrade semantics, no processes.

    Injected faults fire softly (exceptions) here; a fault-free run
    calls ``worker(cell)`` exactly once per cell, so values are
    bit-identical to a plain sequential loop.
    """
    results: list[CellResult] = []
    for index, cell in enumerate(cell_list):
        start = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                faults.maybe_worker_crash(index, attempt, hard=False)
                faults.maybe_cell_timeout(index, attempt, stall_seconds=None)
                value = worker(cell)
            except faults.RunAborted:
                # A simulated kill -9 (run-abort fault) must stop the
                # whole run, exactly like the real signal would — it is
                # never a retryable cell failure.
                raise
            except Exception as exc:  # noqa: BLE001 - degrade, not abort
                if attempt > retries:
                    results.append(
                        CellResult(
                            False, None, _describe(exc), attempt,
                            time.monotonic() - start,
                        )
                    )
                    break
                time.sleep(
                    _backoff_delay(backoff_base, backoff_seed, index, attempt)
                )
            else:
                results.append(
                    CellResult(
                        True, value, None, attempt,
                        time.monotonic() - start,
                    )
                )
                break
    return results


def run_supervised(
    worker: Callable[[T], object],
    cells: Iterable[T],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 2,
    backoff_base: float = 0.05,
    backoff_seed: int = 0,
    worker_init: Callable[[], None] | None = None,
) -> list[CellResult]:
    """Run ``worker`` over ``cells`` under supervision.

    Returns one :class:`CellResult` per cell, in input order.  ``jobs``
    caps the worker-process count (clamped to the cell count; ``1``
    runs in-process).  ``timeout`` is the per-attempt deadline in
    seconds (``None`` = unbounded); ``retries`` bounds re-execution
    after a crash, timeout, or exception, with deterministic seeded
    backoff between attempts.

    ``worker_init`` runs once in every worker process before its first
    cell — including workers respawned after a crash — and is the hook
    for attaching shared-memory graphs (:mod:`repro.graph.shm`).  It
    must be picklable under spawn contexts; failures are swallowed (the
    init is an optimisation, never a correctness dependency).  The
    in-process sequential path never calls it: the parent already holds
    whatever the init would share.

    ``KeyboardInterrupt`` (and any other supervisor-level error)
    terminates and joins every worker before propagating — a Ctrl-C on
    a wide grid never leaks live processes.
    """
    cell_list: Sequence[T] = list(cells)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    width = min(jobs, len(cell_list))
    if width <= 1:
        return _run_sequential(
            worker, cell_list,
            retries=retries,
            backoff_base=backoff_base,
            backoff_seed=backoff_seed,
        )
    return _run_parallel(
        worker, cell_list,
        width=width,
        timeout=timeout,
        retries=retries,
        backoff_base=backoff_base,
        backoff_seed=backoff_seed,
        worker_init=worker_init,
    )


def _run_parallel(
    worker: Callable[[T], object],
    cell_list: Sequence[T],
    *,
    width: int,
    timeout: float | None,
    retries: int,
    backoff_base: float,
    backoff_seed: int,
    worker_init: Callable[[], None] | None = None,
) -> list[CellResult]:
    """The supervised pool proper (see :func:`run_supervised`)."""
    ctx = _context()

    def spawn() -> _WorkerHandle:
        task_recv, task_send = ctx.Pipe(duplex=False)
        result_recv, result_send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_loop,
            args=(
                worker,
                task_recv,
                result_send,
                timeout,
                worker_init,
            ),
            daemon=True,
        )
        process.start()
        # The child holds its own copies; close the ends we don't use so
        # a dead worker turns into EOF/EPIPE instead of a silent hang.
        task_recv.close()
        result_send.close()
        return _WorkerHandle(process, task_send, result_recv)

    handles = [spawn() for _ in range(width)]
    pending: collections.deque[tuple[int, int]] = collections.deque(
        (index, 1) for index in range(len(cell_list))
    )
    waiting_retries: list[tuple[float, int, int]] = []
    first_start: dict[int, float] = {}
    results: dict[int, CellResult] = {}

    def resolve_failure(index: int, attempt: int, error: str) -> None:
        if index in results:
            return
        if attempt > retries:
            results[index] = CellResult(
                False, None, error, attempt,
                time.monotonic() - first_start[index],
            )
        else:
            ready = time.monotonic() + _backoff_delay(
                backoff_base, backoff_seed, index, attempt
            )
            waiting_retries.append((ready, index, attempt + 1))

    def replace(slot: int) -> None:
        handles[slot].close()
        handles[slot] = spawn()

    try:
        while len(results) < len(cell_list):
            now = time.monotonic()

            # Promote due retries into the dispatch queue (stable order).
            due = [entry for entry in waiting_retries if entry[0] <= now]
            if due:
                waiting_retries[:] = [
                    entry for entry in waiting_retries if entry[0] > now
                ]
                for _ready, index, attempt in sorted(due):
                    pending.append((index, attempt))

            # Dispatch to idle workers.
            for handle in handles:
                if handle.current is None and pending:
                    index, attempt = pending.popleft()
                    if index in results:
                        continue
                    first_start.setdefault(index, now)
                    try:
                        handle.tasks.send((index, attempt, cell_list[index]))
                    except (BrokenPipeError, OSError):
                        # Worker died before taking the task; the
                        # liveness pass below respawns it.  The attempt
                        # was never started, so requeue it as-is.
                        pending.appendleft((index, attempt))
                        continue
                    handle.current = (index, attempt)
                    handle.deadline = (
                        now + timeout if timeout is not None else None
                    )

            # Drain ready results (short wait so liveness checks run).
            ready_readers = multiprocessing.connection.wait(
                [handle.results for handle in handles], timeout=_POLL_S
            )
            for handle in handles:
                if handle.results not in ready_readers:
                    continue
                try:
                    (index, attempt, ok, value, error,
                     degrade_events) = handle.results.recv()
                except (EOFError, OSError):
                    continue  # degrade: worker death; liveness pass handles it
                degrade.absorb(degrade_events)
                if handle.current == (index, attempt):
                    handle.current = None
                    handle.deadline = None
                if ok:
                    if index not in results:
                        results[index] = CellResult(
                            True, value, None, attempt,
                            time.monotonic() - first_start[index],
                        )
                else:
                    resolve_failure(index, attempt, error)

            # Liveness and deadlines.
            now = time.monotonic()
            for slot, handle in enumerate(handles):
                if not handle.process.is_alive():
                    # Drain any result the worker flushed before dying.
                    final = None
                    try:
                        if handle.results.poll(0):
                            final = handle.results.recv()
                    except (EOFError, OSError):
                        final = None
                    if final is not None:
                        index, attempt, ok, value, error, degrade_events = (
                            final
                        )
                        degrade.absorb(degrade_events)
                        if handle.current == (index, attempt):
                            handle.current = None
                        if ok and index not in results:
                            results[index] = CellResult(
                                True, value, None, attempt,
                                time.monotonic() - first_start[index],
                            )
                        elif not ok:
                            resolve_failure(index, attempt, error)
                    if handle.current is not None:
                        index, attempt = handle.current
                        resolve_failure(
                            index, attempt,
                            f"worker died (exit code "
                            f"{handle.process.exitcode})",
                        )
                    replace(slot)
                elif (
                    handle.current is not None
                    and handle.deadline is not None
                    and now > handle.deadline
                ):
                    index, attempt = handle.current
                    _stop_worker(handle)
                    replace(slot)
                    resolve_failure(
                        index, attempt,
                        f"cell timed out after {timeout:.6g}s",
                    )
    finally:
        _shutdown(handles)

    return [results[index] for index in range(len(cell_list))]


def _stop_worker(handle: _WorkerHandle) -> None:
    """Terminate one worker, escalating to SIGKILL if it lingers."""
    handle.process.terminate()
    handle.process.join(timeout=_JOIN_GRACE_S)
    if handle.process.is_alive():
        handle.process.kill()
        handle.process.join()


def _shutdown(handles: list[_WorkerHandle]) -> None:
    """Stop every worker: sentinel the idle ones, terminate the rest.

    Runs in a ``finally`` so interrupts (Ctrl-C) and supervisor errors
    never leak live worker processes.
    """
    for handle in handles:
        if handle.process.is_alive() and handle.current is None:
            try:
                handle.tasks.send(None)
            except (BrokenPipeError, OSError):
                pass  # degrade: worker already gone; shutdown proceeds
    deadline = time.monotonic() + 1.0
    for handle in handles:
        remaining = max(0.0, deadline - time.monotonic())
        handle.process.join(timeout=remaining)
    for handle in handles:
        if handle.process.is_alive():
            _stop_worker(handle)
        handle.close()

"""Shard supervision: crash/hang detection, restarts, circuit breaking.

The :class:`ShardSupervisor` is a periodic real-time poll task over the
service's :class:`~repro.service.shards.ShardPool`. Per shard it
distinguishes three states:

- **crashed** — the worker task is done with an exception (the
  ``worker_crash`` fault, or any bug that escapes the worker loop);
- **hung** — the worker task is alive but has held its claimed job past
  the hang deadline without a heartbeat (the ``worker_hang`` fault:
  because the event loop is single-threaded and real jobs are
  synchronous, the only way the supervisor can *observe* a held claim
  is a worker awaiting something that never resolves — so the deadline
  cannot false-positive on a slow legitimate job);
- **healthy** — anything else.

Recovery is requeue-then-restart: the claimed job goes back on the
shard's queue (idempotent — crashes fire before the job runs, so
nothing is replayed; verdict exactly-once is additionally guaranteed by
the journal ledger's dedup keys), the abandoned ``queue.get()`` is
settled so ``queue.join()`` stays balanced, and the worker restarts
after an exponential backoff. When the shard's restart budget is
spent its **circuit breaker** opens: its queue is drained inline (the
degraded sequential ``run_units`` driver), and from then on
:meth:`ArchShard.enqueue` runs every job inline. Requests lose
pipelining on that shard but never results.

Every decision — requeue once, restart or break, the backoff delay,
the counters, events and log lines — is the shared
:class:`~repro.service.supervision.Supervision` machine, the same code
the process-backed transports run; this module only polls, cancels,
sleeps and restarts. :class:`SupervisorConfig` (the tunables of both)
lives here.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.obs.events import EVENT_SHARD_INLINE_DRAIN
from repro.obs.tracer import NULL_TRACER
from repro.service.supervision import OpenBreaker, Supervision


@dataclass
class SupervisorConfig:
    """Tunables of one :class:`ShardSupervisor` (real seconds — the
    supervisor watches OS-level liveness, not the simulated clock)."""

    #: real seconds between liveness sweeps
    poll_interval_seconds: float = 0.02
    #: real seconds a claimed job may be held without a heartbeat
    #: before the worker counts as hung
    hang_deadline_seconds: float = 0.2
    #: worker restarts allowed per shard before the breaker opens
    max_restarts_per_shard: int = 3
    #: exponential-backoff restart delays: base * factor**(restart-1),
    #: capped at the max
    backoff_base_seconds: float = 0.01
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.poll_interval_seconds <= 0:
            raise ValueError(
                f"poll_interval_seconds must be positive, "
                f"got {self.poll_interval_seconds}")
        if self.hang_deadline_seconds <= 0:
            raise ValueError(
                f"hang_deadline_seconds must be positive, "
                f"got {self.hang_deadline_seconds}")
        if self.max_restarts_per_shard < 0:
            raise ValueError(
                f"max_restarts_per_shard cannot be negative, "
                f"got {self.max_restarts_per_shard}")

    def backoff_seconds(self, restart: int) -> float:
        """Delay before restart number ``restart`` (1-based)."""
        delay = self.backoff_base_seconds * (
            self.backoff_factor ** max(0, restart - 1))
        return min(delay, self.backoff_max_seconds)


class ShardSupervisor(Supervision):
    """Drives the :class:`~repro.service.supervision.Supervision`
    machine over an in-process shard pool: polls liveness, cancels
    hung tasks, sleeps the backoff, restarts workers, drains broken
    shards inline."""

    def __init__(self, pool, *, config: SupervisorConfig | None = None,
                 metrics=None, tracer=None, events=None) -> None:
        super().__init__(pool.shards, config or SupervisorConfig(),
                         name="shard {} worker", metrics=metrics,
                         events=events)
        self.pool = pool
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._task: "asyncio.Task | None" = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the poll task on the running loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="shard-supervisor")

    async def stop(self) -> None:
        """Cancel the poll task."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.config.poll_interval_seconds)
            await self.sweep()

    # -- detection ---------------------------------------------------------

    async def sweep(self) -> None:
        """One liveness pass over every shard (also callable directly
        by tests to avoid real-time waits)."""
        for shard in self.pool.shards:
            if shard.breaker_open:
                # a producer blocked in queue.put() when the breaker
                # opened can still land a job afterwards; keep the
                # queue of a broken shard drained
                self._drain_inline(shard)
                continue
            task = shard.task
            request_id = getattr(shard.claimed, "request_id", None)
            if task is not None and task.done():
                cause = "crash"
                error = task.exception() \
                    if not task.cancelled() else None
                self.detect(shard, cause, request_id=request_id,
                            error=type(error).__name__ if error
                            else "cancelled")
            elif self._is_hung(shard):
                cause = "hang"
                self.detect(shard, cause, request_id=request_id)
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            else:
                continue
            with self.tracer.span("supervisor.recover",
                                  shard=shard.index, cause=cause):
                await self._revive(shard)

    def _is_hung(self, shard) -> bool:
        if shard.claimed is None:
            return False
        held = asyncio.get_running_loop().time() - shard.last_beat
        return held > self.config.hang_deadline_seconds

    # -- recovery ----------------------------------------------------------

    async def _revive(self, shard) -> None:
        """Requeue the claimed job and restart (or break) the shard."""
        def requeue(job) -> None:
            # put first, then settle the queue.get() the dead worker
            # never matched (drain()'s queue.join() would hang on the
            # lost claim otherwise): the job is never off-queue and
            # unclaimed at the same time
            shard.queue.put_nowait(job)
            shard.queue.task_done()

        action = self.recover(shard, requeue)
        if isinstance(action, OpenBreaker):
            # terminal degradation: whatever the dead worker left
            # queued runs inline right now, and so does every later job
            self.metrics.gauge(
                f"service.shard.{shard.index}.breaker_open").set(1)
            self._drain_inline(shard)
            return
        with self.tracer.span("supervisor.restart", shard=shard.index,
                              restart=shard.restarts,
                              backoff=action.delay):
            if action.delay > 0:
                await asyncio.sleep(action.delay)
            shard.start()

    def _drain_inline(self, shard) -> None:
        if not shard.queue.qsize():
            return
        drained = 0
        with self.tracer.span("supervisor.drain_inline",
                              shard=shard.index):
            while True:
                try:
                    job = shard.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                shard.inline_jobs += 1
                drained += 1
                try:
                    job()
                finally:
                    shard.queue.task_done()
        if drained:
            self.events.emit(EVENT_SHARD_INLINE_DRAIN,
                             shard=shard.index, jobs=drained)

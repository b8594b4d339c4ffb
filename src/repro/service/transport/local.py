"""The in-process asyncio transport (the original service backend).

Wraps the per-architecture shard pool, the cross-request preprocess
batcher, and the :class:`~repro.service.supervisor.ShardSupervisor`
behind the transport interface. Requests execute as unit generators
driven on the service's event loop: request-local stages inline,
preprocess units through the batcher, config/certify units on the
owning arch shard — bit-identical to the pre-transport service.

This is the only transport with cross-*request* batching: remote
workers run whole requests, so their preprocess batching happens
inside each request exactly as in sequential mode.
"""

from __future__ import annotations

from repro.core.units import STAGE_PREPROCESS, UnitDag
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.service.batcher import CrossRequestBatcher
from repro.service.shards import ShardPool
from repro.service.supervisor import ShardSupervisor
from repro.service.transport.base import Transport, TransportOutcome


async def drive_units(generator, execute) -> object:
    """Drive a unit generator, awaiting ``execute(unit)`` per unit."""
    try:
        unit = generator.send(None)
        while True:
            result = await execute(unit)
            unit = generator.send(result)
    except StopIteration as stop:
        return stop.value


class AsyncioTransport(Transport):
    """Shard pool + batcher + supervisor on the service's own loop."""

    kind = "asyncio"

    def __init__(self, service) -> None:
        self.service = service
        self.pool: "ShardPool | None" = None
        self.batcher: "CrossRequestBatcher | None" = None
        self.supervision: "ShardSupervisor | None" = None

    async def start(self) -> None:
        service = self.service
        config = service.config
        # the worker-site injector is service-level (process faults are
        # about *this service's* workers, not any one request) and is
        # keyed by (shard, pickup sequence), so firing is deterministic
        # for a given submission order
        worker_injector = FaultInjector(config.fault_plan) \
            if config.fault_plan else NULL_INJECTOR
        self.pool = ShardPool(config.shards,
                              queue_limit=config.shard_queue_limit,
                              metrics=service.metrics,
                              tracer=service.tracer,
                              injector=worker_injector)
        self.supervision = ShardSupervisor(
            self.pool, config=config.supervisor,
            metrics=service.metrics, tracer=service.tracer,
            events=service.events)
        self.batcher = CrossRequestBatcher(
            self.pool,
            batch_limit=config.batch_limit,
            batch_window=config.batch_window_seconds,
            metrics=service.metrics,
            tracer=service.tracer,
            events=service.events)
        self.pool.start()
        self.supervision.start()

    async def drain(self) -> None:
        if self.batcher is not None:
            await self.batcher.drain()
        if self.pool is not None:
            # the supervisor must outlive join(): a worker that crashes
            # during the drain still needs its claimed job requeued for
            # the queues to ever empty
            await self.pool.join()
        if self.supervision is not None:
            await self.supervision.stop()
        if self.pool is not None:
            await self.pool.stop()

    # -- execution ---------------------------------------------------------

    async def run_request(self, request) -> TransportOutcome:
        service = self.service
        session = service._make_session(request)
        dag = UnitDag(request_id=request.request_id)
        repository = service.corpus.repository
        commit = repository.resolve(request.commit_id)
        generator = session.iter_check_commit(repository, commit,
                                              dag=dag)
        report = await drive_units(
            generator,
            lambda unit: self._execute_unit(unit, request.request_id))
        quarantine: dict[str, str] = {}
        if session.last_build is not None and self.pool is not None:
            request_quarantine = session.last_build.quarantine
            self.pool.absorb_quarantine(request_quarantine)
            quarantine = {arch: request_quarantine.reason(arch)
                          for arch in request_quarantine.archs()}
        return TransportOutcome(report=report,
                                stage_counts=dag.stage_counts(),
                                quarantine=quarantine)

    async def _execute_unit(self, unit,
                            request_id: str | None = None) -> object:
        if unit.arch is None:
            # request-local stage (mutate, token-grep): run inline
            self.service.metrics.counter("service.units.local").inc()
            return unit.run()
        if unit.stage == STAGE_PREPROCESS:
            return await self.batcher.submit(unit)
        return await self.pool.shard_for(unit.arch).submit(
            unit, request_id=request_id)

    # -- telemetry ---------------------------------------------------------

    def shard_stats(self) -> list:
        return self.pool.stats() if self.pool else []

    def batcher_stats(self) -> dict:
        return self.batcher.stats() if self.batcher else {}

    def quarantined_archs(self) -> list:
        return sorted({
            arch for shard in (self.pool.shards if self.pool else [])
            for arch in shard.quarantine.archs()})

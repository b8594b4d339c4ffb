"""Shared coordinator logic for process-backed transports.

:class:`RemoteTransport` owns everything the mp and socket transports
have in common: warm worker slots, wire-frame dispatch, uniform
supervision, and telemetry relay. Subclasses only provide the channel
plumbing (:meth:`_spawn` / :meth:`_connect`).

Supervision is the same code as the in-process
:class:`~repro.service.supervisor.ShardSupervisor` — both drive the one
:class:`~repro.service.supervision.Supervision` machine, and a dead
child process or a dropped socket is just another shard crash:

- **crash** — the channel reaches EOF while an assignment is claimed
  (child killed, pipe closed, socket reset);
- **hang** — no reply lands within the hang deadline (the remote
  default is :data:`REMOTE_HANG_DEADLINE_SECONDS`; an explicitly
  configured ``SupervisorConfig`` wins);
- recovery is requeue-then-restart under the same exponential-backoff
  restart budget, and an exhausted budget opens the slot's circuit
  breaker. When *every* slot is broken, an inline drain loop runs the
  remaining assignments in the coordinator process — degraded to
  sequential, but never losing results.

Requeue is idempotent for the same reason it is in-process: chaos kills
fire *before* the assignment runs, and every check is a pure function
of (corpus, commit), so re-executing a lost assignment reproduces the
byte-identical verdict. Exactly-once delivery of verdicts is the
journal ledger's dedup layer, unchanged.

The worker-site fault injector runs on the coordinator, keyed by
(worker slot, lifetime pickup sequence) — the exact key discipline of
:class:`~repro.service.shards.ArchShard` — so chaos schedules are
deterministic for a fixed dispatch order and survive worker restarts
(a fresh child process does not reset the slot's pickup counter).
"""

from __future__ import annotations

import asyncio

from repro.errors import TransportError
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import SITE_WORKER
from repro.obs.events import (
    EVENT_LEASE_EXPIRED,
    EVENT_LEASE_FENCED,
    EVENT_SHARD_INLINE_DRAIN,
    EVENT_VERDICT_ACCEPTED,
    EVENT_WORKER_EXIT,
    EVENT_WORKER_REJOINED,
    EVENT_WORKER_REQUEUE,
    EVENT_WORKER_SPAWNED,
)
from repro.obs.logcfg import get_logger
from repro.obs.timeseries import registry_from_dict
from repro.core.units import UnitDag, run_units
from repro.service.supervision import OpenBreaker, Supervision
from repro.service.supervisor import SupervisorConfig
from repro.service.transport import wire
from repro.service.transport.base import Transport, TransportOutcome
from repro.service.transport.worker import WorkerInit

_logger = get_logger("service.transport")

#: default hang deadline for *remote* assignments. The in-process
#: supervisor can use 0.2s because its single-threaded loop makes a
#: held claim unobservable unless the worker is parked on an await;
#: a remote worker is doing real wall-clock work, so the deadline must
#: dominate a legitimately slow commit. An explicitly configured
#: SupervisorConfig overrides this.
REMOTE_HANG_DEADLINE_SECONDS = 30.0

#: generous ceiling on worker startup (corpus unpickle + cache prime)
HELLO_TIMEOUT_SECONDS = 120.0


async def wait_within(awaitable, timeout: float):
    """``await awaitable`` for at most ``timeout`` seconds, raising
    ``asyncio.TimeoutError`` past it.

    Slot loops wait through this instead of ``asyncio.wait_for``, which
    before Python 3.12 swallows a cancellation that lands in the tick
    its awaitable finishes. ``drain()`` stops slot loops by cancelling
    them, so a worker finishing its HELLO just as the service drained
    left the loop parked on the empty assignment queue and the drain
    waiting on it forever.
    """
    task = asyncio.ensure_future(awaitable)
    try:
        done, _ = await asyncio.wait({task}, timeout=timeout)
    except asyncio.CancelledError:
        task.cancel()
        raise
    if not done:
        task.cancel()
        await asyncio.wait({task})
        raise asyncio.TimeoutError
    return task.result()


class WorkerSlot:
    """One worker position: process + channel + supervision state."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.channel = None
        self.pid: "int | None" = None
        #: assignment pickups over the slot's lifetime — the fault-
        #: injection key; deliberately NOT reset on restart, so a
        #: respawned process cannot re-draw its predecessor's faults
        self.pickups = 0
        self.assignments_done = 0
        self.crashes = 0
        self.hangs = 0
        self.restarts = 0
        self.breaker_open = False
        self.breaker_reason = ""
        self.claimed = None
        #: fencing token: bumped on every registration, echoed by
        #: every verdict; a frame carrying an older epoch is from a
        #: session whose work was already requeued and is discarded
        self.lease_epoch = 0
        #: event-loop time of the last heartbeat under the current
        #: lease epoch (dispatch start counts as an implicit beat)
        self.last_heartbeat = 0.0
        #: stale-epoch verdicts fenced off this slot
        self.fenced = 0
        #: reconnects accepted within the grace window (no restart
        #: budget burned — the process never died)
        self.rejoins = 0
        self._task: "asyncio.Task | None" = None

    def stats(self) -> dict:
        return {
            "worker": self.index,
            "pid": self.pid,
            "alive": self.process is not None
            and self.process.is_alive(),
            "assignments": self.assignments_done,
            "pickups": self.pickups,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "restarts": self.restarts,
            "breaker_open": self.breaker_open,
            "breaker_reason": self.breaker_reason,
            "lease_epoch": self.lease_epoch,
            "fenced": self.fenced,
            "rejoins": self.rejoins,
        }


class _Assignment:
    """One queued request plus its completion future."""

    __slots__ = ("seq", "request", "future", "attempts")

    def __init__(self, seq: int, request, future) -> None:
        self.seq = seq
        self.request = request
        self.future = future
        self.attempts = 0


class RemoteTransport(Transport):
    """Warm worker processes behind wire-frame dispatch."""

    kind = "remote"

    def __init__(self, service) -> None:
        self.service = service
        config = service.config
        self.jobs = config.jobs if config.jobs else config.shards
        self.start_method = config.start_method
        self.slots = [WorkerSlot(index) for index in range(self.jobs)]
        self.supervision = Supervision(
            self.slots, config.supervisor or SupervisorConfig(
                hang_deadline_seconds=REMOTE_HANG_DEADLINE_SECONDS),
            name=f"{self.kind} worker {{}}", metrics=service.metrics,
            events=service.events)
        self._pending: "asyncio.Queue[_Assignment]" = None
        self._seq = 0
        self._started = False
        self._injector = FaultInjector(config.fault_plan) \
            if config.fault_plan else NULL_INJECTOR
        self._inline_task: "asyncio.Task | None" = None
        self.inline_jobs = 0
        #: seconds between worker heartbeats (0 = heartbeats off and
        #: the plain hang deadline governs reply waits)
        self.heartbeat_seconds = config.heartbeat_seconds
        #: lease length: a worker whose last beat is older than this
        #: is declared dead even if its socket still looks open
        self.lease_seconds = config.lease_seconds
        self.hello_timeout = config.hello_timeout_seconds \
            or HELLO_TIMEOUT_SECONDS
        #: ops view of arch flakiness across requests (never verdicts)
        self._quarantined: dict[str, str] = {}

    # -- channel plumbing (subclass responsibility) ------------------------

    def _spawn(self, slot: WorkerSlot) -> None:
        """Start the slot's worker process (and channel, if eager)."""
        raise NotImplementedError

    async def _connect(self, slot: WorkerSlot) -> None:
        """Wait until ``slot.channel`` is ready (HELLO consumed)."""
        raise NotImplementedError

    def _worker_init(self, slot: WorkerSlot) -> WorkerInit:
        service = self.service
        return WorkerInit(
            worker_id=slot.index,
            start_method=self.start_method,
            corpus=service.corpus,
            options=service.options,
            fault_plan=service.config.fault_plan,
            retry_policy=service.config.retry_policy,
            use_cache=service.cache is not None)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._pending = asyncio.Queue()
        loop = asyncio.get_running_loop()
        for slot in self.slots:
            self._spawn(slot)
            self.service.events.emit(
                EVENT_WORKER_SPAWNED, worker=slot.index,
                transport=self.kind,
                start_method=self.start_method)
            slot._task = loop.create_task(
                self._slot_loop(slot),
                name=f"transport-{self.kind}-worker-{slot.index}")
        self._started = True

    async def drain(self) -> None:
        if not self._started:
            return
        # every admitted request has resolved by the time the service
        # calls transport drain, so the slots are idle: stop the loops,
        # then ask the children to exit cleanly
        for slot in self.slots:
            if slot._task is not None:
                slot._task.cancel()
        await asyncio.gather(
            *[slot._task for slot in self.slots
              if slot._task is not None],
            return_exceptions=True)
        if self._inline_task is not None:
            self._inline_task.cancel()
            try:
                await self._inline_task
            except asyncio.CancelledError:
                pass
            self._inline_task = None
        for slot in self.slots:
            await self._shutdown_slot(slot)
        self._started = False

    async def _shutdown_slot(self, slot: WorkerSlot) -> None:
        if slot.channel is not None:
            try:
                await slot.channel.send(wire.encode_frame(
                    wire.MSG_SHUTDOWN, wire.shutdown_message()))
            except (OSError, TransportError):
                pass
        await self._reap(slot, graceful=True)

    async def _reap(self, slot: WorkerSlot, *,
                    graceful: bool = False) -> None:
        """Close the channel, join (or kill) the worker process."""
        if slot.channel is not None:
            slot.channel.close()
            slot.channel = None
        process = slot.process
        slot.process = None
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if graceful:
            await loop.run_in_executor(None, process.join, 5.0)
        if process.is_alive():
            process.kill()
            await loop.run_in_executor(None, process.join, 5.0)
        self.service.events.emit(
            EVENT_WORKER_EXIT, worker=slot.index,
            transport=self.kind, exitcode=process.exitcode)
        process.close()

    # -- execution ---------------------------------------------------------

    async def run_request(self, request) -> TransportOutcome:
        self._seq += 1
        future = asyncio.get_running_loop().create_future()
        assignment = _Assignment(self._seq, request, future)
        self._pending.put_nowait(assignment)
        return await future

    async def _slot_loop(self, slot: WorkerSlot) -> None:
        try:
            await self._connect_or_recover(slot)
            while not slot.breaker_open:
                assignment = await self._pending.get()
                await self._dispatch(slot, assignment)
        except asyncio.CancelledError:
            raise

    async def _connect_or_recover(self, slot: WorkerSlot) -> None:
        """Wait for the slot's worker to say HELLO; a worker that dies
        while starting burns restart budget like any other crash."""
        while not slot.breaker_open:
            try:
                await wait_within(self._connect(slot),
                                  self.hello_timeout)
                return
            except (asyncio.TimeoutError, TransportError, OSError):
                # no rejoin here: we just failed to connect, so a
                # grace-window wait would only recurse into itself
                await self._handle_loss(slot, "crash",
                                        allow_rejoin=False)

    async def _dispatch(self, slot: WorkerSlot,
                        assignment: _Assignment) -> None:
        if assignment.future.cancelled():
            return
        slot.pickups += 1
        slot.claimed = assignment
        spec = self._injector.fire(SITE_WORKER,
                                   arch=f"worker-{slot.index}",
                                   path=f"pickup-{slot.pickups}")
        chaos = spec.kind if spec is not None else None
        request = assignment.request
        frame = wire.encode_frame(wire.MSG_WORK, wire.work_message(
            assignment.seq, request.request_id, request.commit_id,
            options=request.options, chaos=chaos,
            lease=slot.lease_epoch))
        try:
            await slot.channel.send(frame)
            reply = await self._await_reply(slot, assignment.seq)
        except asyncio.TimeoutError:
            slot.hangs += 1
            self.supervision.detect(slot, "hang",
                                    request_id=request.request_id)
            await self._handle_loss(slot, "hang")
            return
        except (OSError, TransportError):
            reply = None
        if reply is None:
            slot.crashes += 1
            self.supervision.detect(slot, "crash",
                                    request_id=request.request_id,
                                    error="WorkerLostError")
            await self._handle_loss(slot, "crash")
            return
        slot.claimed = None
        msg_type, payload = reply
        if msg_type == wire.MSG_ERROR:
            if not assignment.future.done():
                assignment.future.set_exception(TransportError(
                    f"worker {slot.index} failed assignment "
                    f"{assignment.seq}: [{payload['kind']}] "
                    f"{payload['error']}"))
            return
        slot.assignments_done += 1
        self.service.events.emit(
            EVENT_VERDICT_ACCEPTED, request_id=request.request_id,
            worker=slot.index, commit=request.commit_id,
            lease=slot.lease_epoch, seq=assignment.seq)
        outcome = self._absorb_verdict(payload, slot.index)
        if not assignment.future.done():
            assignment.future.set_result(outcome)

    async def _await_reply(self, slot: WorkerSlot,
                           seq: int) -> "tuple[int, dict] | None":
        """Wait for the reply under the slot's liveness regime.

        Without heartbeats this is the classic hang deadline: a fixed
        window from dispatch. With heartbeats on, the window *slides*:
        the reply may take arbitrarily long as long as the worker keeps
        beating within ``lease_seconds`` — which is how a ``net_slow``
        worker survives while a ``net_half_open`` one (open socket,
        total silence) is reclaimed the moment its lease lapses.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        slot.last_heartbeat = start  # dispatch is an implicit beat
        task = loop.create_task(self._read_reply(slot, seq))
        lease_mode = self.heartbeat_seconds > 0 and \
            self.lease_seconds > 0
        try:
            while True:
                if lease_mode:
                    horizon = slot.last_heartbeat + self.lease_seconds
                else:
                    horizon = start + \
                        self.supervision.config.hang_deadline_seconds
                remaining = horizon - loop.time()
                if remaining <= 0:
                    task.cancel()
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
                    if lease_mode:
                        self.service.events.emit(
                            EVENT_LEASE_EXPIRED, worker=slot.index,
                            lease=slot.lease_epoch,
                            lease_seconds=self.lease_seconds)
                    raise asyncio.TimeoutError
                done, _ = await asyncio.wait({task}, timeout=remaining)
                if done:
                    return task.result()
        except asyncio.CancelledError:
            task.cancel()
            raise

    async def _read_reply(self, slot: WorkerSlot,
                          seq: int) -> "tuple[int, dict] | None":
        """The worker's VERDICT/ERROR for ``seq`` (None on EOF).

        One assignment is in flight per worker and channels are never
        reused across processes, so a mismatched seq can only be a
        protocol bug — surfaced, not skipped. A VERDICT carrying a
        stale lease epoch is the exception: that is a fenced reply
        from a session whose work was already requeued, discarded so
        it can never double-apply.
        """
        while True:
            message = await slot.channel.recv_message()
            if message is None:
                return None
            msg_type, payload = message
            if msg_type == wire.MSG_HELLO:
                continue  # late duplicate announcement; harmless
            if msg_type == wire.MSG_HEARTBEAT:
                if payload.get("lease") == slot.lease_epoch:
                    slot.last_heartbeat = \
                        asyncio.get_running_loop().time()
                continue
            if msg_type not in (wire.MSG_VERDICT, wire.MSG_ERROR):
                continue
            if msg_type == wire.MSG_VERDICT and \
                    payload.get("lease", slot.lease_epoch) != \
                    slot.lease_epoch:
                slot.fenced += 1
                self.supervision.tally("fenced_replies")
                _logger.warning(
                    "%s worker %d sent a verdict under stale lease "
                    "%r (current %d); fenced", self.kind, slot.index,
                    payload.get("lease"), slot.lease_epoch)
                self.service.events.emit(
                    EVENT_LEASE_FENCED,
                    request_id=payload.get("request_id"),
                    worker=slot.index,
                    stale_lease=payload.get("lease"),
                    lease=slot.lease_epoch)
                continue
            if payload.get("seq") != seq:
                raise TransportError(
                    f"worker {slot.index} answered seq "
                    f"{payload.get('seq')!r} while {seq} was in "
                    f"flight")
            return msg_type, payload

    def _absorb_verdict(self, payload: dict,
                        worker_id: int) -> TransportOutcome:
        """Rebuild the report and fold worker telemetry into the
        service's obs plane."""
        report = wire.report_from_wire(payload["report"])
        metrics = payload.get("metrics") or {}
        if metrics:
            self.service.metrics.merge(registry_from_dict(metrics))
        for event in payload.get("events") or []:
            attrs = dict(event.get("attrs") or {})
            attrs.setdefault("worker", worker_id)
            self.service.events.emit(
                event["kind"], request_id=event.get("request_id"),
                **attrs)
        quarantine = dict(payload.get("quarantine") or {})
        self._quarantined.update(quarantine)
        return TransportOutcome(
            report=report,
            stage_counts=dict(payload.get("stage_counts") or {}),
            quarantine=quarantine,
            worker_id=worker_id)

    # -- recovery ----------------------------------------------------------

    def _requeue(self, slot: WorkerSlot, assignment: _Assignment,
                 cause: str) -> None:
        """Put lost work back on the queue (idempotent: pure re-run)."""
        assignment.attempts += 1
        self.service.events.emit(
            EVENT_WORKER_REQUEUE,
            request_id=assignment.request.request_id,
            worker=slot.index, cause=cause,
            attempts=assignment.attempts)
        self._pending.put_nowait(assignment)

    async def _try_rejoin(self, slot: WorkerSlot) -> bool:
        """Wait for a partitioned worker to reconnect in grace.

        The base transport has no reconnect story (a dead pipe means a
        dead child); the socket transport overrides this to re-arm the
        slot's rendezvous and wait out its configured grace window.
        """
        return False

    async def _handle_loss(self, slot: WorkerSlot, cause: str, *,
                           allow_rejoin: bool = True) -> None:
        """Rejoin-or-requeue-then-restart, or open the breaker.

        A crashed *connection* is given one chance to be a partition:
        if the worker process dials back within the transport's grace
        window it re-registers under a fresh lease epoch and no
        restart budget is burned (the process never died). Everything
        else takes the reap/restart/breaker path unchanged.
        """
        supervision = self.supervision

        def requeue(assignment: _Assignment) -> None:
            self._requeue(slot, assignment, cause)

        if allow_rejoin and cause == "crash" and \
                await self._try_rejoin(slot):
            supervision.rejoin(slot)
            self.service.events.emit(
                EVENT_WORKER_REJOINED, worker=slot.index,
                lease=slot.lease_epoch, rejoins=slot.rejoins)
            supervision.reclaim(slot, requeue)
            return
        await self._reap(slot)
        action = supervision.recover(slot, requeue)
        if isinstance(action, OpenBreaker):
            if all(other.breaker_open for other in self.slots) and \
                    self._inline_task is None:
                # no workers left anywhere: degrade to running
                # assignments in the coordinator process —
                # sequential, but complete
                self._inline_task = \
                    asyncio.get_running_loop().create_task(
                        self._inline_loop(),
                        name=f"transport-{self.kind}-inline-drain")
            return
        if action.delay > 0:
            await asyncio.sleep(action.delay)
        self._spawn(slot)
        self.service.events.emit(
            EVENT_WORKER_SPAWNED, worker=slot.index,
            transport=self.kind, start_method=self.start_method,
            restart=slot.restarts)
        await self._connect_or_recover(slot)

    async def _inline_loop(self) -> None:
        while True:
            assignment = await self._pending.get()
            if assignment.future.cancelled():
                continue
            self.inline_jobs += 1
            self.service.events.emit(
                EVENT_SHARD_INLINE_DRAIN, shard=-1, jobs=1)
            try:
                outcome = self._run_inline(assignment)
            except Exception as error:  # noqa: BLE001
                if not assignment.future.done():
                    assignment.future.set_exception(error)
                continue
            if not assignment.future.done():
                assignment.future.set_result(outcome)

    def _run_inline(self, assignment: _Assignment) -> TransportOutcome:
        """Degraded path: the coordinator checks the commit itself."""
        service = self.service
        request = assignment.request
        session = service._make_session(request)
        dag = UnitDag(request_id=request.request_id)
        repository = service.corpus.repository
        commit = repository.resolve(request.commit_id)
        report = run_units(
            session.iter_check_commit(repository, commit, dag=dag))
        quarantine: dict[str, str] = {}
        if session.last_build is not None:
            request_quarantine = session.last_build.quarantine
            quarantine = {arch: request_quarantine.reason(arch)
                          for arch in request_quarantine.archs()}
        self._quarantined.update(quarantine)
        return TransportOutcome(report=report,
                                stage_counts=dag.stage_counts(),
                                quarantine=quarantine,
                                worker_id=-1)

    # -- telemetry ---------------------------------------------------------

    def shard_stats(self) -> list:
        return [slot.stats() for slot in self.slots]

    @property
    def fenced_replies(self) -> int:
        """Stale-epoch verdicts fenced across every slot."""
        return self.supervision.fenced_replies

    def quarantined_archs(self) -> list:
        return sorted(self._quarantined)

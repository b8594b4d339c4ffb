"""The one supervision state machine every execution backend shares.

A lost worker must never lose a verdict and never produce a second
one. :class:`Supervision` owns that rule for every kind of *unit* — an
in-process :class:`~repro.service.shards.ArchShard` or a remote
:class:`~repro.service.transport.remote.WorkerSlot`. It is a plain
object: no event loop, no sleeping, no I/O. The callers keep only
their mechanics (cancelling a task or reaping a process, sleeping the
backoff, starting the replacement); every decision, counter, event,
metric and log line of supervision lives here.

Per unit::

    RUNNING --crash/hang--> RECOVERING --budget left--> RUNNING
                                |          (Restart(delay))
                                +--budget spent--> BREAKER_OPEN
                                                   (OpenBreaker;
                                                    terminal)

A unit is anything with ``index``, ``pickups``, ``claimed``,
``restarts``, ``breaker_open`` and ``breaker_reason`` attributes
(remote slots also carry ``rejoins`` and ``lease_epoch``).

Recovery hands the unit's claimed job back to the caller's ``requeue``
callable exactly once — the claim is cleared before the callback runs,
so a second recovery of the same loss finds nothing to requeue — and
then decides: :class:`Restart` with the exponential backoff of the
unit's k-th restart, or :class:`OpenBreaker` once
``SupervisorConfig.max_restarts_per_shard`` restarts are spent. A
unit whose breaker is open stays open.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import (
    EVENT_SHARD_BREAKER_OPEN,
    EVENT_SHARD_CRASH,
    EVENT_SHARD_HANG,
    EVENT_SHARD_RESTART,
    NULL_EVENTS,
)
from repro.obs.logcfg import get_logger
from repro.obs.metrics import NULL_METRICS

_logger = get_logger("service.supervisor")

#: fleet counters only the socket transport moves (zero in-process);
#: each is mirrored by a ``service.transport.<name>`` metric
FLEET_COUNTERS = ("rejoins", "fenced_replies", "auth_rejected")


@dataclass(frozen=True)
class Restart:
    """Restart the unit's worker after ``delay`` real seconds."""

    delay: float


@dataclass(frozen=True)
class OpenBreaker:
    """The restart budget is spent: the unit degrades to inline runs."""

    reason: str


class Supervision:
    """Crash/hang accounting, requeue, restart budget and breakers."""

    def __init__(self, units, config, *, name: str = "worker {}",
                 metrics=None, events=None) -> None:
        #: the supervised units (read live: stats list open breakers)
        self.units = units
        self.config = config
        #: ``str.format`` template naming one unit in log lines
        self.name = name
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events = events if events is not None else NULL_EVENTS
        self.crashes_detected = 0
        self.hangs_detected = 0
        self.restarts = 0
        self.requeued_jobs = 0
        self.breakers_opened = 0
        self.rejoins = 0
        self.fenced_replies = 0
        self.auth_rejected = 0

    def _label(self, unit) -> str:
        return self.name.format(unit.index)

    # -- detection ---------------------------------------------------------

    def detect(self, unit, cause: str, *, request_id=None,
               error: str = "") -> None:
        """Count, log and announce one crash (``error`` names what
        killed the worker) or hang of ``unit``."""
        if cause == "crash":
            self.crashes_detected += 1
            self.metrics.counter(
                "service.supervisor.crashes_detected").inc()
            _logger.warning("%s crashed (%s); recovering",
                            self._label(unit), error)
            self.events.emit(EVENT_SHARD_CRASH, request_id=request_id,
                             shard=unit.index, error=error,
                             pickups=unit.pickups)
        elif cause == "hang":
            deadline = self.config.hang_deadline_seconds
            self.hangs_detected += 1
            self.metrics.counter(
                "service.supervisor.hangs_detected").inc()
            _logger.warning("%s hung past the %.3fs deadline; killing "
                            "and recovering", self._label(unit),
                            deadline)
            self.events.emit(EVENT_SHARD_HANG, request_id=request_id,
                             shard=unit.index,
                             deadline_seconds=deadline,
                             pickups=unit.pickups)
        else:
            raise ValueError(f"unknown loss cause {cause!r}")

    # -- recovery ----------------------------------------------------------

    def reclaim(self, unit, requeue) -> None:
        """Hand the unit's claimed job (if any) to ``requeue`` once."""
        job, unit.claimed = unit.claimed, None
        if job is None:
            return
        requeue(job)
        self.requeued_jobs += 1
        self.metrics.counter("service.supervisor.requeued_jobs").inc()

    def recover(self, unit, requeue) -> "Restart | OpenBreaker":
        """Requeue the lost claim, then restart or break the unit."""
        self.reclaim(unit, requeue)
        if unit.breaker_open:
            return OpenBreaker(unit.breaker_reason)
        budget = self.config.max_restarts_per_shard
        if unit.restarts >= budget:
            unit.breaker_open = True
            unit.breaker_reason = (f"restart budget exhausted "
                                   f"({budget} restart(s))")
            self.breakers_opened += 1
            self.metrics.counter(
                "service.supervisor.breakers_opened").inc()
            _logger.error("%s circuit breaker OPEN (%s)",
                          self._label(unit), unit.breaker_reason)
            self.events.emit(EVENT_SHARD_BREAKER_OPEN, shard=unit.index,
                             reason=unit.breaker_reason)
            return OpenBreaker(unit.breaker_reason)
        unit.restarts += 1
        self.restarts += 1
        self.metrics.counter("service.supervisor.restarts").inc()
        delay = self.config.backoff_seconds(unit.restarts)
        _logger.info("restarting %s (restart %d/%d, backoff %.3fs)",
                     self._label(unit), unit.restarts, budget, delay)
        self.events.emit(EVENT_SHARD_RESTART, shard=unit.index,
                         restart=unit.restarts, budget=budget,
                         backoff_seconds=delay)
        return Restart(delay)

    def rejoin(self, unit) -> None:
        """A lost connection came back within grace: the worker never
        died, so no restart budget is burned (the caller still
        :meth:`reclaim`\\ s the in-flight job)."""
        unit.rejoins += 1
        self.tally("rejoins")
        _logger.info("%s rejoined within grace (lease epoch %d)",
                     self._label(unit), unit.lease_epoch)

    def tally(self, counter: str) -> None:
        """Bump one of :data:`FLEET_COUNTERS` and its metric."""
        if counter not in FLEET_COUNTERS:
            raise ValueError(f"unknown fleet counter {counter!r}")
        setattr(self, counter, getattr(self, counter) + 1)
        self.metrics.counter(f"service.transport.{counter}").inc()

    # -- telemetry ---------------------------------------------------------

    def breaker_open_units(self) -> list:
        """Indices of units whose circuit breaker is open."""
        return [unit.index for unit in self.units if unit.breaker_open]

    def stats(self) -> dict:
        """The ``stats()["supervisor"]`` dict, uniform across every
        transport (fleet counters stay zero in-process)."""
        return {
            "crashes_detected": self.crashes_detected,
            "hangs_detected": self.hangs_detected,
            "restarts": self.restarts,
            "requeued_jobs": self.requeued_jobs,
            "breakers_opened": self.breakers_opened,
            "breaker_open_shards": self.breaker_open_units(),
            "rejoins": self.rejoins,
            "fenced_replies": self.fenced_replies,
            "auth_rejected": self.auth_rejected,
        }

"""Model-based test of the shared supervision state machine.

Hypothesis drives :class:`~repro.service.supervision.Supervision` —
the one machine both the in-process shard supervisor and the remote
transports run — through arbitrary interleavings of submit, claim,
complete, crash, hang and rejoin over fake units, and checks after
every step that no job is lost or duplicated, that restart budgets and
breakers behave, that every restart waits exactly its configured
backoff, and that the stats counters agree with an independent tally.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs.events import (
    EVENT_SHARD_BREAKER_OPEN,
    EVENT_SHARD_CRASH,
    EVENT_SHARD_HANG,
    EVENT_SHARD_RESTART,
    EventLog,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.supervision import OpenBreaker, Restart, Supervision
from repro.service.supervisor import SupervisorConfig


class FakeUnit:
    """The attributes a supervised unit carries (shard or slot)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.pickups = 0
        self.claimed = None
        self.restarts = 0
        self.breaker_open = False
        self.breaker_reason = ""
        self.rejoins = 0
        self.lease_epoch = 0


class SupervisionModel(RuleBasedStateMachine):
    @initialize(units=st.integers(1, 3), budget=st.integers(0, 3),
                base=st.sampled_from([0.0, 0.01, 0.25]),
                factor=st.sampled_from([1.0, 2.0, 3.0]),
                cap=st.sampled_from([0.05, 0.5, 10.0]))
    def setup(self, units, budget, base, factor, cap):
        self.config = SupervisorConfig(max_restarts_per_shard=budget,
                                       backoff_base_seconds=base,
                                       backoff_factor=factor,
                                       backoff_max_seconds=cap)
        self.units = [FakeUnit(index) for index in range(units)]
        self.events = EventLog()
        self.metrics = MetricsRegistry()
        self.machine = Supervision(self.units, self.config,
                                   metrics=self.metrics,
                                   events=self.events)
        self.submitted = 0
        self.pending: list = []
        self.completed: Counter = Counter()
        self.tally: Counter = Counter()
        self.seen_restarts = [0] * units
        self.ever_broken: set = set()

    units_index = st.integers(0, 2)

    def _unit(self, index: int) -> FakeUnit:
        return self.units[index % len(self.units)]

    def _requeue(self, job) -> None:
        self.pending.append(job)
        self.tally["requeued_jobs"] += 1

    # -- the work side -----------------------------------------------------

    @rule()
    def submit(self):
        self.submitted += 1
        self.pending.append(self.submitted)

    @precondition(lambda self: self.pending)
    @rule(index=units_index)
    def claim(self, index):
        unit = self._unit(index)
        if unit.claimed is not None or unit.breaker_open:
            return
        unit.pickups += 1
        unit.claimed = self.pending.pop(0)

    @rule(index=units_index)
    def complete(self, index):
        unit = self._unit(index)
        if unit.claimed is None:
            return
        self.completed[unit.claimed] += 1
        unit.claimed = None

    @precondition(lambda self: self.pending and
                  any(unit.breaker_open for unit in self.units))
    @rule()
    def run_inline(self):
        # a broken unit's work runs inline on the caller
        self.completed[self.pending.pop(0)] += 1

    # -- the supervision side ----------------------------------------------

    def _lose(self, unit, cause):
        was_broken = unit.breaker_open
        restarts_before = unit.restarts
        self.machine.detect(unit, cause, error="Boom")
        self.tally["crashes_detected" if cause == "crash"
                   else "hangs_detected"] += 1
        action = self.machine.recover(unit, self._requeue)
        assert unit.claimed is None
        if was_broken:
            assert isinstance(action, OpenBreaker)
            assert unit.restarts == restarts_before
        elif restarts_before < self.config.max_restarts_per_shard:
            assert isinstance(action, Restart)
            assert unit.restarts == restarts_before + 1
            assert action.delay == \
                self.config.backoff_seconds(unit.restarts)
            self.tally["restarts"] += 1
        else:
            assert isinstance(action, OpenBreaker)
            assert unit.breaker_open
            assert action.reason == unit.breaker_reason
            self.tally["breakers_opened"] += 1
        if unit.breaker_open:
            self.ever_broken.add(unit.index)

    @rule(index=units_index)
    def crash(self, index):
        self._lose(self._unit(index), "crash")

    @rule(index=units_index)
    def hang(self, index):
        self._lose(self._unit(index), "hang")

    @rule(index=units_index)
    def rejoin(self, index):
        unit = self._unit(index)
        restarts_before = unit.restarts
        self.machine.rejoin(unit)
        self.machine.reclaim(unit, self._requeue)
        self.tally["rejoins"] += 1
        assert unit.claimed is None
        assert unit.restarts == restarts_before  # no budget burned

    # -- invariants --------------------------------------------------------

    @invariant()
    def every_job_exactly_once(self):
        held = Counter(self.pending)
        held.update(unit.claimed for unit in self.units
                    if unit.claimed is not None)
        held.update(self.completed)
        assert held == Counter(range(1, self.submitted + 1))

    @invariant()
    def restarts_are_monotone_and_bounded(self):
        for unit in self.units:
            assert self.seen_restarts[unit.index] <= unit.restarts \
                <= self.config.max_restarts_per_shard
            self.seen_restarts[unit.index] = unit.restarts

    @invariant()
    def breakers_stay_open(self):
        for index in self.ever_broken:
            assert self.units[index].breaker_open
        assert self.machine.breaker_open_units() == \
            sorted(self.ever_broken)

    @invariant()
    def stats_match_the_model(self):
        stats = self.machine.stats()
        for counter in ("crashes_detected", "hangs_detected",
                        "restarts", "requeued_jobs", "breakers_opened",
                        "rejoins"):
            assert stats[counter] == self.tally[counter], counter
        assert stats["fenced_replies"] == 0
        assert stats["auth_rejected"] == 0
        assert stats["breaker_open_shards"] == sorted(self.ever_broken)
        counts = self.events.counts
        assert counts.get(EVENT_SHARD_CRASH, 0) == \
            self.tally["crashes_detected"]
        assert counts.get(EVENT_SHARD_HANG, 0) == \
            self.tally["hangs_detected"]
        assert counts.get(EVENT_SHARD_RESTART, 0) == \
            self.tally["restarts"]
        assert counts.get(EVENT_SHARD_BREAKER_OPEN, 0) == \
            self.tally["breakers_opened"]
        metrics = self.metrics.to_dict()["counters"]
        for counter in ("crashes_detected", "hangs_detected",
                        "restarts", "requeued_jobs",
                        "breakers_opened"):
            assert metrics.get(f"service.supervisor.{counter}", 0) == \
                self.tally[counter], counter
        assert metrics.get("service.transport.rejoins", 0) == \
            self.tally["rejoins"]


SupervisionModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestSupervisionModel = SupervisionModel.TestCase

"""The sharded, cross-request-batching check service.

Import the public names from :mod:`repro.api`; this package is the
implementation. See DESIGN.md §6 for the architecture.
"""

from repro.service.batcher import CrossRequestBatcher
from repro.service.request import CheckRequest, CheckResult
from repro.service.service import (
    START_METHODS,
    CheckService,
    ServiceConfig,
    drive_units,
)
from repro.service.shards import ArchShard, ShardPool, shard_index
from repro.service.supervisor import ShardSupervisor, SupervisorConfig
from repro.service.transport import (
    TRANSPORT_KINDS,
    Transport,
    TransportOutcome,
    create_transport,
    live_transports,
)

__all__ = [
    "ArchShard",
    "CheckRequest",
    "CheckResult",
    "CheckService",
    "CrossRequestBatcher",
    "START_METHODS",
    "ServiceConfig",
    "ShardPool",
    "ShardSupervisor",
    "SupervisorConfig",
    "TRANSPORT_KINDS",
    "Transport",
    "TransportOutcome",
    "create_transport",
    "drive_units",
    "live_transports",
    "shard_index",
]

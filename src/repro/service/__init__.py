"""Always-on PSC query service: registry, micro-batching, caching, serving.

The paper's rckAlign is a one-shot batch job; this package is the
long-lived server the ROADMAP's query-vs-corpus workloads need.  It
loads a structure corpus once into a content-hash
:class:`StructureRegistry`, coalesces concurrent ``align``/``search``
requests through a :class:`MicroBatcher` into batches dispatched to the
:mod:`repro.parallel` farm, memoizes pair results in a
:class:`ResultCache` (byte-identical responses on hit), bridges
``submit-matrix`` requests into durable :mod:`repro.runs` runs, and
serves it all over a stdlib asyncio TCP line protocol with admission
control — overload sheds typed :class:`ServiceOverloaded` replies
instead of stalling.

Start a server with ``python -m repro.cli serve``; talk to it with
``python -m repro.cli query ...`` or :class:`ServiceClient`.
"""

from repro.service.batcher import MicroBatcher, PairJob, result_body
from repro.service.cache import ResultCache, pair_key
from repro.service.client import ServiceClient, backoff_delays
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    BadRequest,
    NotFound,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
    canonical_json,
    resolve_method,
)
from repro.service.registry import StructureRegistry, chain_content_hash
from repro.service.server import LineProtocolServer, PSCService, ServiceConfig
from repro.service.shard import (
    AsyncShardConnection,
    CoordinatorConfig,
    ShardCoordinator,
    parse_shard_spec,
    partition_keys,
    rendezvous_owner,
    rendezvous_rank,
)

__all__ = [
    "AsyncShardConnection",
    "BadRequest",
    "CoordinatorConfig",
    "LatencyHistogram",
    "LineProtocolServer",
    "MicroBatcher",
    "NotFound",
    "PSCService",
    "PairJob",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "ShardCoordinator",
    "StructureRegistry",
    "backoff_delays",
    "canonical_json",
    "chain_content_hash",
    "pair_key",
    "parse_shard_spec",
    "partition_keys",
    "rendezvous_owner",
    "rendezvous_rank",
    "resolve_method",
    "result_body",
]

"""Analysis-as-a-service: the ``repro.serve`` subsystem.

The ROADMAP's serving layer over the digest-addressed cache: a
long-running asyncio HTTP/JSON front-end on the same
:class:`repro.api.AnalysisSession` machinery every offline caller
uses, with the hit/miss economics the benchmarks measured — warm
reruns at a fraction of a percent of cold — turned into a product
shape::

    herbgrind-py serve --port 8318 --workers 4 --store-dir /var/repro

    from repro.serve import ServeClient
    reply = ServeClient(port=8318).analyze(request)

Pieces:

* :mod:`repro.serve.pool`    — supervised worker processes (timeouts,
  crash recovery, bounded queue, drain) that persist what they compute,
* :mod:`repro.serve.service` — digest-addressed serving core: body
  table → in-flight dedupe → memory LRU → sharded store → pool,
* :mod:`repro.serve.server`  — the asyncio streams HTTP shell and the
  ``run_server`` blocking entry point,
* :mod:`repro.serve.client`  — the stdlib keep-alive client used by
  tests, the smoke script, and the traffic-replay benchmark.

The on-disk format is :class:`repro.api.store.ShardedResultStore` —
the same store ``AnalysisSession(cache_dir=...)`` reads and writes, so
an offline corpus run pre-warms a server and vice versa.
"""

from repro.api.store import ShardedResultStore
from repro.serve.client import ServeClient, ServeError, ServeReply
from repro.serve.pool import (
    AnalysisTimeout,
    PoolClosed,
    PoolError,
    QueueFull,
    Shard,
    WorkerCrashed,
    WorkerPool,
)
from repro.serve.server import ReproServer, run_server
from repro.serve.service import AnalysisService, ServeOutcome

__all__ = [
    "AnalysisService",
    "AnalysisTimeout",
    "PoolClosed",
    "PoolError",
    "QueueFull",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServeOutcome",
    "ServeReply",
    "Shard",
    "ShardedResultStore",
    "WorkerCrashed",
    "WorkerPool",
    "run_server",
]

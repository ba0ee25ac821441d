"""The engine's process layer: shard-replica workers behind a coordinator.

PRs 1–8 built the whole engine inside one Python process, so a K-way
shard fan-out contends on one GIL however many cores the host has.  This
package promotes each shard replica — already a self-contained
store+suite bundle behind its own lock — into a **worker process**
serving a compact length-prefixed JSON RPC protocol over localhost
sockets:

* :mod:`~repro.engine.cluster.protocol` — the wire format and payload
  (de)serialization;
* :mod:`~repro.engine.cluster.worker` — the :class:`ShardWorker` process
  entrypoint (deterministic replica rebuild + threaded serve loop);
* :mod:`~repro.engine.cluster.client` — the :class:`WorkerClient`
  connection pool and its failure taxonomy;
* :mod:`~repro.engine.cluster.coordinator` — the :class:`Coordinator`
  owning placement, the write fan-out log, heartbeats and replica
  failover;
* :mod:`~repro.engine.cluster.writelog` — the per-shard ordered
  mutation log that catches restarted workers up.

``QueryEngine(workers="process")`` turns the layer on; the default
in-process mode is untouched, and the executor falls back to its own
(always-current) state whenever no worker can serve a shard.
"""

from repro.engine.cluster.client import (
    WorkerClient,
    WorkerError,
    WorkerUnavailable,
)
from repro.engine.cluster.coordinator import Coordinator, WorkerHandle
from repro.engine.cluster.worker import ShardWorker, worker_main
from repro.engine.cluster.writelog import LogEntry, WriteLog

__all__ = [
    "Coordinator",
    "LogEntry",
    "ShardWorker",
    "WorkerClient",
    "WorkerError",
    "WorkerHandle",
    "WorkerUnavailable",
    "WriteLog",
    "worker_main",
]

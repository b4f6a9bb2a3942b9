"""The serving subsystem: versioned artifacts + a resident query service.

Offline, ``repro embed`` fits embeddings and writes them to disk; this
package is everything *after* that:

* :mod:`~repro.serve.artifacts` — a versioned on-disk
  :class:`ArtifactStore` (manifest + blake2b checksums, crash-safe
  publishes, resolve-latest).
* :mod:`~repro.serve.service` — :class:`EmbeddingService`, the resident
  compute tier: one artifact loaded once, one ``TopKEngine`` clone per
  worker thread, hot reload with zero failed in-flight requests.
* :mod:`~repro.serve.batcher` — :class:`MicroBatcher`, coalescing
  concurrent single-user queries into one blocked GEMM.
* :mod:`~repro.serve.server` — :class:`EmbeddingServer`, a stdlib
  JSON-over-HTTP front end with admission control and deadline-based
  load-shedding (429 / 503).

The service can also answer through the IVF ANN index of
:mod:`repro.ann` (``repro serve --ann --nprobe P``): sublinear
candidate generation, exact rerank, measured recall.

``repro publish``, ``repro index``, and ``repro serve`` are the CLI
entry points; see ``docs/SERVING.md`` for the operational story.
"""

from .artifacts import (
    ArtifactError,
    ArtifactRef,
    ArtifactStore,
    LoadedArtifact,
    array_checksum,
    load_embedding_arrays,
)
from .batcher import BatcherClosed, BatchStats, MicroBatcher, QueueFull
from .server import EmbeddingServer, ServerConfig
from .service import EmbeddingService, ServiceMetrics

__all__ = [
    "ArtifactError",
    "ArtifactRef",
    "ArtifactStore",
    "BatchStats",
    "BatcherClosed",
    "EmbeddingServer",
    "EmbeddingService",
    "LoadedArtifact",
    "MicroBatcher",
    "QueueFull",
    "ServerConfig",
    "ServiceMetrics",
    "array_checksum",
    "load_embedding_arrays",
]

"""Live observability for the orchestration stack.

Three pieces, layered:

* :mod:`repro.observability.metrics` — a cheap process-local registry of
  counters/gauges/histograms, instrumented through the distributed
  server/client, the scheduling service and the runner/store hot paths.
* :mod:`repro.observability.events` — structured trace spans correlated
  by the wire op-ids, journaled into the store's ``events`` table so
  traces cross process boundaries and survive restarts.
* :mod:`repro.observability.dashboard` — a stdlib-``http.server`` live
  HTML dashboard + JSON snapshot + Prometheus ``/metrics`` endpoint over
  any :class:`~repro.distributed.protocol.StoreProtocol` backend (import
  it explicitly; it pulls in the export/distributed layers).

This package deliberately imports only :mod:`repro.analysis` — the hot
layers import it, so it must stay cycle-free and light.
"""

from . import events, metrics
from .metrics import MetricsRegistry, registry

__all__ = ["events", "metrics", "MetricsRegistry", "registry"]

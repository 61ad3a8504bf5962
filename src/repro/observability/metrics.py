"""Process-local metrics registry: counters, gauges, histograms.

The registry is the in-process half of the observability layer (the
cross-process half — trace spans journaled through the store — lives in
:mod:`repro.observability.events`).  Every hot layer bumps named metrics
through the module-level singleton:

* ``repro.distributed`` — ``rpc.requests``/``rpc.frames_in``/
  ``rpc.frames_out``/``rpc.op_replays`` on the server; on the client,
  ``calls``/``bytes_out``/``reconnects``/``retries`` under each client
  class's prefix: ``remote_store.*`` for the store's, and
  ``schedule_client.*`` for the scheduling service's.
* ``repro.service`` — ``service.requests``/``service.admitted``/
  ``service.rejected``/``service.cache_hits``/``service.solves`` mirrors
  of the journaled telemetry counters plus the
  ``service.executors_busy`` occupancy gauge.
* ``repro.orchestration`` — ``runner.claims``/``runner.completes``/
  ``runner.failures`` with ``runner.claim_latency_s`` and
  ``runner.cell_duration_s`` histograms; ``store.claims``/
  ``store.completes``/``store.reclaims`` and the ``store.replan_epoch``
  gauge on the store itself.

Design constraints, in order: **cheap** (one leaf-lock acquisition and a
dict update per bump — instrumentation must stay inside the 5% overhead
envelope on the scheduling-service benchmark), **JSON-safe** (every value
is a number; :meth:`MetricsRegistry.snapshot` must serialise with a plain
``json.dumps`` — the ``telemetry-json`` lint rule also flags non-numeric
literals passed to the emission helpers), and **dependency-free**.

The registry lock is a :func:`repro.analysis.racecheck.tracked_lock` leaf:
metric bumps happen under dispatch/service/store locks all over the
stack, and never acquire anything else while held, so the order graph
gains only inbound edges.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping

from ..analysis import racecheck

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "gauge_add",
    "observe",
    "snapshot",
    "reset",
    "render_prometheus",
]

# Histogram bucket upper bounds, in seconds: spans claim RPCs (sub-ms on
# loopback) through multi-minute MILP cells.
DEFAULT_BUCKETS: tuple[float, ...] = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)


def _numeric(value: Any) -> float:
    """Validate a metric value: JSON-safe numbers only, no stringly data."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"metric values must be int/float (JSON-safe numbers), "
            f"got {type(value).__name__}: {value!r}"
        )
    return float(value)


class MetricsRegistry:
    """A named bag of counters, gauges and fixed-bucket histograms.

    All three families share one flat dot-separated namespace
    (``layer.metric``) and one leaf lock; :meth:`snapshot` returns a plain
    JSON-safe dict copy, cheap enough to serve from a polling endpoint.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self._lock = racecheck.tracked_lock("observability.metrics")
        self._buckets = tuple(sorted(float(b) for b in buckets))
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, minimum, maximum, per-bucket counts]
        self._histograms: dict[str, list[Any]] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def counter(self, name: str, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to a monotonic counter."""
        value = _numeric(amount)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: int | float) -> None:
        """Set a point-in-time gauge."""
        level = _numeric(value)
        with self._lock:
            self._gauges[name] = level

    def gauge_add(self, name: str, delta: int | float) -> None:
        """Adjust a gauge by ``delta`` (occupancy/queue-depth tracking)."""
        step = _numeric(delta)
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0.0) + step

    def observe(self, name: str, value: int | float) -> None:
        """Record one sample into a fixed-bucket histogram."""
        sample = _numeric(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = [0, 0.0, sample, sample, [0] * (len(self._buckets) + 1)]
                self._histograms[name] = hist
            hist[0] += 1
            hist[1] += sample
            hist[2] = min(hist[2], sample)
            hist[3] = max(hist[3], sample)
            for index, bound in enumerate(self._buckets):
                if sample <= bound:
                    hist[4][index] += 1
                    break
            else:
                hist[4][-1] += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe copy of every metric (the dashboard/endpoint payload)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: {
                    "count": hist[0],
                    "sum": hist[1],
                    "min": hist[2],
                    "max": hist[3],
                    "buckets": {
                        **{
                            str(bound): hist[4][index]
                            for index, bound in enumerate(self._buckets)
                        },
                        "+Inf": hist[4][-1],
                    },
                }
                for name, hist in self._histograms.items()
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Drop every recorded metric (tests and fresh servers)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# Prometheus text rendering
# ----------------------------------------------------------------------
_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(prefix: str, name: str) -> str:
    return _NAME_SANITISE.sub("_", f"{prefix}_{name}")


def render_prometheus(
    snap: Mapping[str, Any],
    *,
    prefix: str = "repro",
    extra_gauges: Mapping[str, int | float] | None = None,
) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text format.

    ``extra_gauges`` lets callers (the dashboard) merge store-derived
    values — row counts, completions, the re-plan epoch — into the same
    scrape without routing them through the process-local registry.
    """
    lines: list[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        metric = _prom_name(prefix, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    merged = dict(snap.get("gauges", {}))
    merged.update(extra_gauges or {})
    for name, value in sorted(merged.items()):
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(value):g}")
    for name, hist in sorted(snap.get("histograms", {}).items()):
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in hist["buckets"].items():
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f"{metric}_sum {hist['sum']:g}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Module-level singleton: the registry every layer instruments against
# ----------------------------------------------------------------------
registry = MetricsRegistry()

counter = registry.counter
gauge = registry.gauge
gauge_add = registry.gauge_add
observe = registry.observe
snapshot = registry.snapshot
reset = registry.reset

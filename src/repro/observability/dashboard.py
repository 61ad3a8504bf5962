"""Live repro orch dashboard: HTML view, JSON snapshot, Prometheus text.

``repro orch dashboard DB|--connect HOST:PORT`` serves three endpoints from
a stdlib :class:`http.server.ThreadingHTTPServer` (no new dependencies):

``/``
    A self-contained HTML page that polls ``/snapshot.json`` and renders
    grid progress, per-worker throughput, cache hit rates, the per-epoch
    cost-model accuracy trend, the solver queue/solve/wire split with the
    per-endpoint histogram, the scheduling-service counters, and the most
    recent op-id-correlated trace chains.
``/snapshot.json``
    The raw :func:`build_snapshot` payload — the same shape ``repro orch
    status --json`` prints, so scripts and the page consume one contract.
``/metrics``
    Prometheus text: the process-local registry
    (:mod:`repro.observability.metrics`) merged with store-derived gauges
    (row counts, completions, re-plan epoch, cache counters), so the
    fleet-wide progress counters are scrapable even though workers and
    servers bump their registries in *their* processes.

All store reads go through :class:`~repro.distributed.protocol.StoreProtocol`
— the dashboard points at a SQLite file or at a running ``repro orch
serve`` address interchangeably, and never writes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Sequence

from ..analysis import racecheck
from . import events, metrics

__all__ = [
    "DEFAULT_DASHBOARD_PORT",
    "DashboardServer",
    "build_snapshot",
]

# Default HTTP port; store serve=7479, schedule service=7481.
DEFAULT_DASHBOARD_PORT = 7482

# How many journaled spans a snapshot carries by default: enough to show
# the latest chains without the payload growing with the run.
DEFAULT_SPAN_LIMIT = 50

# The scheduling service journals under this experiment name; imported
# lazily in build_snapshot to keep this module's import graph light.
_SERVICE_EXPERIMENT = "service"


def build_snapshot(
    store: Any,
    experiments: Sequence[str] | None = None,
    *,
    span_limit: int = DEFAULT_SPAN_LIMIT,
) -> dict[str, Any]:
    """One JSON-safe progress snapshot of a store (local or remote).

    The single read-path contract behind ``/snapshot.json`` and ``repro
    orch status --json``.  ``experiments`` scopes the grid sections (the
    trace spans and metrics sections are store- and process-global).
    Every value is derived through :class:`StoreProtocol` reads only.
    """
    from ..orchestration.export import (
        aggregate_service_telemetry,
        aggregate_solver_telemetry,
        replan_trend,
    )

    counts = store.status_counts()
    if experiments is not None:
        scope = [name for name in experiments if name in counts]
    else:
        scope = sorted(counts)
    per_experiment = {name: dict(counts.get(name, {})) for name in scope}

    totals = {status: 0 for status in ("pending", "running", "done", "error")}
    for statuses in per_experiment.values():
        for status, n in statuses.items():
            totals[status] = totals.get(status, 0) + n
    total_rows = sum(totals.values())
    totals["total"] = total_rows
    totals["claimed"] = totals["running"] + totals["done"] + totals["error"]
    totals["completions"] = int(store.completion_count())

    done_rows = []
    error_rows = []
    for name in scope:
        statuses = per_experiment[name]
        if statuses.get("done"):
            done_rows.extend(store.fetch_rows(name, status="done"))
        if statuses.get("error"):
            error_rows.extend(store.fetch_rows(name, status="error"))

    workers: dict[str, dict[str, Any]] = {}
    for row in done_rows:
        stats = workers.setdefault(
            row.worker or "?", {"done": 0, "errors": 0, "total_duration": 0.0}
        )
        stats["done"] += 1
        stats["total_duration"] += float(row.duration or 0.0)
    for row in error_rows:
        stats = workers.setdefault(
            row.worker or "?", {"done": 0, "errors": 0, "total_duration": 0.0}
        )
        stats["errors"] += 1
    for stats in workers.values():
        stats["mean_duration"] = (
            stats["total_duration"] / stats["done"] if stats["done"] else 0.0
        )

    service: dict[str, Any] | None = None
    if _SERVICE_EXPERIMENT in counts and (
        experiments is None or _SERVICE_EXPERIMENT in experiments
    ):
        service_counts = counts[_SERVICE_EXPERIMENT]
        service_done = [row for row in done_rows if row.experiment == _SERVICE_EXPERIMENT]
        if _SERVICE_EXPERIMENT not in scope:
            service_done = store.fetch_rows(_SERVICE_EXPERIMENT, status="done")
        service = {
            "queue": service_counts.get("pending", 0) + service_counts.get("running", 0),
            "telemetry": aggregate_service_telemetry(
                service_done, tail=store.service_telemetry_tail()
            ),
        }

    # Old servers predate the events table: degrade to an empty trace
    # section instead of failing the whole snapshot.
    try:
        recent = store.fetch_events(limit=span_limit)
    except Exception:
        recent = []

    return {
        "generated": time.time(),
        "experiments": per_experiment,
        "totals": totals,
        "cache": dict(store.cache_stats()),
        "replan_epoch": int(store.replan_epoch()),
        "cost_trend": replan_trend(done_rows),
        "workers": workers,
        "solver_telemetry": aggregate_solver_telemetry(done_rows),
        "service": service,
        "spans": {"recent": recent, "chains": events.chains(recent)},
        "metrics": metrics.snapshot(),
    }


def _store_gauges(snapshot: dict[str, Any]) -> dict[str, float]:
    """Store-derived values merged into the ``/metrics`` scrape.

    Workers and servers bump their registries in their *own* processes, so
    the dashboard's registry alone cannot show fleet progress — these
    gauges carry the store's ground truth (and the CI smoke asserts they
    advance during a live drain).
    """
    totals = snapshot["totals"]
    gauges = {
        f"store.rows_{status}": float(totals.get(status, 0))
        for status in ("pending", "running", "done", "error", "claimed", "total")
    }
    gauges["store.completions"] = float(totals.get("completions", 0))
    gauges["store.replan_epoch"] = float(snapshot.get("replan_epoch", 0))
    cache = snapshot.get("cache", {})
    gauges["store.cache_entries"] = float(cache.get("entries", 0))
    gauges["store.cache_hits"] = float(cache.get("hits", 0))
    if snapshot.get("service"):
        gauges["service.queue"] = float(snapshot["service"].get("queue", 0))
    return gauges


_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro orch dashboard</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 1.5rem; background: #11151c; color: #d8dee9; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.4rem;
       border-bottom: 1px solid #2e3440; padding-bottom: 0.2rem; }
  table { border-collapse: collapse; margin-top: 0.4rem; }
  th, td { padding: 0.15rem 0.8rem 0.15rem 0; text-align: left;
           font-size: 0.85rem; }
  th { color: #81a1c1; font-weight: normal; }
  .bar { background: #2e3440; height: 0.8rem; width: 24rem;
         display: inline-block; vertical-align: middle; }
  .bar > span { background: #a3be8c; height: 100%; display: block; }
  .err { color: #bf616a; } .dim { color: #616e88; }
  #meta { color: #616e88; font-size: 0.8rem; }
  pre { font-size: 0.78rem; color: #8fbcbb; }
</style>
</head>
<body>
<h1>repro orch dashboard</h1>
<div id="meta">connecting&hellip;</div>
<h2>progress</h2><div id="progress"></div>
<h2>experiments</h2><div id="experiments"></div>
<h2>workers</h2><div id="workers"></div>
<h2>cost model</h2><div id="trend"></div>
<h2>solver</h2><div id="solver"></div>
<h2>service</h2><div id="service"></div>
<h2>trace chains</h2><div id="chains"></div>
<h2>metrics</h2><pre id="metrics"></pre>
<script>
const REFRESH_MS = %REFRESH_MS%;
function esc(s) { return String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;","\\"":"&quot;"}[c])); }
function table(headers, rows) {
  let h = "<table><tr>" + headers.map(x => "<th>"+esc(x)+"</th>").join("") + "</tr>";
  for (const r of rows)
    h += "<tr>" + r.map(x => "<td>"+x+"</td>").join("") + "</tr>";
  return h + "</table>";
}
function render(s) {
  const t = s.totals;
  document.getElementById("meta").textContent =
    "snapshot " + new Date(s.generated * 1000).toLocaleTimeString() +
    " — replan epoch " + s.replan_epoch +
    " — cache " + s.cache.entries + " entries / " + s.cache.hits + " hits";
  const pct = t.total ? Math.round(100 * t.done / t.total) : 0;
  document.getElementById("progress").innerHTML =
    '<span class="bar"><span style="width:' + pct + '%"></span></span> ' +
    t.done + "/" + t.total + " done (" + pct + "%), " +
    t.running + " running, " + t.pending + " pending" +
    (t.error ? ', <span class="err">' + t.error + " error</span>" : "") +
    ' <span class="dim">claimed ' + t.claimed +
    ", completions " + t.completions + "</span>";
  document.getElementById("experiments").innerHTML = table(
    ["experiment", "pending", "running", "done", "error"],
    Object.entries(s.experiments).map(([name, c]) =>
      [esc(name), c.pending||0, c.running||0, c.done||0, c.error||0]));
  document.getElementById("workers").innerHTML = table(
    ["worker", "done", "errors", "mean s/cell", "total s"],
    Object.entries(s.workers).map(([tag, w]) =>
      [esc(tag), w.done, w.errors, w.mean_duration.toFixed(3),
       w.total_duration.toFixed(2)]));
  document.getElementById("trend").innerHTML = s.cost_trend.length
    ? table(["epoch", "estimate/actual (gmean)", "n"],
        s.cost_trend.map(p => [p.epoch, p.accuracy.toFixed(3) + "x", p.n]))
    : '<span class="dim">no completed rows with estimates yet</span>';
  const st = s.solver_telemetry;
  document.getElementById("solver").innerHTML = st
    ? table(["solves", "wall s", "backends"],
        [[st.solves, st.wall_time.toFixed(3),
          esc(Object.entries(st.backends).map(
            ([b, n]) => b + ":" + n).join(" ") || "-")]])
    : '<span class="dim">no solver telemetry yet</span>';
  const svc = s.service;
  document.getElementById("service").innerHTML = svc
    ? table(["queue", "requests", "admitted", "rejected", "cache hits", "solves"],
        [[svc.queue].concat(["requests", "admitted", "rejected",
          "cache_hits", "solves"].map(
            k => (svc.telemetry || {})[k] || 0))])
    : '<span class="dim">no scheduling service journal</span>';
  const chains = Object.entries(s.spans.chains).slice(-8).reverse();
  document.getElementById("chains").innerHTML = chains.length
    ? table(["op", "chain"],
        chains.map(([op, spans]) => [
          '<span class="dim">' + esc(op.slice(0, 12)) + "&hellip;</span>",
          spans.map(sp => esc(sp.kind) +
            (sp.duration != null
              ? " (" + (sp.duration * 1000).toFixed(1) + "ms)" : "")
          ).join(" &rarr; ")]))
    : '<span class="dim">no journaled spans yet</span>';
  const counters = Object.entries(s.metrics.counters);
  document.getElementById("metrics").textContent = counters.length
    ? counters.map(([k, v]) => k + " = " + v).join("\\n")
    : "(dashboard-process registry is empty; see /metrics for store gauges)";
}
async function tick() {
  try {
    const reply = await fetch("snapshot.json");
    render(await reply.json());
  } catch (err) {
    document.getElementById("meta").textContent = "snapshot failed: " + err;
  }
  setTimeout(tick, REFRESH_MS);
}
tick();
</script>
</body>
</html>
"""


class DashboardServer:
    """Serve the dashboard for one store target (SQLite path or server).

    Owns its own store handle: a remote target opens a read-only-by-use
    :class:`~repro.distributed.RemoteStore` ride-along connection; a local
    path opens the SQLite file with ``check_same_thread=False``, serialized
    by ``_store_lock`` (HTTP handler threads all read under it — the same
    visible-serializer contract the store servers follow).  Snapshots are
    cached for ``refresh_s`` so a fast-polling page (or several) costs one
    store read per interval, not one per request.
    """

    def __init__(
        self,
        target: "str | os.PathLike[str]",
        *,
        token: str | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_DASHBOARD_PORT,
        experiments: Sequence[str] | None = None,
        refresh_s: float = 0.5,
        span_limit: int = DEFAULT_SPAN_LIMIT,
    ) -> None:
        from ..distributed.client import RemoteStore
        from ..distributed.protocol import is_remote_target
        from ..orchestration.store import ExperimentStore

        self._experiments = list(experiments) if experiments is not None else None
        self._refresh_s = max(0.0, float(refresh_s))
        self._span_limit = int(span_limit)
        self._store_lock = racecheck.tracked_rlock("dashboard.store")
        if is_remote_target(str(target)):
            self._store: Any = RemoteStore(str(target), token=token)
        else:
            self._store = ExperimentStore(target, check_same_thread=False)
        racecheck.guard_store(self._store, self._store_lock)
        self._cached: dict[str, Any] | None = None
        self._cached_at = 0.0
        self._closed = False
        self._serve_thread: threading.Thread | None = None
        try:
            self._httpd = _DashboardHTTPServer((host, int(port)), _Handler)
        except BaseException:
            self._store.close()
            raise
        self._httpd.owner = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://[{host}]:{port}/" if ":" in host else f"http://{host}:{port}/"

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "DashboardServer":
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="repro-dashboard", daemon=True
            )
            self._serve_thread.start()
        return self

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._httpd.server_close()
        with self._store_lock:
            self._store.close()

    def __enter__(self) -> "DashboardServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The (cached) :func:`build_snapshot` payload for this target."""
        now = time.monotonic()
        with self._store_lock:
            if self._cached is not None and now - self._cached_at < self._refresh_s:
                return self._cached
            snapshot = build_snapshot(
                self._store, self._experiments, span_limit=self._span_limit
            )
            self._cached = snapshot
            self._cached_at = time.monotonic()
            return snapshot

    def prometheus(self) -> str:
        """The ``/metrics`` text: local registry + store-derived gauges."""
        snapshot = self.snapshot()
        return metrics.render_prometheus(
            snapshot["metrics"], extra_gauges=_store_gauges(snapshot)
        )

    def page(self) -> str:
        refresh_ms = max(250, int(self._refresh_s * 1000) or 500)
        return _PAGE.replace("%REFRESH_MS%", str(refresh_ms))


class _DashboardHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    owner: DashboardServer


class _Handler(BaseHTTPRequestHandler):
    """Route the three endpoints; no logging noise, no writes."""

    server: _DashboardHTTPServer

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        owner = self.server.owner
        path = self.path.split("?", 1)[0]
        try:
            if path == "/" or path == "/index.html":
                body = owner.page().encode()
                content_type = "text/html; charset=utf-8"
            elif path == "/snapshot.json":
                body = json.dumps(owner.snapshot()).encode()
                content_type = "application/json"
            elif path == "/metrics":
                body = owner.prometheus().encode()
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                self.send_error(404, "unknown endpoint")
                return
        except Exception as exc:  # degrade to a 503, never kill the server
            self.send_error(503, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr lines (the page polls twice a second)."""

"""The store server: one owned local store, served to a worker fleet.

SQLite WAL coordinates any number of workers *on one host* but is unsafe on
network filesystems, so multi-machine fleets need exactly one process with
file access.  :class:`StoreServer` is that process: it owns a single local
:class:`~repro.orchestration.store.ExperimentStore` and dispatches framed
JSON requests (:mod:`repro.distributed.protocol`) from any number of TCP
clients onto it.  All dispatch happens under one lock
(``serialize_dispatch``) — concurrent remote claims therefore serialize
through the single writer SQLite requires anyway, and the store's ``BEGIN
IMMEDIATE`` claim semantics hold unchanged.

The transport skeleton — threaded TCP listener, per-connection handler
loop, token auth, op-id replay, graceful shutdown — is the shared
:class:`~repro.distributed.rpc.RpcServer`; the scheduling service rides
the same base.  See that module for the failure semantics (structured
error replies, AuthError connection drops, replay of recorded op replies)
that make client retry after a lost reply safe: a retried ``complete()``
can never double-release dependents, and a retried ``claim_next()``
returns the row the lost reply already claimed instead of claiming a
second one.

Shutdown is graceful: ``shutdown()`` (or the context manager / SIGTERM in
the CLI) stops accepting, unblocks ``serve_forever``, and closes the store
after the accept loop exits.  Rows claimed by workers that never return are
reclaimed by the normal ``reclaim_stale`` path on the next drain.
"""

from __future__ import annotations

import os
from typing import Any

from ..analysis import racecheck
from ..observability import events
from ..orchestration.store import ExperimentStore
from .protocol import PROTOCOL_VERSION, RPC_METHODS
from .rpc import OP_CACHE_SIZE, RpcServer

__all__ = ["StoreServer", "OP_CACHE_SIZE"]


class StoreServer(RpcServer):
    """Serve one local experiment store to remote workers over TCP.

    ``port=0`` binds an ephemeral port (tests); the actual address is
    :attr:`address`.  ``fifo_every`` overrides the owned store's bounded
    wait interleave — it is the *server's* knob because the claim ordinal
    lives in shared scheduler state, global across every remote worker.
    """

    rpc_methods = RPC_METHODS
    serialize_dispatch = True
    thread_name = "repro-store-server"
    # Claim-lifecycle dispatches get server.dispatch trace spans keyed by
    # the client's op id, completing the client.call → server.dispatch →
    # worker.cell chain the dashboard renders.
    spanned_methods = frozenset({"claim_next", "complete", "fail"})

    def __init__(
        self,
        db_path: str | os.PathLike[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        fifo_every: int | None = None,
    ) -> None:
        store_kwargs = {} if fifo_every is None else {"fifo_every": fifo_every}
        # Handler threads all dispatch under the server lock, but the
        # connection they dispatch *from* differs per request — hence
        # cross-thread.
        self._store = ExperimentStore(db_path, check_same_thread=False, **store_kwargs)
        try:
            super().__init__(host=host, port=port, token=token)
        except BaseException:
            self._store.close()
            raise
        # Handler threads may touch the store only under the dispatch lock;
        # the race checker enforces exactly that sanctioned path.
        racecheck.guard_store(self._store, self._lock)

    def _on_shutdown(self) -> None:
        # Final span flush: batching may hold a sub-batch tail.
        events.flush(self._store)
        self._store.close()

    def _flush_spans(self) -> None:
        # The server's own dispatch spans (and, for in-process fleets, any
        # client/worker spans sharing this process's buffer) journal
        # straight into the owned store — batched, because a write
        # transaction per dispatch would dominate cheap requests.
        # events.maybe_flush swallows store errors — a trace write must
        # never fail the dispatch that triggered it.
        if not events.pending():
            return
        with self._lock:
            if self._closed:
                return
            events.maybe_flush(self._store)

    def _invoke(self, method: str, params: dict[str, Any]) -> Any:
        if method == "ping":
            return "pong"
        if method == "store_info":
            return {
                "path": str(self._store.path),
                "fifo_every": self._store.fifo_every,
                "protocol": PROTOCOL_VERSION,
            }
        if method == "set_fifo_every":
            self._store.fifo_every = max(0, int(params["fifo_every"]))
            return self._store.fifo_every
        if method == "duration_samples" and params.get("since") is not None:
            # JSON turned the (finished_at, id) watermark into a list.
            params = {**params, "since": tuple(params["since"])}
        if method == "fetch_events":
            # Read-your-writes for trace readers: journal the batched span
            # tail before serving the read, so a dashboard polling right
            # after a drain sees the full chains, not a flush-cycle lag.
            events.flush(self._store)
        return getattr(self._store, method)(**params)

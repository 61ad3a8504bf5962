"""ScheduleClient: submit ad-hoc scheduling instances to a ScheduleServer.

The transport is the shared :class:`~repro.distributed.rpc.RpcClient`,
the same one :class:`repro.distributed.client.RemoteStore` uses: one
persistent socket, one request in flight, transport failures retried on a
fresh connection with linear backoff.  Every ``submit`` carries an op id,
so a retry of a request whose reply was lost — including across a server
SIGKILL/restart, where the replacement server finds the original's
journaled row — replays the original result rather than solving twice.
``AuthError`` is raised without any retry; ``AdmissionError`` replies are
revived as the real :class:`~repro.service.requests.AdmissionError` so
callers can branch on rejection without string-matching.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.instance import Instance
from ..distributed.rpc import RpcClient, RpcConnectionError
from .requests import (
    DEFAULT_EPS,
    DEFAULT_SCHEDULE_PORT,
    SCHEDULE_PROTOCOL_VERSION,
    AdmissionError,
)

__all__ = ["ScheduleClient", "ScheduleConnectionError"]


class ScheduleConnectionError(RpcConnectionError):
    """The schedule service could not be reached (after configured retries)."""


class ScheduleClient(RpcClient):
    """Client for one :class:`~repro.service.server.ScheduleServer`.

    ``target`` is ``"host[:port]"`` or ``"tcp://host[:port]"`` (port
    defaults to 7481).  ``timeout`` bounds each round-trip — it must cover
    a whole queued solve, hence the generous default.
    """

    default_port = DEFAULT_SCHEDULE_PORT
    info_method = "schedule_info"
    protocol_version = SCHEDULE_PROTOCOL_VERSION
    mutating_methods = frozenset({"submit"})
    connection_error = ScheduleConnectionError
    typed_errors = {"AdmissionError": AdmissionError}
    metrics_prefix = "schedule_client"
    server_name = "schedule service"

    def __init__(
        self,
        target: str,
        *,
        token: str | None = None,
        timeout: float = 300.0,
        connect_timeout: float = 10.0,
        retries: int = 4,
        retry_delay: float = 0.2,
    ) -> None:
        super().__init__(
            target,
            token=token,
            timeout=timeout,
            connect_timeout=connect_timeout,
            retries=retries,
            retry_delay=retry_delay,
        )

    def info(self) -> dict[str, Any]:
        """Live service state: queue depth, telemetry counters, budget."""
        return self._call("schedule_info", {})

    def submit(
        self,
        instance: "Instance | Mapping[str, Any]",
        solver: str = "lpt",
        *,
        eps: float = DEFAULT_EPS,
    ) -> dict[str, Any]:
        """Solve one instance through the service; returns the summary payload.

        The payload carries ``makespan``, ``wall_time``, ``optimal``,
        ``solver``, ``diagnostics`` and a ``cache_hit`` flag.  Raises
        :class:`AdmissionError` on rejection and
        :class:`~repro.distributed.protocol.AuthError` on a bad token
        (never retried).
        """
        wire = instance.to_dict() if isinstance(instance, Instance) else dict(instance)
        return self._call(
            "submit", {"instance": wire, "solver": solver, "config": {"eps": eps}}
        )

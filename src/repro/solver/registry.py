"""The three MILP backends and validated references to them.

The backends are a closed table keyed by name:

* ``scipy`` — HiGHS via :func:`repro.milp.scipy_backend.solve_with_scipy`,
  LP relaxation first; the default exact oracle.  Reads ``node_limit``.
* ``bnb`` — the repository's own LP-based branch and bound
  (:func:`repro.milp.branch_and_bound.solve_with_branch_and_bound`), which
  cross-checks HiGHS.  Reads the fields of
  :class:`~repro.milp.branch_and_bound.BranchAndBoundConfig`; when the spec
  and the solve both set a ``time_limit``, the smaller one bounds the solve.
* ``lp`` — the LP relaxation only, for lower bounds and diagnostics.  Reads
  no option.

Every solve names its backend with a :class:`BackendSpec`, a validated
``(name, options)`` pair.  A spec that names another backend, or an option
its backend does not read, raises ``ValueError`` when it is made: a typo
fails at configuration time rather than inside the first solve, and no
option can change the cache identity without reaching the solver.

The module also emits the **backend fingerprint** used by the orchestration
result cache: ``name@version+digest12(options)``.  The fingerprint changes
when the backend's version changes (e.g. a scipy upgrade) or when any
solver option changes, so cached results are never silently reused across
a solver change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping

import scipy

from .. import __version__
from ..milp.branch_and_bound import BranchAndBoundConfig, solve_with_branch_and_bound
from ..milp.model import CompiledModel, MilpSolution
from ..milp.scipy_backend import solve_lp_relaxation, solve_with_scipy

__all__ = ["BackendSpec", "backend_fingerprint"]


@dataclass(frozen=True, slots=True)
class _Backend:
    """One builtin backend: its cache version, the options it reads, its solve."""

    version: str
    options: frozenset[str]
    solve: Callable[[CompiledModel, float | None, Mapping[str, Any]], MilpSolution]


def _solve_scipy(
    model: CompiledModel, time_limit: float | None, options: Mapping[str, Any]
) -> MilpSolution:
    return solve_with_scipy(model, time_limit=time_limit, node_limit=options.get("node_limit"))


def _solve_bnb(
    model: CompiledModel, time_limit: float | None, options: Mapping[str, Any]
) -> MilpSolution:
    config = dict(options)
    limits = [limit for limit in (config.get("time_limit"), time_limit) if limit is not None]
    if limits:
        config["time_limit"] = min(limits)
    return solve_with_branch_and_bound(model, BranchAndBoundConfig(**config) if config else None)


def _solve_lp(
    model: CompiledModel, time_limit: float | None, options: Mapping[str, Any]
) -> MilpSolution:
    return solve_lp_relaxation(model, time_limit=time_limit)


_BACKENDS: dict[str, _Backend] = {
    # The scipy marker names the solve path: LP relaxation first, which can
    # return a different optimal vertex than a MILP-only solve.
    "scipy": _Backend(f"{scipy.__version__}+lp-first", frozenset({"node_limit"}), _solve_scipy),
    "bnb": _Backend(
        __version__, frozenset(f.name for f in fields(BranchAndBoundConfig)), _solve_bnb
    ),
    "lp": _Backend(scipy.__version__, frozenset(), _solve_lp),
}


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """A validated reference to a builtin backend plus its options.

    Every spec is checked against the backend table when it is constructed,
    directly, by :meth:`make` or by :meth:`coerce`, which accepts a bare name
    string, a mapping, or an existing spec.
    """

    name: str
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        backend = _BACKENDS.get(self.name)
        if backend is None:
            raise ValueError(
                f"unknown MILP backend {self.name!r}; available: {sorted(_BACKENDS)}"
            )
        unread = sorted(key for key, _ in self.options if key not in backend.options)
        if unread:
            raise ValueError(
                f"MILP backend {self.name!r} does not read option(s) {unread}; "
                f"it reads {sorted(backend.options)}"
            )

    @classmethod
    def make(cls, name: str, **options: Any) -> "BackendSpec":
        return cls(name=str(name), options=tuple(sorted(options.items())))

    @classmethod
    def coerce(cls, value: "BackendSpec | str | Mapping[str, Any]") -> "BackendSpec":
        """Normalise user input into a validated spec.

        Accepts ``"scipy"``, ``BackendSpec(...)`` or
        ``{"name": "bnb", "options": {...}}`` (the JSON form emitted by
        :meth:`to_dict`, so specs round-trip through grid parameter dicts).
        """
        if isinstance(value, BackendSpec):
            return value
        if isinstance(value, str):
            return cls.make(value)
        if isinstance(value, Mapping):
            name = value.get("name")
            if not isinstance(name, str):
                raise ValueError(f"backend spec mapping needs a 'name' string, got {value!r}")
            return cls.make(name, **dict(value.get("options") or {}))
        raise TypeError(
            f"cannot coerce {type(value).__name__} into a BackendSpec; "
            "expected a backend name, a mapping or a BackendSpec"
        )

    @property
    def backend(self) -> _Backend:
        """The table entry this spec names."""
        return _BACKENDS[self.name]

    def options_dict(self) -> dict[str, Any]:
        return dict(self.options)

    def to_dict(self) -> dict[str, Any] | str:
        """JSON-able form: the bare name when there are no options."""
        if not self.options:
            return self.name
        return {"name": self.name, "options": self.options_dict()}

    @property
    def fingerprint(self) -> str:
        return backend_fingerprint(self)


def backend_fingerprint(spec: "BackendSpec | str") -> str:
    """``name@version+digest12(options)`` — the cache identity of a backend."""
    if isinstance(spec, str):
        spec = BackendSpec.make(spec)
    blob = json.dumps(spec.options_dict(), sort_keys=True, separators=(",", ":"), default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return f"{spec.name}@{spec.backend.version}+{digest}"

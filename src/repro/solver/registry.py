"""Pluggable MILP backend registry.

Every solve in the repository goes through a :class:`BackendSpec` — a
validated ``(name, options)`` pair — resolved against a process-global
registry of :class:`SolverBackend` implementations.  This replaces the old
``if backend == "scipy": ...`` string dispatch that used to live in
:func:`repro.milp.solve_model`: new backends (a Gurobi shim, a remote
solver, a chaos backend for tests) plug in via :func:`register_backend`
without touching any call site.

The registry also emits the **backend fingerprint** used by the
orchestration result cache: ``name@version+digest12(options)``.  The
fingerprint changes when the backend implementation version changes (e.g. a
scipy upgrade) or when any solver option changes, so cached results are
never silently reused across a solver change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping, Protocol, runtime_checkable

from ..milp.model import CompiledModel, LinearModel, MilpSolution

__all__ = [
    "BackendSpec",
    "SolverBackend",
    "available_backends",
    "backend_fingerprint",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
]


@runtime_checkable
class SolverBackend(Protocol):
    """The contract a pluggable MILP backend implements.

    ``name`` is the registry key; ``version`` feeds the cache fingerprint
    (bump it whenever results could change for the same model).  ``solve``
    receives an already-compiled model plus the per-solve limits and the
    spec's option mapping, and returns a :class:`MilpSolution`.
    """

    name: str

    @property
    def version(self) -> str: ...

    def solve(
        self,
        model: CompiledModel,
        *,
        time_limit: float | None,
        mip_rel_gap: float,
        options: Mapping[str, Any],
    ) -> MilpSolution: ...


_REGISTRY: dict[str, SolverBackend] = {}


def _canonical_options(options: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(options.items()))


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """A validated reference to a registered backend plus its options.

    Construct via :meth:`coerce` (accepts a bare name string, a mapping, or
    an existing spec) or :meth:`make`; both validate the backend name
    against the registry immediately, so a typo fails at *configuration
    construction* time rather than deep inside the first solve.
    """

    name: str
    options: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **options: Any) -> "BackendSpec":
        spec = cls(name=str(name), options=_canonical_options(options))
        resolve_backend(spec.name)  # fail fast on unknown names
        return spec

    @classmethod
    def coerce(cls, value: "BackendSpec | str | Mapping[str, Any]") -> "BackendSpec":
        """Normalise user input into a validated spec.

        Accepts ``"scipy"``, ``BackendSpec(...)`` or
        ``{"name": "bnb", "options": {...}}`` (the JSON form emitted by
        :meth:`to_dict`, so specs round-trip through grid parameter dicts).
        """
        if isinstance(value, BackendSpec):
            resolve_backend(value.name)
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

    def with_options(self, **options: Any) -> "BackendSpec":
        merged = dict(self.options)
        merged.update(options)
        return BackendSpec(name=self.name, options=_canonical_options(merged))

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


def register_backend(backend: SolverBackend, *, replace: bool = False) -> SolverBackend:
    """Add a backend to the registry.

    Re-registering an existing name raises unless ``replace=True`` — this
    protects the builtin backends from accidental shadowing while still
    letting tests swap in instrumented doubles deliberately.
    """
    name = backend.name
    if not replace and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (no-op when absent).  Mostly for test cleanup."""
    _REGISTRY.pop(name, None)


def resolve_backend(name: str) -> SolverBackend:
    """Look a backend up by name; unknown names raise ``ValueError``."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown MILP backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> list[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


def backend_fingerprint(spec: "BackendSpec | str") -> str:
    """``name@version+digest12(options)`` — the cache identity of a backend."""
    if isinstance(spec, str):
        spec = BackendSpec.make(spec)
    backend = resolve_backend(spec.name)
    blob = json.dumps(spec.options_dict(), sort_keys=True, separators=(",", ":"), default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return f"{spec.name}@{backend.version}+{digest}"


# ----------------------------------------------------------------------
# Builtin backends
# ----------------------------------------------------------------------
def _compiled(model: LinearModel | CompiledModel) -> CompiledModel:
    return model.compile() if isinstance(model, LinearModel) else model


class _ScipyBackend:
    """HiGHS via :func:`scipy.optimize.milp` (the default exact oracle)."""

    name = "scipy"

    @property
    def version(self) -> str:
        import scipy

        # The marker names the solve path: LP relaxation first, which can
        # return a different optimal vertex than a MILP-only solve.
        return f"{scipy.__version__}+lp-first"

    def solve(
        self,
        model: CompiledModel,
        *,
        time_limit: float | None,
        mip_rel_gap: float,
        options: Mapping[str, Any],
    ) -> MilpSolution:
        from ..milp.scipy_backend import solve_with_scipy

        return solve_with_scipy(
            _compiled(model),
            time_limit=time_limit,
            mip_rel_gap=mip_rel_gap,
            node_limit=options.get("node_limit"),
        )


class _BranchAndBoundBackend:
    """The repo's own LP-based branch and bound (cross-checks HiGHS)."""

    name = "bnb"

    @property
    def version(self) -> str:
        from .. import __version__

        return __version__

    def solve(
        self,
        model: CompiledModel,
        *,
        time_limit: float | None,
        mip_rel_gap: float,
        options: Mapping[str, Any],
    ) -> MilpSolution:
        from ..milp.branch_and_bound import BranchAndBoundConfig, solve_with_branch_and_bound

        known = {f for f in BranchAndBoundConfig.__dataclass_fields__}
        config_kwargs = {key: value for key, value in options.items() if key in known}
        if time_limit is not None and "time_limit" not in config_kwargs:
            config_kwargs["time_limit"] = time_limit
        config = BranchAndBoundConfig(**config_kwargs) if config_kwargs else None
        return solve_with_branch_and_bound(_compiled(model), config)


class _LpRelaxationBackend:
    """LP relaxation only — used for lower bounds and diagnostics."""

    name = "lp"

    @property
    def version(self) -> str:
        import scipy

        return scipy.__version__

    def solve(
        self,
        model: CompiledModel,
        *,
        time_limit: float | None,
        mip_rel_gap: float,
        options: Mapping[str, Any],
    ) -> MilpSolution:
        from ..milp.scipy_backend import solve_lp_relaxation

        return solve_lp_relaxation(_compiled(model), time_limit=time_limit)


def _ensure_builtins() -> None:
    for cls in (_ScipyBackend, _BranchAndBoundBackend, _LpRelaxationBackend):
        if cls.name not in _REGISTRY:
            _REGISTRY[cls.name] = cls()


_ensure_builtins()

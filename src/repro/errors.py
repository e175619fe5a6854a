"""The package-wide exception hierarchy.

All errors deliberately raised by the public API derive from
:class:`ReproError`, so callers of :class:`repro.api.AttributionSession` can
catch one base class.
Where an error replaces a historical ``ValueError`` the subclass also inherits
``ValueError``, so pre-existing ``except ValueError`` call sites keep working.

The hierarchy::

    ReproError
    ├── UnsafeQueryError        no safe plan exists (lifted inference)
    ├── IntractableQueryError   exact computation refused on a hard query
    ├── ConfigError             invalid configuration value
    ├── InjectedFault           a deliberately injected, unabsorbed fault
    │                           (repro.reliability.faults; defined there)
    └── ServiceError            serving-tier failures (repro.serve)
        ├── ServiceOverloadError    admission control refused the request
        │   └── CircuitOpenError    a tripped circuit breaker refused it
        ├── DeadlineExceededError   the request's deadline elapsed
        └── UnknownTenantError      no such tenant registered
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error deliberately raised by the repro package."""


class UnsafeQueryError(ReproError):
    """Raised when lifted inference finds no safe plan for the query.

    Historically defined in :mod:`repro.probability.lifted` (which still
    re-exports it); the safe-plan compiler and the ``safe`` engine backend
    raise it when the query is not liftable.
    """


class IntractableQueryError(ReproError):
    """Raised when exact computation is refused on a #P-hard (or unclassified) query.

    Only raised on request: :class:`repro.api.EngineConfig` with
    ``on_hard="raise"`` turns the dichotomy classifier's hardness verdict into
    this error instead of silently falling back to an exponential exact backend
    or to Monte-Carlo sampling.
    """

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        #: The :class:`repro.analysis.dichotomy.DichotomyVerdict` that triggered
        #: the refusal (``None`` when raised outside the classifier).
        self.verdict = verdict


class ConfigError(ReproError, ValueError):
    """Raised on invalid configuration values (bad backend name, ε/δ out of range, ...).

    Inherits ``ValueError`` so legacy callers that caught ``ValueError`` from
    the free functions keep working.
    """


class ServiceError(ReproError):
    """Base class of the serving-tier errors raised by :mod:`repro.serve`.

    Every subclass renders to a structured JSON payload via
    :meth:`to_json_dict`, so the HTTP layer can ship the same typed error a
    programmatic caller would catch.
    """

    #: The HTTP status code the serving layer maps this error to.
    http_status = 500

    def to_json_dict(self) -> dict:
        """The structured payload the HTTP layer serialises for clients."""
        return {"error": type(self).__name__, "message": str(self)}


class ServiceOverloadError(ServiceError):
    """Raised when admission control refuses a request (the 503 of the service).

    Carries the structured evidence of the refusal: the Figure 1b ``verdict``
    that classified the query, the admission ``reason``, and an advisory
    ``retry_after_s`` (``None`` when retrying cannot help — e.g. the query is
    too hard for the service's budgets no matter the load).
    """

    http_status = 503

    def __init__(self, message: str, *, verdict=None,
                 reason: str = "overloaded",
                 retry_after_s: "float | None" = None):
        super().__init__(message)
        #: The :class:`repro.analysis.dichotomy.DichotomyVerdict` consulted by
        #: admission control (``None`` for pure capacity rejections).
        self.verdict = verdict
        #: Machine-readable refusal category (``"capacity"`` / ``"budget"``).
        self.reason = reason
        self.retry_after_s = retry_after_s

    def to_json_dict(self) -> dict:
        payload = {"error": type(self).__name__, "message": str(self),
                   "reason": self.reason, "retry_after_s": self.retry_after_s}
        if self.verdict is not None:
            payload["verdict"] = {"complexity": self.verdict.complexity.value,
                                  "reason": self.verdict.reason,
                                  "query_class": self.verdict.query_class}
        return payload


class CircuitOpenError(ServiceOverloadError):
    """Raised when a tripped circuit breaker refuses a request.

    A per-tenant/lane breaker opens after repeated failures or timeouts on
    that lane (:mod:`repro.reliability.breaker`); while open, requests that
    cannot be degraded to the sampled lane are refused with this error.
    ``retry_after_s`` is the time until the breaker half-opens — over HTTP it
    is also surfaced as a real ``Retry-After`` header.
    """

    def __init__(self, message: str, *, tenant: "str | None" = None,
                 lane: "str | None" = None,
                 retry_after_s: "float | None" = None):
        super().__init__(message, reason="circuit_open",
                         retry_after_s=retry_after_s)
        #: The failure domain the open breaker guards.
        self.tenant = tenant
        self.lane = lane

    def to_json_dict(self) -> dict:
        payload = super().to_json_dict()
        payload.update(tenant=self.tenant, lane=self.lane)
        return payload


class DeadlineExceededError(ServiceError):
    """Raised when a request's deadline elapses before its attribution completes.

    A request that was still *queued* (waiting for a pool slot) when its
    deadline passed never occupies a worker at all — the deadline frees the
    pool rather than merely abandoning the response.
    """

    http_status = 504

    def __init__(self, message: str, *, deadline_s: "float | None" = None):
        super().__init__(message)
        #: The deadline the request carried, in seconds.
        self.deadline_s = deadline_s

    def to_json_dict(self) -> dict:
        return {"error": type(self).__name__, "message": str(self),
                "deadline_s": self.deadline_s}


class UnknownTenantError(ServiceError, KeyError):
    """Raised when a request names a tenant the service has not registered.

    Inherits ``KeyError`` because the tenant registry is mapping-shaped and
    callers may already guard lookups that way.
    """

    http_status = 404

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message plain
        return self.args[0] if self.args else ""


__all__ = [
    "CircuitOpenError",
    "ConfigError",
    "DeadlineExceededError",
    "IntractableQueryError",
    "ReproError",
    "ServiceError",
    "ServiceOverloadError",
    "UnknownTenantError",
    "UnsafeQueryError",
]

"""The service's typed error taxonomy: every failure has an HTTP shape.

A hardened endpoint never leaks a traceback: whatever goes wrong inside
a handler is mapped onto exactly one :class:`ServeError` subclass, and
each subclass fixes the HTTP status code, a stable machine-readable
``code`` string and (for shed load) a ``Retry-After`` hint. Library
errors raised by the taxonomy pipeline — malformed signatures, unknown
architectures — are folded in by :func:`as_serve_error`, so the wire
contract is closed over everything the handlers can raise.

The split mirrors the convention the rest of the package uses for
:class:`~repro.core.errors.ReproError`: callers can catch
:class:`ServeError` wholesale or discriminate the precise failure mode,
and every error renders the same structured JSON body::

    {"error": {"code": "...", "message": "...", "status": ...}}
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import (
    CapabilityError,
    ClassificationError,
    ConfigurationError,
    NamingError,
    ProgramError,
    RegistryError,
    ReproError,
    RoutingError,
    SignatureError,
)

__all__ = [
    "ServeError",
    "BadRequestError",
    "NotFoundError",
    "MethodNotAllowedError",
    "ConflictError",
    "RateLimitedError",
    "OverloadedError",
    "DrainingError",
    "DeadlineExceededError",
    "InternalError",
    "as_serve_error",
]


class ServeError(ReproError):
    """Base class for every error the HTTP service can surface.

    ``status`` is the HTTP status code, ``code`` the stable token
    clients should branch on (status codes are shared by several
    distinct conditions — 503 covers overload and draining — but
    ``code`` never is).
    """

    status: int = 500
    code: str = "internal"
    #: Retry-After hint in seconds; ``None`` omits the header.
    retry_after_s: "float | None" = None

    def payload(self) -> dict[str, Any]:
        """The structured JSON error body (sorted-key stable)."""
        body: dict[str, Any] = {
            "error": {
                "code": self.code,
                "message": str(self),
                "status": self.status,
            }
        }
        if self.retry_after_s is not None:
            body["error"]["retry_after_s"] = round(self.retry_after_s, 3)
        return body


class BadRequestError(ServeError):
    """The request is malformed: bad parameter, bad body, bad value."""

    status = 400
    code = "bad_request"


class NotFoundError(ServeError):
    """No route, architecture or taxonomy class under that name."""

    status = 404
    code = "not_found"


class MethodNotAllowedError(ServeError):
    """The route exists but not for this HTTP method."""

    status = 405
    code = "method_not_allowed"

    def __init__(self, message: str, *, allowed: "tuple[str, ...]" = ()):
        super().__init__(message)
        self.allowed = allowed


class ConflictError(ServeError):
    """The request is valid but the resource's state forbids it now.

    The jobs API speaks this for ``GET .../result`` on a job that has
    not (or will never) produce one; a ``retry_after_s`` hint marks the
    retryable flavour (result not *yet* ready) apart from the final one
    (the job failed, was cancelled, or expired).
    """

    status = 409
    code = "conflict"

    def __init__(self, message: str, *, retry_after_s: "float | None" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RateLimitedError(ServeError):
    """The token bucket is empty — the client is over its rate."""

    status = 429
    code = "rate_limited"

    def __init__(self, message: str, *, retry_after_s: "float | None" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class OverloadedError(ServeError):
    """The admission queue is full — load must be shed, not buffered."""

    status = 503
    code = "overloaded"

    def __init__(self, message: str, *, retry_after_s: "float | None" = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DrainingError(ServeError):
    """The server received SIGTERM/SIGINT and no longer admits work."""

    status = 503
    code = "draining"
    retry_after_s = 1.0


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a result was produced."""

    status = 504
    code = "deadline_exceeded"


class InternalError(ServeError):
    """An unexpected failure; the message is sanitised, never a traceback."""

    status = 500
    code = "internal"


#: Library errors that indicate the *request* was wrong (HTTP 4xx), not
#: the server. Anything else library-raised is an internal fault.
_CLIENT_ERRORS: tuple[type[ReproError], ...] = (
    SignatureError,
    NamingError,
    ClassificationError,
    CapabilityError,
    ConfigurationError,
    ProgramError,
    RoutingError,
)


def as_serve_error(error: BaseException) -> ServeError:
    """Map any exception onto the service's error taxonomy.

    * :class:`ServeError` passes through untouched;
    * request-shaped library errors become 400s (or 404 for registry
      misses) carrying the library's own message — those messages are
      user-facing by design;
    * everything else becomes a sanitised 500 that names the exception
      type only, so no internal detail or traceback ever reaches the
      wire.
    """
    if isinstance(error, ServeError):
        return error
    if isinstance(error, RegistryError):
        return NotFoundError(str(error))
    if isinstance(error, _CLIENT_ERRORS):
        return BadRequestError(str(error))
    return InternalError(f"internal error: {type(error).__name__}")

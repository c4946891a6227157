"""Routing and endpoint handlers: the paper's pipeline as JSON.

The router is transport-free: it maps a :class:`Request` (method, path,
parameters, deadline) onto a :class:`Response` (status, JSON payload)
without ever touching a socket, which is what makes every endpoint unit
testable — and doctestable — in-process. The HTTP plumbing in
:mod:`repro.serve.server` is a thin adapter over :meth:`Router.handle`.

Endpoints (all under ``/v1``):

* ``classify`` — signature → Table-I class, short name, flexibility;
  the ``explain`` field is byte-identical to ``repro-taxonomy
  classify`` output for the same signature.
* ``costs`` — Eq. 1 area and Eq. 2 configuration bits (plus the energy
  and reconfiguration companions) for a taxonomy class at a size and
  technology node, priced by the paper's models directly.
* ``survey`` — the 25 Table-III records with derived classifications;
  ``?costs=true`` adds the Eq. 1 / Eq. 2 estimates of each record.
* ``healthz`` / ``readyz`` — liveness vs readiness (a drain flips
  readiness, never liveness).
* ``metrics`` — the :mod:`repro.obs` registry in Prometheus text form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.classify import classify
from repro.core.errors import ClassificationError, NamingError
from repro.core.signature import make_signature
from repro.core.taxonomy import class_by_name, class_by_serial
from repro.models.area import AreaModel
from repro.models.configbits import ConfigBitsModel
from repro.models.energy import EnergyModel
from repro.models.reconfiguration import ReconfigurationModel
from repro.models.technology import NODES
from repro.serve.errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
)
from repro.serve.limits import Deadline
from repro.serve.validation import (
    MAX_DESIGN_N,
    bool_field,
    choice_field,
    int_field,
    require_known,
    string_field,
)

__all__ = ["Request", "Response", "Router", "TaxonomyService"]


_AREA = AreaModel()
_CONFIG = ConfigBitsModel()
_ENERGY = EnergyModel()
_RECONFIG = ReconfigurationModel()


@dataclass(frozen=True)
class Request:
    """One parsed request, transport-independent.

    ``items`` is only set for batch requests (``{"items": [...]}``
    bodies): each entry is one sub-request's parameter mapping, and
    ``params`` is then empty — the batch executor builds a per-item
    :class:`Request` carrying the shared deadline.
    """

    method: str
    path: str
    params: Mapping[str, str] = field(default_factory=dict)
    deadline: "Deadline | None" = None
    items: "tuple[Mapping[str, str], ...] | None" = None

    @classmethod
    def get(
        cls,
        path: str,
        params: "Mapping[str, str] | None" = None,
        *,
        deadline: "Deadline | None" = None,
    ) -> "Request":
        """Convenience constructor for a GET request."""
        return cls("GET", path, dict(params or {}), deadline)

    def check_deadline(self, what: str) -> None:
        """Enforce the request deadline at a handler checkpoint."""
        if self.deadline is not None:
            self.deadline.check(what)


@dataclass(frozen=True)
class Response:
    """One JSON (or text) response ready for the transport layer."""

    status: int = 200
    payload: "dict[str, Any] | None" = None
    text: "str | None" = None
    headers: "tuple[tuple[str, str], ...]" = ()

    @property
    def content_type(self) -> str:
        """``application/json`` unless the endpoint emits plain text."""
        return "application/json" if self.text is None else "text/plain; version=0.0.4"


class Router:
    """Exact-path routing table with per-method dispatch.

    Exact routes always win; a *prefix* route (``add_prefix``) catches
    every path strictly below its mount point (``/v1/jobs`` matches
    ``/v1/jobs/j-1`` and ``/v1/jobs/j-1/result``, never ``/v1/jobs``
    itself or ``/v1/jobsx``) — the handler parses the remainder, which
    keeps the table free of pattern syntax.
    """

    def __init__(self) -> None:
        self._routes: dict[str, dict[str, Callable[[Request], Response]]] = {}
        self._prefixes: dict[str, dict[str, Callable[[Request], Response]]] = {}

    def add(self, method: str, path: str, handler: Callable[[Request], Response]) -> None:
        """Register ``handler`` for ``method path``."""
        self._routes.setdefault(path, {})[method.upper()] = handler

    def add_prefix(
        self, method: str, prefix: str, handler: Callable[[Request], Response]
    ) -> None:
        """Register ``handler`` for every path below ``prefix``."""
        self._prefixes.setdefault(prefix.rstrip("/"), {})[method.upper()] = handler

    def _match(self, path: str) -> "dict[str, Callable[[Request], Response]] | None":
        methods = self._routes.get(path)
        if methods is not None:
            return methods
        best: "str | None" = None
        for prefix in self._prefixes:
            if path.startswith(prefix + "/") and (best is None or len(prefix) > len(best)):
                best = prefix
        return None if best is None else self._prefixes[best]

    def handle(self, request: Request) -> Response:
        """Dispatch one request; unknown path → 404, wrong method → 405."""
        methods = self._match(request.path)
        if methods is None:
            raise NotFoundError(f"no such endpoint: {request.path}")
        handler = methods.get(request.method.upper())
        if handler is None:
            raise MethodNotAllowedError(
                f"{request.method} not allowed on {request.path}",
                allowed=tuple(sorted(methods)),
            )
        return handler(request)

    def paths(self) -> tuple[str, ...]:
        """Registered paths, sorted (for the index endpoint)."""
        return tuple(sorted(self._routes))


#: The classify endpoint's structural parameters, in Table-I site order.
_SIGNATURE_PARAMS: tuple[str, ...] = (
    "ips", "dps", "ip-ip", "ip-dp", "ip-im", "dp-dm", "dp-dp", "granularity",
)


class TaxonomyService:
    """The endpoint handlers and the router that dispatches to them."""

    def __init__(self) -> None:
        self.router = Router()
        self.router.add("GET", "/v1/classify", self.handle_classify)
        self.router.add("POST", "/v1/classify", self.handle_classify)
        self.router.add("GET", "/v1/costs", self.handle_costs)
        self.router.add("POST", "/v1/costs", self.handle_costs)
        self.router.add("GET", "/v1/survey", self.handle_survey)

    # -- /v1/classify ----------------------------------------------------

    def parse_classify_request(self, request: Request) -> Any:
        """Validate a classify request and build its :class:`Signature`.

        Shared by the scalar handler and the batch path, so both reject
        malformed items with the exact same structured errors.
        """
        params = request.params
        require_known(params, _SIGNATURE_PARAMS)
        ips = string_field(params, "ips", required=True)
        dps = string_field(params, "dps", required=True)
        request.check_deadline("validating the request")
        return make_signature(
            ips,
            dps,
            ip_ip=string_field(params, "ip-ip"),
            ip_dp=string_field(params, "ip-dp"),
            ip_im=string_field(params, "ip-im"),
            dp_dm=string_field(params, "dp-dm"),
            dp_dp=string_field(params, "dp-dp"),
            granularity=string_field(params, "granularity"),
        )

    @staticmethod
    def classify_payload(signature: Any, result: Any) -> "dict[str, Any]":
        """Render one classification as the endpoint's response body.

        Both the scalar handler and the batch path go through this
        function, which (together with ``stable_json`` encoding) is what
        makes a batch item's result byte-identical to its single response.
        """
        name = result.name
        return {
            "class": {
                "serial": result.taxonomy_class.serial,
                "short_name": result.short_name,
                "name": None if name is None else name.long,
                "implementable": result.implementable,
            },
            "flexibility": result.flexibility,
            "signature": signature.describe(),
            "switched_sites": [site.label for site in signature.switched_sites()],
            "explain": result.explain(),
        }

    def handle_classify(self, request: Request) -> Response:
        """Classify a signature given as query parameters or JSON fields."""
        signature = self.parse_classify_request(request)
        result = classify(signature)
        return Response(payload=self.classify_payload(signature, result))

    # -- /v1/costs -------------------------------------------------------

    def handle_costs(self, request: Request) -> Response:
        """Eq. 1 / Eq. 2 (plus energy and reconfiguration) for one class."""
        params = request.params
        require_known(params, ("class", "serial", "n", "technology"))
        short_name = string_field(params, "class")
        serial = int_field(params, "serial", minimum=1, maximum=47)
        if (short_name is None) == (serial is None):
            raise BadRequestError(
                "exactly one of 'class' (short name) or 'serial' (1..47) is required"
            )
        n = int_field(params, "n", default=16, minimum=1, maximum=MAX_DESIGN_N)
        node_name = choice_field(
            params, "technology", tuple(sorted(NODES)), default="65nm"
        )
        request.check_deadline("validating the request")
        try:
            taxonomy_class = (
                class_by_name(short_name) if short_name is not None
                else class_by_serial(serial)
            )
        except (ClassificationError, NamingError) as error:
            raise NotFoundError(str(error)) from None
        node = NODES[node_name]
        signature = taxonomy_class.signature
        payload = {
            "class": taxonomy_class.comment,
            "serial": taxonomy_class.serial,
            "n": n,
            "technology": node.name,
            "area_ge": _AREA.total_ge(signature, n=n),
            "area_um2": _AREA.total_um2(signature, n=n, node=node),
            "config_bits": _CONFIG.total(signature, n=n),
            "energy_per_op_pj": _ENERGY.energy_per_op(signature, n=n),
            "reconfig_cycles": _RECONFIG.cost(signature, n=n).cycles,
        }
        return Response(payload=payload)

    # -- /v1/survey ------------------------------------------------------

    def handle_survey(self, request: Request) -> Response:
        """The Table-III survey; ``costs=true`` adds each record's estimates."""
        from repro.registry.survey import survey_table

        params = request.params
        require_known(params, ("name", "costs", "n"))
        wanted = string_field(params, "name")
        include_costs = bool_field(params, "costs")
        n = int_field(params, "n", default=16, minimum=1, maximum=MAX_DESIGN_N)
        request.check_deadline("validating the request")
        entries = survey_table()
        if wanted is not None:
            matches = [e for e in entries if e.name.lower() == wanted.lower()]
            if not matches:
                raise NotFoundError(f"no surveyed architecture named {wanted!r}")
            entries = tuple(matches)
        costs_by_name: dict[str, Any] = {}
        if include_costs:
            from repro.analysis.survey_costs import evaluate_survey

            costs_by_name = {point.name: point for point in evaluate_survey(default_n=n)}
        architectures = []
        for entry in entries:
            record = entry.record
            row: dict[str, Any] = {
                "name": record.name,
                "year": record.year,
                "family": record.family.value,
                "class": entry.taxonomic_name,
                "flexibility": entry.flexibility,
                "paper_class": record.paper_name,
                "paper_flexibility": record.paper_flexibility,
                "agrees_with_paper": entry.agrees_with_paper,
            }
            point = costs_by_name.get(record.name)
            if point is not None:
                row["costs"] = {
                    "n_effective": point.n_effective,
                    "area_ge": point.area_ge,
                    "config_bits": point.config_bits,
                    "energy_per_op_pj": point.energy_per_op_pj,
                    "reconfig_cycles": point.reconfig_cycles,
                }
            architectures.append(row)
        return Response(payload={"architectures": architectures, "count": len(architectures)})

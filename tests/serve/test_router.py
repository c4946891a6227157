"""Unit tests for the transport-free router and endpoint handlers."""

import pytest

from repro.core.classify import classify
from repro.core.signature import make_signature
from repro.serve.errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
)
from repro.serve.router import Request, Response, Router, TaxonomyService
from repro.serve.validation import stable_json


@pytest.fixture()
def service():
    return TaxonomyService()


MORPHOSYS_PARAMS = {
    "ips": "1",
    "dps": "n",
    "ip-dp": "1-n",
    "ip-im": "1-1",
    "dp-dm": "nxn",
    "dp-dp": "nxn",
}


class TestRouter:
    def test_unknown_path_is_404(self):
        router = Router()
        with pytest.raises(NotFoundError, match="/v1/nope"):
            router.handle(Request.get("/v1/nope"))

    def test_wrong_method_is_405_listing_allowed(self):
        router = Router()
        router.add("GET", "/v1/x", lambda request: Response())
        with pytest.raises(MethodNotAllowedError) as info:
            router.handle(Request("DELETE", "/v1/x"))
        assert info.value.allowed == ("GET",)

    def test_paths_are_sorted(self):
        router = Router()
        router.add("GET", "/b", lambda request: Response())
        router.add("GET", "/a", lambda request: Response())
        assert router.paths() == ("/a", "/b")


class TestClassify:
    def test_parity_with_the_cli_pipeline(self, service):
        response = service.handle_classify(
            Request.get("/v1/classify", MORPHOSYS_PARAMS)
        )
        signature = make_signature(
            "1", "n", ip_dp="1-n", ip_im="1-1", dp_dm="nxn", dp_dp="nxn"
        )
        expected = classify(signature)
        assert response.status == 200
        payload = response.payload
        assert payload["class"]["short_name"] == expected.short_name
        assert payload["class"]["serial"] == expected.taxonomy_class.serial
        assert payload["flexibility"] == expected.flexibility
        # The explain text is byte-identical to `repro-taxonomy classify`.
        assert payload["explain"] == expected.explain()

    def test_unknown_parameter_is_rejected(self, service):
        with pytest.raises(BadRequestError, match="'zps'"):
            service.handle_classify(
                Request.get("/v1/classify", {"ips": "1", "dps": "1", "zps": "9"})
            )

    def test_missing_required_parameter_is_named(self, service):
        with pytest.raises(BadRequestError, match="'dps'"):
            service.handle_classify(Request.get("/v1/classify", {"ips": "1"}))

    def test_invalid_signature_is_a_bad_request(self, service):
        request = Request.get("/v1/classify", {"ips": "zebra", "dps": "4"})
        with pytest.raises(Exception) as info:
            service.handle_classify(request)
        # The library's SignatureError message passes through as a 400.
        from repro.serve.errors import as_serve_error

        serve_error = as_serve_error(info.value)
        assert serve_error.status == 400


class TestCosts:
    def test_by_short_name(self, service):
        response = service.handle_costs(
            Request.get("/v1/costs", {"class": "IAP-IV", "n": "16"})
        )
        payload = response.payload
        assert payload["serial"] == 10
        assert payload["n"] == 16
        assert payload["technology"] == "65nm"
        assert payload["area_ge"] > 0
        assert payload["config_bits"] > 0

    def test_by_serial_matches_by_name(self, service):
        by_name = service.handle_costs(
            Request.get("/v1/costs", {"class": "IAP-IV"})
        ).payload
        by_serial = service.handle_costs(
            Request.get("/v1/costs", {"serial": "10"})
        ).payload
        assert by_name == by_serial

    def test_exactly_one_selector_required(self, service):
        with pytest.raises(BadRequestError, match="exactly one"):
            service.handle_costs(Request.get("/v1/costs", {}))
        with pytest.raises(BadRequestError, match="exactly one"):
            service.handle_costs(
                Request.get("/v1/costs", {"class": "IAP-IV", "serial": "10"})
            )

    def test_unknown_class_is_404(self, service):
        with pytest.raises(NotFoundError):
            service.handle_costs(Request.get("/v1/costs", {"class": "WAT-9"}))

    def test_bad_technology_is_a_named_400(self, service):
        with pytest.raises(BadRequestError, match="'technology'"):
            service.handle_costs(
                Request.get("/v1/costs", {"class": "IAP-IV", "technology": "3nm"})
            )

    def test_n_bounds_are_enforced(self, service):
        with pytest.raises(BadRequestError, match="'n'"):
            service.handle_costs(
                Request.get("/v1/costs", {"class": "IAP-IV", "n": "999999"})
            )


class TestSurvey:
    def test_full_survey_has_25_records(self, service):
        payload = service.handle_survey(Request.get("/v1/survey")).payload
        assert payload["count"] == 25
        names = [row["name"] for row in payload["architectures"]]
        assert "MorphoSys" in names

    def test_name_filter_is_case_insensitive(self, service):
        payload = service.handle_survey(
            Request.get("/v1/survey", {"name": "morphosys"})
        ).payload
        assert payload["count"] == 1
        assert payload["architectures"][0]["name"] == "MorphoSys"

    def test_unknown_name_is_404(self, service):
        with pytest.raises(NotFoundError, match="'Cray-9000'"):
            service.handle_survey(Request.get("/v1/survey", {"name": "Cray-9000"}))

    def test_costs_true_adds_model_estimates(self, service):
        payload = service.handle_survey(
            Request.get("/v1/survey", {"name": "MorphoSys", "costs": "true", "n": "8"})
        ).payload
        costs = payload["architectures"][0]["costs"]
        assert costs["area_ge"] > 0
        assert costs["config_bits"] >= 0


class TestByteStability:
    def test_identical_requests_identical_bytes(self, service):
        first = service.handle_classify(
            Request.get("/v1/classify", MORPHOSYS_PARAMS)
        )
        second = service.handle_classify(
            Request.get("/v1/classify", dict(MORPHOSYS_PARAMS))
        )
        assert stable_json(first.payload) == stable_json(second.payload)

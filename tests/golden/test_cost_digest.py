"""Golden gate: every cost the library and the service hand out, by digest.

The Eq. 1 / Eq. 2 estimates and their energy and reconfiguration
companions reach users three ways: ``/v1/costs`` bodies, the survey
costing (``costs``, ``/v1/survey?costs=true``, the ``survey-costs`` job)
and the class evaluation behind ``dse``. Each test folds one of those
surfaces, exactly as it is encoded, into one SHA-256, so a change to
how the models are called (or cached, or not) cannot move a single
byte unnoticed. The digests were recorded when the analyses still
priced through a memoising model cache.
"""

import hashlib

from repro.analysis.pareto import evaluate_classes
from repro.analysis.survey_costs import evaluate_survey
from repro.models.technology import NODES
from repro.serve.router import Request, TaxonomyService
from repro.serve.validation import stable_json

COSTS_DIGEST = "d04f362a8918685cf7ff397f11b4f3984d5ee4188d0433e3a9e2a79c603f8059"
SURVEY_DIGEST = "ba3615ad7f781fc66e75e2eacd62e83dda2e647a428966d789f270da8737898a"


def _get(service, path, params):
    response = service.router.handle(Request.get(path, params))
    assert response.status == 200
    return stable_json(response.payload)


def test_costs_endpoint_and_analysis_rows_match_the_recorded_digest():
    service = TaxonomyService()
    digest = hashlib.sha256()
    for serial in range(1, 48):
        for n in (1, 16, 4096):
            for node in sorted(NODES):
                params = {"serial": str(serial), "n": str(n), "technology": node}
                digest.update(_get(service, "/v1/costs", params))
    for default_n in (4, 64):
        for point in evaluate_survey(default_n=default_n):
            digest.update(repr(point).encode() + b"\n")
    for n in (4, 64):
        for point in evaluate_classes(n=n):
            digest.update(repr(point).encode() + b"\n")
    assert digest.hexdigest() == COSTS_DIGEST


def test_survey_endpoint_costs_match_the_recorded_digest():
    service = TaxonomyService()
    digest = hashlib.sha256()
    for n in (4, 16, 4096):
        digest.update(_get(service, "/v1/survey", {"costs": "true", "n": str(n)}))
    assert digest.hexdigest() == SURVEY_DIGEST

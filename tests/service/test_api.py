"""Unit tests for the service request/response surface."""

import math

import pytest

from repro.errors import (
    MetricError,
    ReproError,
    SerializationError,
    ValidationError,
)
from repro.online import AdmissionDecision
from repro.service import (
    request_digest,
    request_from_dict,
    response_from_assignment,
    response_to_dict,
)
from repro.core.slicing import distribute_deadlines
from repro.graph import chain_graph
from repro.system import identical_platform

from .conftest import NON_FINITE_FIELDS, chain_request, non_finite_request


class TestRequestParsing:
    def test_minimal_request_defaults(self, request_doc):
        req = request_from_dict(request_doc)
        assert req.metric == "ADAPT-L"
        assert req.estimator == "WCET-AVG"
        assert not req.admit and req.params is None
        assert req.graph.n_tasks == 3
        assert req.platform.m == 2

    def test_metric_and_estimator_are_canonicalized(self):
        req = request_from_dict(
            chain_request(metric="adapt_g", estimator="avg")
        )
        assert req.metric == "ADAPT-G"
        assert req.estimator == "WCET-AVG"

    def test_params_accepted(self):
        req = request_from_dict(
            chain_request(params={"k_l": 0.3, "c_thres": 12.0})
        )
        assert req.params.k_l == 0.3
        assert req.params.c_thres == 12.0

    def test_admit_request(self):
        req = request_from_dict(
            chain_request(
                admit=True, relative_deadline=90.0, arrival=5.0, app_id="a"
            )
        )
        assert req.admit and req.relative_deadline == 90.0
        assert req.arrival == 5.0 and req.app_id == "a"


class TestRequestValidation:
    def test_non_dict_rejected(self):
        with pytest.raises(ValidationError):
            request_from_dict([1, 2, 3])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="bogus"):
            request_from_dict(chain_request(bogus=1))

    def test_missing_graph_rejected(self):
        doc = chain_request()
        del doc["graph"]
        with pytest.raises(ValidationError, match="graph"):
            request_from_dict(doc)

    def test_malformed_graph_document(self):
        doc = chain_request()
        doc["graph"] = {"format": "bogus/1"}
        with pytest.raises(SerializationError):
            request_from_dict(doc)

    def test_unknown_metric(self):
        with pytest.raises(MetricError):
            request_from_dict(chain_request(metric="SUPER"))

    def test_unknown_estimator(self):
        with pytest.raises(ReproError):
            request_from_dict(chain_request(estimator="WCET-MODE"))

    def test_unknown_params_key(self):
        with pytest.raises(ValidationError, match="k_z"):
            request_from_dict(chain_request(params={"k_z": 1.0}))

    def test_non_numeric_param(self):
        with pytest.raises(ValidationError):
            request_from_dict(chain_request(params={"k_l": "big"}))

    def test_admit_needs_relative_deadline(self):
        with pytest.raises(ValidationError, match="relative_deadline"):
            request_from_dict(chain_request(admit=True))

    def test_admit_rejects_nonpositive_deadline(self):
        with pytest.raises(ValidationError):
            request_from_dict(chain_request(admit=True, relative_deadline=0))

    def test_admission_fields_require_admit(self):
        with pytest.raises(ValidationError, match="admit"):
            request_from_dict(chain_request(arrival=1.0))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            request_from_dict(
                chain_request(admit=True, relative_deadline=float("inf"))
            )


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
    def test_rejected_where_it_enters_the_model(self, field, value):
        with pytest.raises(ReproError, match="finite"):
            request_from_dict(non_finite_request(field, value))


class TestDigest:
    def test_digest_is_stable_and_content_addressed(self, request_doc):
        a = request_digest(request_from_dict(request_doc))
        b = request_digest(request_from_dict(chain_request()))
        assert a == b and len(a) == 64

    def test_spelling_does_not_change_digest(self):
        a = request_digest(request_from_dict(chain_request(metric="ADAPT-L")))
        b = request_digest(request_from_dict(chain_request(metric="adapt_l")))
        assert a == b

    def test_metric_changes_digest(self):
        a = request_digest(request_from_dict(chain_request(metric="PURE")))
        b = request_digest(request_from_dict(chain_request(metric="NORM")))
        assert a != b

    def test_params_change_digest(self):
        a = request_digest(request_from_dict(chain_request()))
        b = request_digest(
            request_from_dict(chain_request(params={"k_l": 0.9}))
        )
        assert a != b

    def test_workload_changes_digest(self):
        a = request_digest(request_from_dict(chain_request()))
        b = request_digest(request_from_dict(chain_request(deadline=91.0)))
        c = request_digest(request_from_dict(chain_request(m=3)))
        assert len({a, b, c}) == 3

    def test_admission_fields_do_not_change_digest(self):
        a = request_digest(request_from_dict(chain_request()))
        b = request_digest(
            request_from_dict(
                chain_request(admit=True, relative_deadline=90.0)
            )
        )
        assert a == b


class TestResponse:
    def _assignment(self):
        graph = chain_graph([10, 20, 15])
        graph.set_uniform_e2e_deadline(90.0)
        return distribute_deadlines(graph, identical_platform(2), "ADAPT-L")

    def test_slices_sorted_and_faithful(self):
        assignment = self._assignment()
        response = response_from_assignment(assignment, "d" * 64)
        assert [s.task_id for s in response.slices] == ["t0", "t1", "t2"]
        for s in response.slices:
            w = assignment.windows[s.task_id]
            assert (s.arrival, s.absolute_deadline) == (
                w.arrival,
                w.absolute_deadline,
            )

    def test_dict_round_trip_fields(self):
        doc = response_to_dict(
            response_from_assignment(self._assignment(), "d" * 64, cached=True)
        )
        assert doc["format"] == "repro.assign-response/1"
        assert doc["cached"] is True
        assert doc["metric"] == "ADAPT-L"
        assert doc["estimator"] == "WCET-AVG"
        assert len(doc["slices"]) == 3
        assert "admission" not in doc

    def test_nan_response_time_is_omitted(self):
        decision = AdmissionDecision(False, "a", 0.0, reason="nope")
        doc = response_to_dict(
            response_from_assignment(
                self._assignment(), "d" * 64, admission=decision
            )
        )
        assert doc["admission"]["admitted"] is False
        assert "response_time" not in doc["admission"]
        assert not any(
            isinstance(v, float) and math.isnan(v)
            for v in doc["admission"].values()
        )

"""A ``POST /assign`` cache miss answers what the reference pipeline
answers, byte for byte, and malformed graph documents answer 400.

The expected bytes come from the string-keyed reference
(``distribute_deadlines(..., kernel=False)``) through the service's own
reply format; failures go through the one :func:`assign_error`
mapping on both sides.
"""

import json

import pytest

from repro.core.slicing import distribute_deadlines
from repro.graph import graph_to_dict
from repro.rng import make_rng
from repro.service import DeadlineAssignmentService
from repro.service.api import (
    request_digest,
    request_from_dict,
    response_from_assignment,
)
from repro.service.server import _reply_bytes, assign_error, load_body
from repro.system.platform import platform_to_dict
from repro.workload import WorkloadParams, generate_workload

from .conftest import chain_request

METRICS = ("PURE", "NORM", "ADAPT-G", "ADAPT-L")
ESTIMATORS = ("WCET-AVG", "WCET-MAX", "WCET-MIN", "WCET-AUTO")


def reference_outcome(body: bytes):
    """``(200, reply)`` or ``assign_error``'s ``(status, doc, kind)``."""
    try:
        request = request_from_dict(load_body(body))
        assignment = distribute_deadlines(
            request.graph,
            request.platform,
            request.metric,
            estimator=request.estimator,
            params=request.params,
            kernel=False,
        )
        return 200, _reply_bytes(
            response_from_assignment(assignment, request_digest(request))
        )
    except Exception as exc:  # mapped as the service maps it
        return assign_error(exc)


def service_outcome(body: bytes):
    service = DeadlineAssignmentService()
    try:
        return 200, service.assign_body(body)
    except Exception as exc:  # the front end's mapping
        return assign_error(exc)
    finally:
        service.close()


def workload_doc(seed: int) -> dict:
    workload = generate_workload(WorkloadParams(m=4), make_rng(seed))
    return {
        "graph": graph_to_dict(workload.graph),
        "platform": platform_to_dict(workload.platform),
    }


@pytest.fixture(scope="module")
def docs():
    return [workload_doc(seed) for seed in (101, 202)]


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("metric", METRICS)
def test_miss_reply_is_the_reference_reply(docs, metric, estimator):
    for doc in docs:
        body = json.dumps(dict(doc, metric=metric, estimator=estimator)).encode()
        status, reply = service_outcome(body)
        assert status == 200
        assert (status, reply) == reference_outcome(body)


def test_non_canonical_metric_spelling(docs):
    body = json.dumps(dict(docs[0], metric="adapt_g", estimator="max")).encode()
    outcome = service_outcome(body)
    assert outcome[0] == 200
    assert outcome == reference_outcome(body)


def _empty(doc):
    doc["graph"].update(tasks=[], edges=[], e2e_deadlines=[])


def _cyclic(doc):
    doc["graph"]["edges"].append({"src": "t2", "dst": "t0", "message_size": 0})


def _bad_endpoints(doc):
    doc["graph"]["e2e_deadlines"] += [
        {"src": "t1", "dst": "t2", "deadline": 90.0},
        {"src": "t0", "dst": "t1", "deadline": 90.0},
    ]


def _uncovered_output(doc):
    doc["graph"]["tasks"].append({"id": "t9", "wcet": {"default": 5.0}})
    doc["graph"]["edges"].append({"src": "t0", "dst": "t9", "message_size": 0})


def _below_minimum_work(doc):
    doc["graph"]["e2e_deadlines"][0]["deadline"] = 1.0


def _ineligible(doc):
    doc["graph"]["tasks"][1]["wcet"] = {"absent": 3.0}


CRAFTED = {
    "empty": _empty,
    "cyclic": _cyclic,
    "bad-endpoints": _bad_endpoints,
    "uncovered-output": _uncovered_output,
    "below-minimum-work": _below_minimum_work,
    "ineligible": _ineligible,
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_bodies_answer_what_the_reference_answers(name):
    doc = chain_request()
    CRAFTED[name](doc)
    body = json.dumps(doc).encode()
    expected = reference_outcome(body)
    if name in ("empty", "cyclic", "bad-endpoints", "uncovered-output",
                "ineligible"):
        assert expected[0] == 400, expected
    assert service_outcome(body) == expected


def _wcet_list(doc):
    doc["graph"]["tasks"][0]["wcet"] = [1, 2]


def _integer_id(doc):
    # One integer id among string ids, used consistently by the edges
    # and pairs: the digest's canonical sort cannot order it.
    graph = doc["graph"]
    graph["tasks"][1]["id"] = 7
    for ref in graph["edges"] + graph["e2e_deadlines"]:
        for end in ("src", "dst"):
            if ref[end] == "t1":
                ref[end] = 7


def _resources_string(doc):
    doc["graph"]["tasks"][0]["resources"] = "abc"


@pytest.mark.parametrize(
    "mutate", [_wcet_list, _integer_id, _resources_string],
    ids=["wcet-list", "integer-id", "resources-string"],
)
def test_malformed_graph_documents_answer_400(mutate):
    doc = chain_request()
    mutate(doc)
    status, error, kind = service_outcome(json.dumps(doc).encode())
    assert (status, kind) == (400, "SerializationError"), error

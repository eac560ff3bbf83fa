"""The service's documents through the codec, and the deterministic,
content-addressed job id."""

import pytest

from repro.parallel.transport import to_jsonable
from repro.service.codec import BadRequest, decode, encode
from repro.service.schemas import (
    CampaignSubmission,
    JobEvent,
    JobResult,
    JobStatus,
    ScriptOutcome,
    ScriptSubmission,
    job_id_for,
)

SCRIPT = 'try for 5 minutes\n    echo hello\nend\n'


class TestScriptSubmission:
    def test_round_trip(self):
        sub = ScriptSubmission(
            script=SCRIPT, variables=(("a", "1"), ("b", "2")),
            world="replica", timeout=60.0, seed=7)
        assert decode(ScriptSubmission, encode(sub)) == sub

    def test_defaults(self):
        sub = decode(ScriptSubmission, {"script": SCRIPT})
        assert sub.world == "condor"
        assert sub.timeout is None
        assert sub.seed == 2003
        assert sub.variables == ()

    def test_variables_normalized_sorted(self):
        a = decode(ScriptSubmission,
                   {"script": SCRIPT, "variables": {"b": "2", "a": "1"}})
        b = decode(ScriptSubmission,
                   {"script": SCRIPT, "variables": {"a": "1", "b": "2"}})
        assert a == b
        assert a.variables == (("a", "1"), ("b", "2"))

    @pytest.mark.parametrize("doc", [
        {},
        {"script": 42},
        {"script": SCRIPT, "timeout": -1},
        {"script": SCRIPT, "timeout": True},
        {"script": SCRIPT, "seed": True},
        {"script": SCRIPT, "variables": {"a": 1}},
        {"script": SCRIPT, "variables": "nope"},
        {"script": SCRIPT, "timeout": float("nan")},
        {"script": SCRIPT, "timeout": float("inf")},
    ])
    def test_rejects(self, doc):
        with pytest.raises(BadRequest):
            decode(ScriptSubmission, doc)

    def test_body_must_be_object(self):
        with pytest.raises(BadRequest):
            decode(ScriptSubmission, [SCRIPT])


class TestCampaignSubmission:
    def test_round_trip(self):
        sub = CampaignSubmission(
            scenario="submit", disciplines=("ethernet",),
            fault="schedd-crash", levels=(1, 3), scale="smoke", seed=11,
            overrides=(("submit_clients", 20.0),))
        assert decode(CampaignSubmission, encode(sub)) == sub

    def test_defaults(self):
        sub = decode(CampaignSubmission, {"scenario": "submit"})
        assert sub.disciplines == ("fixed", "aloha", "ethernet")
        assert sub.scale == "smoke"
        assert sub.levels == ()

    def test_empty_disciplines_defaults(self):
        sub = decode(CampaignSubmission,
                     {"scenario": "submit", "disciplines": []})
        assert sub.disciplines == ("fixed", "aloha", "ethernet")

    @pytest.mark.parametrize("doc", [
        {},
        {"scenario": "submit", "disciplines": [1]},
        {"scenario": "submit", "levels": ["1"]},
        {"scenario": "submit", "levels": [True]},
        {"scenario": "submit", "seed": True},
        {"scenario": "submit", "overrides": {"x": "y"}},
        {"scenario": "submit", "overrides": "nope"},
        {"scenario": "submit", "overrides": {"submit_duration": float("nan")}},
        {"scenario": "submit", "overrides": {"submit_duration": float("-inf")}},
    ])
    def test_rejects(self, doc):
        with pytest.raises(BadRequest):
            decode(CampaignSubmission, doc)


class TestJobId:
    def test_deterministic(self):
        sub = ScriptSubmission(script=SCRIPT)
        assert job_id_for(sub, "fp") == job_id_for(sub, "fp")

    def test_submission_content_addressed(self):
        base = ScriptSubmission(script=SCRIPT)
        assert job_id_for(base, "fp") != job_id_for(
            ScriptSubmission(script=SCRIPT, seed=4), "fp")
        assert job_id_for(base, "fp") != job_id_for(
            ScriptSubmission(script=SCRIPT + "\n"), "fp")

    def test_code_fingerprint_matters(self):
        sub = ScriptSubmission(script=SCRIPT)
        assert job_id_for(sub, "fp-a") != job_id_for(sub, "fp-b")

    def test_kind_disambiguates(self):
        # A script and a campaign can never collide: canonical() keys
        # differ by dataclass fields.
        script = ScriptSubmission(script=SCRIPT)
        campaign = CampaignSubmission(scenario="submit")
        assert job_id_for(script, "fp") != job_id_for(campaign, "fp")

    def test_client_spellings_pin_the_job_id(self):
        """The decoder's normalisations are part of every job id: an
        integer timeout or override is stored as a float, variables and
        overrides are sorted, ``null`` reads as the default and a stray
        key is ignored.  The digests are literals, so a codec change
        that moves any of them fails here, not in a dedupe."""
        script = decode(ScriptSubmission, {
            "kind": "script", "script": SCRIPT,
            "variables": {"b": "2", "a": "1"}, "world": "replica",
            "timeout": 60, "seed": 7})
        campaign = decode(CampaignSubmission, {
            "kind": "campaign", "scenario": "submit",
            "disciplines": ["ethernet", "aloha"], "fault": None,
            "levels": [1, 3], "scale": None, "seed": None,
            "overrides": {"submit_duration": 30, "submit_clients": 20}})
        bare = decode(ScriptSubmission, {
            "kind": "campaign", "script": SCRIPT, "variables": None,
            "world": None, "timeout": None, "seed": None})
        assert script.timeout == 60.0 and isinstance(script.timeout, float)
        assert campaign.overrides == (("submit_clients", 20.0),
                                      ("submit_duration", 30.0))
        assert job_id_for(script, "fp") == (
            "fc6cb59fabb2e1bdea45cc1e2487641f3d3b13a36413ddd497ee549ed180a3d3")
        assert job_id_for(campaign, "fp") == (
            "3cab7583c88b920b7d7e244686fee54850235b6fe3c19916053f54752df0176c")
        assert job_id_for(bare, "fp") == (
            "579b9db90a20720084b947e84dfc7a5d87bbb43aa351fa719a03c0c8a3b5007b")


class TestStatusDocuments:
    def test_job_status_round_trip(self):
        status = JobStatus(
            job_id="abc", kind="script", state="running",
            created=1.0, started=2.0, finished=None, deduped=True,
            cache_hit=None, cells=3, error=None, events_seq=4)
        assert decode(JobStatus, encode(status)) == status

    def test_job_result_round_trip(self):
        result = JobResult(job_id="abc", kind="campaign", state="done",
                           cache_hit=True, result=[{"goodput": 1.0}])
        assert decode(JobResult, encode(result)) == result

    def test_job_event_round_trip(self):
        event = JobEvent(seq=1, ts=2.5, state="queued", message="admitted")
        assert decode(JobEvent, encode(event)) == event

    def test_reply_documents_keep_every_key_and_value(self):
        """The reply bytes the service sent before the codec: every
        field by name, ``None`` as ``null``, nothing added."""
        status = JobStatus(job_id="abc", kind="script", state="done",
                           created=1.5, started=2, cache_hit=False)
        assert encode(status) == {
            "job_id": "abc", "kind": "script", "state": "done",
            "created": 1.5, "started": 2, "finished": None,
            "deduped": False, "cache_hit": False, "cells": 0,
            "error": None, "events_seq": 0}
        assert encode(JobResult(job_id="abc", kind="campaign", state="done",
                                cache_hit=None, result=[{"x": (1, 2)}])) \
            == {"job_id": "abc", "kind": "campaign", "state": "done",
                "cache_hit": None, "result": [{"x": (1, 2)}]}
        assert encode(JobEvent(seq=3, ts=0.5, state="queued")) == {
            "seq": 3, "ts": 0.5, "state": "queued", "message": ""}

    def test_script_outcome_reaches_the_wire_through_transport(self):
        """A script job's result is the transport's view of its outcome
        (the codec never sees it): counters stay name/value pairs."""
        outcome = ScriptOutcome(
            success=True, reason=None, timed_out=False, sim_elapsed=3.5,
            events=12, counters=(("crashes", 0.0), ("jobs_submitted", 1.0)),
            budget_exceeded=None)
        assert to_jsonable(outcome) == {
            "__type__": "ScriptOutcome", "success": True, "reason": None,
            "timed_out": False, "sim_elapsed": 3.5, "events": 12,
            "counters": [["crashes", 0.0], ["jobs_submitted", 1.0]],
            "budget_exceeded": None}

    def test_status_requires_core_fields(self):
        with pytest.raises(BadRequest):
            decode(JobStatus, {"job_id": "abc"})


class TestRefusals:
    """Every refusal reads ``what: field 'x' must be ...``."""

    @pytest.mark.parametrize("cls, doc, message", [
        (ScriptSubmission, {},
         "script submission: field 'script' must be a string"),
        (ScriptSubmission, {"script": SCRIPT, "timeout": 0},
         "script submission: field 'timeout' must be a positive finite "
         "number"),
        (ScriptSubmission, {"script": SCRIPT, "seed": 1.5},
         "script submission: field 'seed' must be an integer"),
        (ScriptSubmission, {"script": SCRIPT, "variables": {"a": 1}},
         "script submission: field 'variables.a' must be a string"),
        (CampaignSubmission, {"scenario": "submit", "levels": [1, "2"]},
         "campaign submission: field 'levels[1]' must be an integer"),
        (CampaignSubmission, {"scenario": "submit", "overrides": []},
         "campaign submission: field 'overrides' must be an object"),
        (CampaignSubmission, {"scenario": "submit", "overrides": {"x": "1"}},
         "campaign submission: field 'overrides.x' must be a finite number"),
        (JobStatus, [], "job status: body must be a JSON object"),
    ])
    def test_message(self, cls, doc, message):
        with pytest.raises(BadRequest) as refused:
            decode(cls, doc)
        assert str(refused.value) == message

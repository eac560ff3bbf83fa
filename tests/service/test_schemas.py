"""Schema round-trips and the deterministic, content-addressed job id."""

import pytest

from repro.service.schemas import (
    CampaignSubmission,
    JobEvent,
    JobResult,
    JobStatus,
    SchemaError,
    ScriptOutcome,
    ScriptSubmission,
    job_id_for,
    submission_from_jsonable,
)

SCRIPT = 'try for 5 minutes\n    echo hello\nend\n'


class TestScriptSubmission:
    def test_round_trip(self):
        sub = ScriptSubmission(
            script=SCRIPT, variables=(("a", "1"), ("b", "2")),
            world="replica", timeout=60.0, seed=7)
        assert ScriptSubmission.from_jsonable(sub.to_jsonable()) == sub

    def test_defaults(self):
        sub = ScriptSubmission.from_jsonable({"script": SCRIPT})
        assert sub.world == "condor"
        assert sub.timeout is None
        assert sub.seed == 2003
        assert sub.variables == ()

    def test_variables_normalized_sorted(self):
        a = ScriptSubmission.from_jsonable(
            {"script": SCRIPT, "variables": {"b": "2", "a": "1"}})
        b = ScriptSubmission.from_jsonable(
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
        with pytest.raises(SchemaError):
            ScriptSubmission.from_jsonable(doc)

    def test_body_must_be_object(self):
        with pytest.raises(SchemaError):
            ScriptSubmission.from_jsonable([SCRIPT])


class TestCampaignSubmission:
    def test_round_trip(self):
        sub = CampaignSubmission(
            scenario="submit", disciplines=("ethernet",),
            fault="schedd-crash", levels=(1, 3), scale="smoke", seed=11,
            overrides=(("submit_clients", 20.0),))
        assert CampaignSubmission.from_jsonable(sub.to_jsonable()) == sub

    def test_defaults(self):
        sub = CampaignSubmission.from_jsonable({"scenario": "submit"})
        assert sub.disciplines == ("fixed", "aloha", "ethernet")
        assert sub.scale == "smoke"
        assert sub.levels == ()

    def test_empty_disciplines_defaults(self):
        sub = CampaignSubmission.from_jsonable(
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
        with pytest.raises(SchemaError):
            CampaignSubmission.from_jsonable(doc)


class TestDispatch:
    def test_script_kind(self):
        sub = submission_from_jsonable({"kind": "script", "script": SCRIPT})
        assert isinstance(sub, ScriptSubmission)

    def test_campaign_kind(self):
        sub = submission_from_jsonable(
            {"kind": "campaign", "scenario": "submit"})
        assert isinstance(sub, CampaignSubmission)

    @pytest.mark.parametrize("doc", [{}, {"kind": "job"}, "nope"])
    def test_unknown_kind(self, doc):
        with pytest.raises(SchemaError):
            submission_from_jsonable(doc)


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


class TestStatusDocuments:
    def test_job_status_round_trip(self):
        status = JobStatus(
            job_id="abc", kind="script", state="running",
            created=1.0, started=2.0, finished=None, deduped=True,
            cache_hit=None, cells=3, error=None, events_seq=4)
        assert JobStatus.from_jsonable(status.to_jsonable()) == status

    def test_job_result_round_trip(self):
        result = JobResult(job_id="abc", kind="campaign", state="done",
                           cache_hit=True, result=[{"goodput": 1.0}])
        assert JobResult.from_jsonable(result.to_jsonable()) == result

    def test_job_event_round_trip(self):
        event = JobEvent(seq=1, ts=2.5, state="queued", message="admitted")
        assert JobEvent.from_jsonable(event.to_jsonable()) == event

    def test_script_outcome_round_trip(self):
        outcome = ScriptOutcome(
            success=True, reason=None, timed_out=False, sim_elapsed=3.5,
            events=12, counters=(("crashes", 0.0), ("jobs_submitted", 1.0)),
            budget_exceeded=None)
        assert ScriptOutcome.from_jsonable(outcome.to_jsonable()) == outcome

    def test_status_requires_core_fields(self):
        with pytest.raises(SchemaError):
            JobStatus.from_jsonable({"job_id": "abc"})

"""Admission control: budgets, lint gating, and the sandboxed script cell."""

import pathlib

import pytest

from repro.service.sandbox import (
    SandboxPolicy,
    SandboxRejection,
    admit_campaign,
    admit_script,
    build_scale,
    cells_for,
    run_script_cell,
)
from repro.service.schemas import (
    CampaignSubmission,
    ScriptSubmission,
    job_id_for,
)

GOOD = 'try for 5 minutes\n    echo hello\nend\n'
#: Grabs a shared resource in a retry loop with no probe -> FTL010 warning.
ALOHA = 'try for 5 minutes\n    condor_submit submit.job\nend\n'


def script(text=GOOD, **kwargs):
    return ScriptSubmission(script=text, **kwargs)


class TestAdmitScript:
    def test_admits_and_clamps_window(self):
        policy = SandboxPolicy(max_sim_seconds=100.0)
        admitted = admit_script(script(), policy)
        assert admitted.timeout == 100.0

    def test_keeps_smaller_window(self):
        admitted = admit_script(script(timeout=30.0), SandboxPolicy())
        assert admitted.timeout == 30.0

    def test_pins_seed(self):
        policy = SandboxPolicy(pinned_seed=99)
        assert admit_script(script(seed=5), policy).seed == 99

    def test_size_budget(self):
        policy = SandboxPolicy(max_script_bytes=16)
        with pytest.raises(SandboxRejection) as exc:
            admit_script(script(), policy)
        assert exc.value.code == "budget"

    def test_unknown_world(self):
        with pytest.raises(SandboxRejection) as exc:
            admit_script(script(world="kubernetes"), SandboxPolicy())
        assert exc.value.code == "unknown"

    def test_syntax_rejection(self):
        with pytest.raises(SandboxRejection) as exc:
            admit_script(script("try for 2 bananas\nend\n"), SandboxPolicy())
        assert exc.value.code == "syntax"

    def test_lint_warn_as_error_rejects_aloha(self):
        policy = SandboxPolicy(lint_warn_as_error=True)
        with pytest.raises(SandboxRejection) as exc:
            admit_script(script(ALOHA), policy)
        assert exc.value.code == "lint"
        assert any("FTL010" in line for line in exc.value.details)

    def test_warnings_admitted_by_default(self):
        admitted = admit_script(script(ALOHA), SandboxPolicy())
        assert admitted.script == ALOHA

    def test_lint_off_admits_everything_parseable(self):
        policy = SandboxPolicy(lint=False, lint_warn_as_error=True)
        assert admit_script(script(ALOHA), policy).script == ALOHA

    def test_variables_assumed_defined(self):
        text = 'try for 5 minutes\n    echo ${target}\nend\n'
        policy = SandboxPolicy(lint_warn_as_error=True)
        admitted = admit_script(
            script(text, variables=(("target", "x"),)), policy)
        assert admitted.variables == (("target", "x"),)


class TestAdmitCampaign:
    def test_admits_smoke(self):
        sub = CampaignSubmission(scenario="submit")
        admitted = admit_campaign(sub, SandboxPolicy())
        assert admitted.scenario == "submit"

    def test_unknown_scenario(self):
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(CampaignSubmission(scenario="warp"),
                           SandboxPolicy())
        assert exc.value.code == "unknown"

    def test_unknown_discipline(self):
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(
                CampaignSubmission(scenario="submit",
                                   disciplines=("token-ring",)),
                SandboxPolicy())
        assert exc.value.code == "unknown"

    def test_fault_must_target_scenario(self):
        sub = CampaignSubmission(scenario="replica", fault="schedd-crash",
                                 levels=(1,))
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(sub, SandboxPolicy())
        assert exc.value.code == "invalid"

    def test_levels_without_fault(self):
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(CampaignSubmission(scenario="submit",
                                              levels=(1,)),
                           SandboxPolicy())
        assert exc.value.code == "invalid"

    def test_level_out_of_range(self):
        sub = CampaignSubmission(scenario="submit", fault="schedd-crash",
                                 levels=(4,))
        with pytest.raises(SandboxRejection):
            admit_campaign(sub, SandboxPolicy())

    def test_unknown_override_field(self):
        sub = CampaignSubmission(scenario="submit",
                                 overrides=(("warp_factor", 9.0),))
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(sub, SandboxPolicy())
        assert exc.value.code == "invalid"

    def test_duration_budget(self):
        sub = CampaignSubmission(
            scenario="submit", overrides=(("submit_duration", 7200.0),))
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(sub, SandboxPolicy(max_sim_seconds=3600.0))
        assert exc.value.code == "budget"

    def test_cell_count_budget(self):
        sub = CampaignSubmission(scenario="submit", fault="schedd-crash",
                                 levels=(1, 2, 3))
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(sub, SandboxPolicy(max_cells=6))
        assert exc.value.code == "budget"

    @pytest.mark.parametrize("value, code", [
        (1e7, "budget"),    # ~12 KB a client: ~120 GB before one event
        (401.0, "budget"),  # one past the most any chaos scale runs
        (20.5, "invalid"),  # would run as 20 under another job id
        (-3.0, "invalid"),
        (0.0, "invalid"),
    ])
    def test_population_overrides_are_bounded(self, value, code):
        sub = CampaignSubmission(scenario="submit",
                                 overrides=(("submit_clients", value),))
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(sub, SandboxPolicy())
        assert exc.value.code == code

    @pytest.mark.parametrize("name, ceiling", [
        ("submit_clients", 400), ("buffer_producers", 50),
        ("replica_clients", 15), ("kangaroo_producers", 40),
    ])
    def test_each_count_admits_up_to_the_largest_scale(self, name,
                                                       ceiling):
        policy = SandboxPolicy()
        for value in (1.0, float(ceiling)):
            admit_campaign(CampaignSubmission(
                scenario="submit", overrides=((name, value),)), policy)
        with pytest.raises(SandboxRejection) as exc:
            admit_campaign(CampaignSubmission(
                scenario="submit", overrides=((name, ceiling + 1.0),)),
                policy)
        assert exc.value.code == "budget"

    def test_overrides_build_scale(self):
        sub = CampaignSubmission(
            scenario="submit",
            overrides=(("submit_clients", 20.0),
                       ("submit_duration", 15.0)))
        scale = build_scale(sub)
        assert scale.submit_clients == 20
        assert isinstance(scale.submit_clients, int)
        assert scale.submit_duration == 15.0


class TestCells:
    def test_script_is_one_cell(self):
        policy = SandboxPolicy()
        admitted = admit_script(script(), policy)
        cells = cells_for(admitted, policy)
        assert len(cells) == 1
        assert cells[0].fn is run_script_cell

    def test_campaign_cells_match_grid(self):
        policy = SandboxPolicy()
        sub = admit_campaign(
            CampaignSubmission(scenario="submit",
                               disciplines=("aloha", "ethernet"),
                               fault="schedd-crash", levels=(1, 3)),
            policy)
        cells = cells_for(sub, policy)
        # 2 baselines + 2 levels x 2 disciplines
        assert len(cells) == 6
        assert len({cell.key for cell in cells}) == 6

    def test_campaign_cells_are_named_as_chaos_names_them(self):
        policy = SandboxPolicy()
        sub = admit_campaign(
            CampaignSubmission(scenario="submit", disciplines=("aloha",),
                               fault="schedd-crash", levels=(3,)),
            policy)
        assert [cell.key for cell in cells_for(sub, policy)] == [
            "chaos/submit/baseline/aloha", "chaos/schedd-crash/i3/aloha"]

    @pytest.mark.parametrize("field, spellings", [
        ("levels", ((1, 3), (3, 1))),
        ("disciplines", (("aloha", "fixed"), ("fixed", "aloha"))),
    ])
    def test_reordered_twins_are_one_job_in_chaos_order(self, field,
                                                        spellings):
        """Levels ascending, disciplines in ``ALL_DISCIPLINES`` order:
        either spelling is the same job, and its cells come in the order
        ``chaos.campaign_cells`` runs them."""
        policy = SandboxPolicy()
        admitted = [admit_campaign(CampaignSubmission(
            scenario="submit", fault="schedd-crash",
            **{"levels": (1, 3), "disciplines": ("aloha", "fixed"),
               field: spelling}), policy) for spelling in spellings]
        assert len({job_id_for(sub, "code") for sub in admitted}) == 1
        for sub in admitted:
            assert [cell.key for cell in cells_for(sub, policy)] == [
                "chaos/submit/baseline/fixed",
                "chaos/submit/baseline/aloha",
                "chaos/schedd-crash/i1/fixed",
                "chaos/schedd-crash/i1/aloha",
                "chaos/schedd-crash/i3/fixed",
                "chaos/schedd-crash/i3/aloha",
            ]

    def test_campaign_cells_share_the_chaos_cache(self, tmp_path):
        """A submitted campaign's cells are the chaos CLI's own, so each
        finds the other's cache entries."""
        from repro.experiments import chaos
        from repro.parallel.cache import ResultCache

        policy = SandboxPolicy()
        sub = admit_campaign(
            CampaignSubmission(scenario="buffer", fault="enospc",
                               levels=(3,)),
            policy)
        store = ResultCache(str(tmp_path), fingerprint="test")

        def keys(cells):
            return {store.key_for(cell.fn, cell.args) for cell in cells}

        submitted = keys(cells_for(sub, policy))
        assert len(submitted) == 6
        assert submitted <= keys(chaos.campaign_cells(chaos.SCALES["smoke"],
                                                      sub.seed))


class TestRunScriptCell:
    def test_deterministic(self):
        args = (GOOD, (), "condor", 600.0, 2003, 100_000)
        assert run_script_cell(*args) == run_script_cell(*args)

    def test_success_and_counters(self):
        text = ('try for 5 minutes\n'
                '    condor_submit submit.job\n'
                'end\n')
        outcome = run_script_cell(text, (), "condor", 600.0, 2003, 100_000)
        assert outcome.success
        assert outcome.budget_exceeded is None
        assert dict(outcome.counters)["jobs_submitted"] >= 1.0

    def test_event_budget_trips(self):
        outcome = run_script_cell(GOOD, (), "condor", 600.0, 2003, 1)
        assert not outcome.success
        assert outcome.budget_exceeded == "events"

    def test_script_timeout_wins_over_horizon(self):
        # An always-failing retry loop: the script's own `try for`
        # window expires inside the sim; the budget never fires.
        text = 'try for 10 seconds\n    failure\nend\n'
        outcome = run_script_cell(text, (), "condor", 600.0, 2003, 100_000)
        assert not outcome.success
        assert outcome.budget_exceeded is None

    def test_a_sim_time_trip_reports_the_events_dispatched(self, monkeypatch):
        """A command that outlives its kill keeps the script past the
        horizon: the trip reports what ran before it, not zero."""
        from repro.service import sandbox
        from repro.sim import Interrupt

        def stubborn(ctx):
            while True:
                try:
                    yield ctx.engine.timeout(1.0)
                except Interrupt:
                    pass

        def build(world, population):
            population.registry.add("stubborn", stubborn)
            return real(world, population)

        real = sandbox._build_world
        monkeypatch.setattr(sandbox, "_build_world", build)
        outcome = run_script_cell("stubborn\n", (), "condor", 10.0, 2003,
                                  100_000)
        assert outcome.budget_exceeded == "sim-time"
        assert (outcome.events, outcome.sim_elapsed) == (33, 20.0)

    def test_worlds_register_their_commands(self):
        text = 'try for 10 minutes\n    wget http://xxx/data\nend\n'
        outcome = run_script_cell(text, (), "replica", 600.0, 2003, 100_000)
        assert outcome.success
        assert dict(outcome.counters)["transfers"] >= 1.0


class TestEventCountIsStable:
    """``ScriptOutcome.events`` is a result byte.  The literals below
    were computed at the commit before the driver began withdrawing
    deadline timers; they must not move with how (or whether) the
    engine reclaims withdrawn queue entries.  One moved on purpose:
    ``buffer_producer.ftsh`` went 186 -> 184 when its two timer-served
    commands (``produce_output``, and ``store_output``'s open) stopped
    taking a process' bootstrap hop — one event each."""

    @pytest.mark.parametrize("name, world, events", [
        ("submit_ethernet.ftsh", "condor", 12),
        ("buffer_producer.ftsh", "buffer", 184),
        ("replica_fetch.ftsh", "replica", 17),
    ])
    def test_shipped_examples(self, name, world, events):
        """Each has a command that finishes before its ``try`` deadline
        followed by work that outlives that instant, so ``step()`` meets
        a withdrawn timer."""
        examples = pathlib.Path(__file__).resolve().parents[2] / "examples"
        text = (examples / name).read_text(encoding="utf-8")
        outcome = run_script_cell(text, (), world, 3600.0, 2003, 2_000_000)
        assert outcome.success
        assert outcome.events == events

    def test_second_command_outlives_the_first_deadline(self):
        text = "try for 5 seconds\n    true\nend\nsleep 10\n"
        outcome = run_script_cell(text, (), "condor", 3600.0, 2003, 100_000)
        assert outcome.success
        assert (outcome.events, outcome.sim_elapsed) == (13, 10.0)

    def test_finished_commands_under_a_far_deadline(self):
        """200 withdrawn timers (over 2x the rebuild floor) whose
        deadline the script never reaches: none of them is an event."""
        text = "try for 1 hour\n" + "    true\n" * 200 + "end\n"
        outcome = run_script_cell(text, (), "condor", 3600.0, 2003, 100_000)
        assert outcome.success
        assert outcome.events == 603

    def test_finished_commands_whose_deadlines_pass(self):
        """200 withdrawn timers the script does run past: each is one."""
        text = ("try for 1 seconds\n" + "    true\n" * 4
                + "end\nsleep 2\n") * 50
        outcome = run_script_cell(text, (), "condor", 3600.0, 2003, 100_000)
        assert outcome.success
        assert outcome.events == 1035
        capped = run_script_cell(text, (), "condor", 3600.0, 2003, 500)
        assert capped.budget_exceeded == "events"
        assert (capped.events, capped.sim_elapsed) == (500, 48.0)


class TestSandboxKeepsNoTranscript:
    """``ScriptOutcome`` reads no log event, so the sandbox's shell runs
    with the default log, which only counts.  A short admitted script that fails every 10 ms would
    otherwise keep one event per record up to a million, inside each of
    the service's workers."""

    SCRIPT = "try for 1 hour every 0.01 seconds\n    false\nend\n"

    def test_memory_stays_flat_and_the_outcome_is_unchanged(self,
                                                            monkeypatch):
        import tracemalloc

        from repro.core.shell_log import LOG_TRACE, TRANSCRIPT_EVENTS
        from repro.experiments import population

        from tests.experiments.test_scenarios import logs_built

        assert admit_script(script(self.SCRIPT), SandboxPolicy())
        run_script_cell(self.SCRIPT, (), "condor", 3600.0, 2003, 100)  # warm
        tracemalloc.start()
        try:
            counted = run_script_cell(self.SCRIPT, (), "condor", 3600.0,
                                      2003, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~3 MB counting; a keep-everything log peaks near 9.5 MB.
        assert peak < 5_000_000
        assert counted.budget_exceeded == "events"

        # The same run with a transcript where the default log is built.
        built = logs_built(monkeypatch, population, level=LOG_TRACE,
                           max_events=TRANSCRIPT_EVENTS)
        kept = run_script_cell(self.SCRIPT, (), "condor", 3600.0, 2003,
                               50_000)
        assert len(built[0]) > 0
        assert counted == kept

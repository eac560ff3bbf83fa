"""The reproduction gate, on the medium figures runall builds.

The extension cells cost about 25 s a seed, so these tests evaluate the
extension rows on stand-in results carrying seed 2003's numbers; the
real cells run in the gate itself (``--seed 2003-2013``).
"""

import dataclasses
from types import SimpleNamespace as Run

import pytest

from repro.experiments import runall, validate
from repro.experiments.validate import (
    Check,
    Record,
    check_extensions,
    check_figures,
    main,
    render,
)


@pytest.fixture(scope="module")
def medium():
    return runall.build_figures(runall.SCALES["medium"], seed=2003)


def extensions():
    """Seed 2003's extension results, as far as the rows read them."""
    return {
        "dag": {
            "ethernet": Run(all_finished=True, makespan=560.0, tasks_done=840,
                            tasks_total=840, submissions_attempted=880),
            "aloha": Run(all_finished=True, makespan=562.0, tasks_done=840,
                         tasks_total=840, submissions_attempted=885),
            "fixed": Run(all_finished=False, makespan=900.0, tasks_done=0,
                         tasks_total=840, submissions_attempted=1260),
        },
        "kangaroo": {
            "fixed": Run(mb_delivered=58.7, collisions=60035),
            "aloha": Run(mb_delivered=275.1, collisions=568),
            "ethernet": Run(mb_delivered=283.5, collisions=374),
        },
        "reservation": {
            "ethernet": Run(files_consumed=90, collisions=131,
                            alloc_wait_total=0.0),
            "reserved-fast": Run(files_consumed=113, collisions=0,
                                 alloc_wait_total=2174.0),
            "reserved-slow": Run(files_consumed=28, collisions=0,
                                 alloc_wait_total=860.0),
        },
        "ablation": {
            "aloha-jitter": Run(jobs_submitted=255, crashes=3,
                                emfile_failures=61, backoffs=3920),
            "aloha-nojitter": Run(jobs_submitted=220, crashes=4,
                                  emfile_failures=118, backoffs=3870),
            "aloha-fixed5s": Run(jobs_submitted=80, crashes=5,
                                 emfile_failures=115, backoffs=12784),
            "threshold-1000": Run(jobs_submitted=480, crashes=0),
            "threshold-8150": Run(jobs_submitted=193, crashes=0),
        },
    }


@pytest.fixture
def served(medium, monkeypatch):
    """``validate.build`` answers every seed from the module's one
    medium campaign and seed 2003's extension numbers, and records
    what it was asked for; ``served.broken`` names the seeds at which
    an extension row gets broken records instead."""
    asked = []
    state = Run(asked=asked, broken={})

    def build(scale, seeds):
        asked.append((scale, list(seeds)))
        records = {}
        for seed in seeds:
            ours = extensions()
            for family, variant, changes in state.broken.get(seed, ()):
                ours[family][variant] = Run(
                    **{**vars(ours[family][variant]), **changes})
            records[seed] = Record(medium, ours)
        return records

    monkeypatch.setattr(validate, "build", build)
    return state


class TestValidate:
    @pytest.fixture(scope="class")
    def checks(self, medium):
        return check_figures(medium)

    def test_every_figure_covered(self, checks):
        figures = {c.figure for c in checks}
        assert figures == {"F1", "F2", "F3", "F4", "F5", "F6", "F7"}

    def test_all_criteria_hold(self, checks):
        failed = [c for c in checks if not c.passed]
        assert not failed, f"shape criteria failed: {failed}"

    def test_ethernet_reader_collides_at_most_twice_at_the_default_seed(
            self, medium):
        """Stricter than the gate's <= 5, which must hold at every seed
        (seeds 2003-2013 read 1-3 collisions): at 2003 it is <= 2."""
        assert medium.fig7.run.collisions <= 2

    def test_render_format(self, checks):
        text = render(checks)
        assert "PASS" in text
        assert "shape criteria hold" in text
        assert f"{len(checks)}/{len(checks)}" in text

    def test_render_shows_failures(self):
        checks = [Check("F9", "made-up claim", False, "detail")]
        text = render(checks)
        assert "FAIL" in text
        assert "0/1" in text


class TestExtensions:
    def test_each_bench_assert_is_one_row_marked_ours(self):
        checks = check_extensions(extensions())
        assert [c.figure for c in checks] == (
            ["DAG"] * 5 + ["KAN"] * 4 + ["RES"] * 4 + ["ABL"] * 5)
        assert {c.source for c in checks} == {"ours"}
        assert all(c.passed for c in checks)

    def test_paper_rows_are_marked_the_papers(self, medium):
        assert {c.source for c in check_figures(medium)} == {"paper"}

    def test_cells_reach_their_seed_and_come_back_in_place(self, monkeypatch):
        """One ``run_cells`` call for every seed: each record holds its
        own seed's runs, each variant the run its key names."""
        monkeypatch.setattr(validate, "DAG", dict(
            n_users=1, layers=1, width=3, max_inflight=3, horizon=60.0))
        monkeypatch.setattr(validate, "KANGAROO",
                            dict(n_producers=2, duration=20.0))
        monkeypatch.setattr(validate, "RESERVATION",
                            dict(n_producers=2, duration=10.0))
        monkeypatch.setattr(validate, "ABLATION",
                            dict(n_clients=3, duration=10.0))
        tiny = runall.Scale(
            "tiny", fig1_counts=(2,), fig1_duration=10.0,
            timeline_clients=2, timeline_duration=20.0, buffer_counts=(2,),
            buffer_duration=10.0, reader_duration=60.0)
        records = validate.build(tiny, [2003, 2004])
        assert list(records) == [2003, 2004]
        for seed, record in records.items():
            assert record.figures.fig2.run.params.seed == seed
            assert record.figures.fig7.run.params.discipline.name == "ethernet"
            for family, runs in record.extensions.items():
                for variant, run in runs.items():
                    assert run.params.seed == seed, (family, variant)
            reservation = record.extensions["reservation"]
            assert reservation["reserved-slow"].params.reserved
            assert reservation["reserved-slow"].params.buffer.alloc_rpc_time == 2.0
            ablation = record.extensions["ablation"]
            assert ablation["threshold-8150"].params.carrier_threshold == 8150
            assert ablation["aloha-nojitter"].params.discipline.name == \
                "aloha-nojitter"
            assert record.extensions["dag"]["fixed"].params.discipline.name \
                == "fixed"


class TestCliEntry:
    def test_main_exit_codes(self, served, capsys):
        assert main(["--scale", "medium"]) == 0
        out = capsys.readouterr().out
        assert "shape criteria hold" in out
        assert "FAIL" not in out
        assert served.asked == [(runall.SCALES["medium"], [2003])]

    def test_full_scale_and_seed_reach_build_figures(self, served, capsys):
        """The scale and seed reach the build of figures and cells."""
        main(["--scale", "full", "--seed", "2004"])
        assert served.asked == [(runall.SCALES["full"], [2004])]

    def test_main_exits_1_when_a_claim_fails(self, medium, monkeypatch,
                                              capsys):
        jammed = dataclasses.replace(medium.fig7.run, collisions=99)
        broken = dataclasses.replace(
            medium, fig7=dataclasses.replace(medium.fig7, run=jammed))
        monkeypatch.setattr(validate, "build", lambda scale, seeds: {
            seed: Record(broken, extensions()) for seed in seeds})
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] F7" in out
        assert "collisions=99" in out

    @pytest.mark.parametrize("family, variant, changes, row", [
        ("dag", "fixed", {"all_finished": True},
         "fixed never finishes the workflow"),
        ("kangaroo", "aloha", {"collisions": 7000},
         "fixed collides > 10x as often as aloha"),
        ("reservation", "reserved-slow", {"files_consumed": 45},
         "a slow allocator falls under 0.5x carrier sense's files"),
        ("ablation", "aloha-nojitter", {"emfile_failures": 61},
         "no jitter: more EMFILE cascades"),
    ])
    def test_a_broken_extension_record_fails_its_row(
            self, served, capsys, family, variant, changes, row):
        served.broken[2003] = [(family, variant, changes)]
        assert main([]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert row in failed[0] and " ours " in failed[0]

    def test_a_seed_range_is_one_build_and_a_cross_seed_table(
            self, served, capsys):
        assert main(["--seed", "2003-2005"]) == 0
        out = capsys.readouterr().out
        assert served.asked == [(runall.SCALES["medium"], [2003, 2004, 2005])]
        for seed in (2003, 2004, 2005):
            assert f"seed {seed} (medium):" in out
        assert "across seeds 2003-2005:" in out
        assert "39/39 claims hold at every seed" in out

    def test_a_row_failing_at_one_of_three_seeds_fails_the_gate(
            self, served, capsys):
        served.broken[2004] = [("dag", "fixed", {"tasks_done": 300})]
        assert main(["--seed", "2003-2005"]) == 1
        out = capsys.readouterr().out
        row = next(line for line in out.split("across seeds")[1].splitlines()
                   if "fixed completes under a quarter" in line)
        assert row.lstrip().startswith("2/3")
        assert row.endswith("fails at 2004")
        assert "38/39 claims hold at every seed" in out

    @pytest.mark.parametrize("seed", ["2013-2003", "x", "2003-", "-1"])
    def test_a_bad_seed_is_a_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([f"--seed={seed}"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_quick_is_not_a_gate_scale(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scale", "quick"])

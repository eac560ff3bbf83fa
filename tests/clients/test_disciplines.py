"""Discipline definitions and script templates."""

import pytest

from repro.clients import (
    ALL_DISCIPLINES,
    ALOHA,
    ETHERNET,
    FIXED,
    by_name,
    producer_script,
    reader_script,
    submit_script,
)
from repro.core.parser import parse


class TestDisciplines:
    def test_fixed_never_waits(self):
        assert all(FIXED.policy.delay(failures, lambda: 1.0) == 0.0
                   for failures in (1, 10, 100))
        assert not FIXED.carrier_sense

    def test_aloha_uses_paper_policy(self):
        assert ALOHA.policy.base == 1.0
        assert ALOHA.policy.ceiling == 3600.0
        assert not ALOHA.carrier_sense

    def test_ethernet_is_aloha_plus_carrier(self):
        assert ETHERNET.policy == ALOHA.policy
        assert ETHERNET.carrier_sense

    def test_presentation_order(self):
        assert [d.name for d in ALL_DISCIPLINES] == ["fixed", "aloha", "ethernet"]

    def test_by_name(self):
        assert by_name("ETHERNET") is ETHERNET
        with pytest.raises(KeyError):
            by_name("polite")


class TestSubmitScripts:
    @pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=str)
    def test_parses(self, discipline):
        parse(submit_script(discipline, window=300))

    def test_aloha_matches_paper_listing(self):
        text = submit_script(ALOHA, window=300)
        assert "condor_submit submit.job" in text
        assert "cut" not in text

    def test_ethernet_has_carrier_probe(self):
        text = submit_script(ETHERNET, window=300, carrier_threshold=1000)
        assert "cut -f2 /proc/sys/fs/file-nr" in text
        assert ".lt. 1000" in text

    def test_threshold_parameter(self):
        assert ".lt. 2500" in submit_script(ETHERNET, carrier_threshold=2500)


class TestProducerScripts:
    @pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=str)
    def test_parses(self, discipline):
        parse(producer_script(discipline, size_mb=0.5, window=60))

    def test_ethernet_estimates_space(self):
        text = producer_script(ETHERNET, size_mb=0.25)
        assert "df_estimate" in text
        assert ".le. 0" in text

    def test_aloha_has_no_estimate(self):
        assert "df_estimate" not in producer_script(ALOHA, size_mb=0.25)

    def test_size_embedded(self):
        assert "0.250000" in producer_script(ALOHA, size_mb=0.25)

    @pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=str)
    def test_size_as_a_variable_runs_the_same_commands(self, discipline):
        """``size_mb=None`` is one text for every cycle; with the size
        passed as a variable the commands see the argv, and the log the
        events, of the script that embeds it."""
        from repro.clients.scripts import producer_script_reserved
        from repro.core.shell_log import LOG_TRACE, TRANSCRIPT_EVENTS, ShellLog
        from repro.sim import Engine
        from repro.simruntime import CommandRegistry, SimFtsh

        def run(script, variables=None):
            engine = Engine()
            registry = CommandRegistry()
            seen = []
            for name in ("produce_output", "df_estimate", "store_output",
                         "reserve_output", "store_reserved"):
                def handler(ctx, name=name):
                    seen.append(list(ctx.argv))
                    return (0, "7\n") if name == "df_estimate" else 0
                    yield
                registry.add(name, handler)
            shell = SimFtsh(engine, registry, log=ShellLog(
                clock=lambda: engine.now, max_events=TRANSCRIPT_EVENTS,
                level=LOG_TRACE))
            assert shell.run(script, variables).success
            return seen, shell.log.dump()

        size = 0.123456789
        variables = {"size_mb": f"{size:.6f}"}
        for build in (lambda s: producer_script(discipline, s, window=60),
                      lambda s: producer_script_reserved(s, window=60)):
            assert "${size_mb}" in build(None)
            assert run(build(None), variables) == run(build(size))
            assert run(build(size))[0][0] == ["produce_output", "0.123457"]


class TestReaderScripts:
    @pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=str)
    def test_parses(self, discipline):
        parse(reader_script(discipline, ["xxx", "yyy", "zzz"]))

    def test_ethernet_probes_flag_first(self):
        text = reader_script(ETHERNET, ["a", "b"])
        assert text.index("/flag") < text.index("/data")
        assert "try for 5 seconds" in text
        assert "try for 60 seconds" in text

    def test_aloha_no_probe(self):
        assert "/flag" not in reader_script(ALOHA, ["a", "b"])

    def test_host_order_preserved(self):
        text = reader_script(ALOHA, ["b", "a", "c"])
        assert "forany host in b a c" in text

"""Exit-code contracts: ``python -m repro.lint`` and ``ftsh --lint``.

Both front ends share the convention of ``ftsh`` itself: 0 clean,
1 findings at error severity (or script failure), 2 syntax/usage error.
"""

import json

import pytest

from repro.cli import main as ftsh_main
from repro.lint.cli import main as lint_main

from .conftest import FIXTURES

BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def write_script(tmp_path, text, name="script.ftsh"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLintModule:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write_script(tmp_path, "echo hello\n")
        assert lint_main([path]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_warning_without_promotion_exits_zero(self):
        assert lint_main([str(BAD / "unbounded_try.ftsh")]) == 0

    def test_bad_fixtures_fail_under_w_error(self, capsys):
        for name, code in (
            ("unbounded_try.ftsh", "FTL001"),
            ("fixed_client.ftsh", "FTL002"),
        ):
            assert lint_main([str(BAD / name), "-W", "error"]) == 1
            assert code in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert lint_main(
            [str(BAD / "fixed_client.ftsh"), "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "repro.lint"
        (entry,) = document["files"]
        assert [d["code"] for d in entry["diagnostics"]] == ["FTL002"]

    def test_directory_walk(self, capsys):
        assert lint_main([str(GOOD), "-W", "error"]) == 0
        assert "2 files checked" in capsys.readouterr().out

    def test_exclude_glob(self):
        assert lint_main([str(FIXTURES), "--exclude", "*/bad/*",
                          "-W", "error"]) == 0

    def test_select_and_disable(self):
        bad = str(BAD / "fixed_client.ftsh")
        assert lint_main([bad, "-W", "error", "--select", "FTL001"]) == 0
        assert lint_main([bad, "-W", "error", "--disable", "FTL002"]) == 0

    def test_unknown_code_is_usage_error(self):
        assert lint_main([str(GOOD), "--select", "FTL999"]) == 2

    def test_missing_path_is_usage_error(self):
        assert lint_main(["/nonexistent/dir"]) == 2

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = write_script(tmp_path, "try\n    cmd\nend\n")
        assert lint_main([path]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_assume_defined_flag(self, tmp_path):
        path = write_script(tmp_path, "echo ${cluster}\n")
        assert lint_main([path, "-W", "error"]) == 1
        assert lint_main([path, "-W", "error", "-D", "cluster=prod"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 11):
            assert f"FTL{n:03d}" in out


class TestFtshLint:
    def test_clean_script(self, tmp_path):
        assert ftsh_main(["--lint", write_script(tmp_path, "echo hi\n")]) == 0

    def test_warning_only_exits_zero(self, capsys):
        assert ftsh_main(["--lint", str(BAD / "unbounded_try.ftsh")]) == 0
        assert "FTL001" in capsys.readouterr().err

    def test_w_error_promotes(self):
        assert ftsh_main(
            ["--lint", "-W", "error", str(BAD / "unbounded_try.ftsh")]
        ) == 1

    def test_lint_does_not_execute(self, tmp_path):
        marker = tmp_path / "ran"
        script = write_script(tmp_path, f"sh -c 'touch {marker}'\n")
        assert ftsh_main(["--lint", script]) == 0
        assert not marker.exists()

    def test_syntax_error_exits_two(self, tmp_path):
        assert ftsh_main(
            ["--lint", write_script(tmp_path, "try\ncmd\nend\n")]
        ) == 2


class TestParseOnlyRegression:
    """``--parse-only`` mirrors ``--lint``: 0 parses, 2 does not."""

    def test_valid_script_exits_zero(self, tmp_path):
        assert ftsh_main(
            ["--parse-only", write_script(tmp_path, "try 3 times\nx=1\nend\n")]
        ) == 0

    def test_parse_error_exits_two(self, tmp_path, capsys):
        assert ftsh_main(
            ["--parse-only", write_script(tmp_path, "try\ncmd\nend\n")]
        ) == 2
        assert "ftsh: " in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--parse-only"], ["--lint"], []],
                             ids=["--parse-only", "--lint", "run"])
    def test_pathological_nesting_is_a_syntax_error(self, tmp_path, flags):
        # A recursive-descent parser meets 4000 nested tries: this used
        # to escape as a RecursionError traceback instead of exit 2.
        depth = 4000
        text = "try 2 times\n" * depth + "cmd\n" + "end\n" * depth
        assert ftsh_main([*flags, write_script(tmp_path, text)]) == 2

    @pytest.mark.parametrize("opener", ["try 1 times", "if 1 .eq. 1",
                                        "forany x in a", "forall x in a"])
    def test_whatever_parses_runs(self, tmp_path, opener):
        """The deepest nest the parser admits is one the plan runtime
        executes: no script exits 0 under --parse-only and then dies of
        a RecursionError when run."""
        def main_at(depth, *flags):
            text = f"{opener}\n" * depth + "true\n" + "end\n" * depth
            return ftsh_main([*flags, write_script(tmp_path, text)])

        parses, too_deep = 1, 4000
        assert main_at(parses, "--parse-only") == 0
        assert main_at(too_deep, "--parse-only") == 2
        while too_deep - parses > 1:
            depth = (parses + too_deep) // 2
            if main_at(depth, "--parse-only") == 0:
                parses = depth
            else:
                too_deep = depth
        assert parses > 100
        assert main_at(parses) == 0

    def test_deep_nesting_in_lint_module(self, tmp_path):
        depth = 4000
        text = "try 2 times\n" * depth + "cmd\n" + "end\n" * depth
        assert lint_main([write_script(tmp_path, text)]) == 2

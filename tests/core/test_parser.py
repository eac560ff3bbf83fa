"""Parser behaviour: every construct in the paper plus error cases."""

import pytest

from repro.core import ast_nodes as ast
from repro.core.errors import FtshSyntaxError
from repro.core.parser import parse


def only_stmt(text):
    script = parse(text)
    assert len(script.body.body) == 1
    return script.body.body[0]


class TestCommands:
    def test_simple(self):
        stmt = only_stmt("wget http://server/file")
        assert isinstance(stmt, ast.Command)
        assert len(stmt.words) == 2

    def test_group_order(self):
        script = parse("wget url\ngunzip f\ntar xvf f\n")
        names = [str(s.words[0]) for s in script.body.body]
        assert names == ["wget", "gunzip", "tar"]

    def test_blank_lines_ignored(self):
        script = parse("\n\na\n\n\nb\n\n")
        assert len(script.body.body) == 2

    def test_file_redirect(self):
        stmt = only_stmt("run-simulation >& tmp")
        assert stmt.redirects[0].op == ">&"
        assert not stmt.redirects[0].to_variable
        assert stmt.redirects[0].merges_stderr

    def test_variable_redirect(self):
        stmt = only_stmt("cut -f2 /proc/sys/fs/file-nr -> n")
        redirect = stmt.redirects[0]
        assert redirect.to_variable
        assert str(redirect.target) == "n"

    def test_variable_redirect_needs_plain_name(self):
        with pytest.raises(FtshSyntaxError):
            parse("cmd -> ${x}")

    def test_redirect_without_command(self):
        with pytest.raises(FtshSyntaxError):
            parse("> file")

    def test_redirect_without_target(self):
        with pytest.raises(FtshSyntaxError):
            parse("cmd >\n")

    def test_keyword_as_argument_stays_word(self):
        stmt = only_stmt("echo try catch end2")
        assert isinstance(stmt, ast.Command)
        assert [str(w) for w in stmt.words] == ["echo", "try", "catch", "end2"]


class TestAssignment:
    def test_simple(self):
        stmt = only_stmt("host=xxx")
        assert isinstance(stmt, ast.Assignment)
        assert stmt.name == "host"
        assert str(stmt.value) == "xxx"

    def test_quoted_value(self):
        stmt = only_stmt('msg="hello world"')
        assert isinstance(stmt, ast.Assignment)
        assert str(stmt.value) == "hello world"

    def test_value_with_variable(self):
        stmt = only_stmt("url=http://${host}/f")
        assert isinstance(stmt, ast.Assignment)

    def test_empty_value(self):
        stmt = only_stmt("x=")
        assert isinstance(stmt, ast.Assignment)
        assert str(stmt.value) == ""

    def test_env_prefix_style_rejected(self):
        with pytest.raises(FtshSyntaxError):
            parse("FOO=1 cmd arg")

    def test_equals_not_at_identifier_is_command(self):
        stmt = only_stmt("dd if=/dev/zero")
        assert isinstance(stmt, ast.Command)


class TestTry:
    def test_for_duration(self):
        stmt = only_stmt("try for 30 minutes\n  wget url\nend")
        assert isinstance(stmt, ast.Try)
        assert stmt.limits.duration == 1800.0
        assert stmt.limits.attempts is None

    def test_times(self):
        stmt = only_stmt("try 5 times\n  wget url\nend")
        assert stmt.limits.attempts == 5
        assert stmt.limits.duration is None

    def test_combined_paper_form(self):
        # "try for 1 hour or 3 times"
        stmt = only_stmt("try for 1 hour or 3 times\n  cmd\nend")
        assert stmt.limits.duration == 3600.0
        assert stmt.limits.attempts == 3

    def test_combined_reversed(self):
        stmt = only_stmt("try 3 times or for 1 hour\n  cmd\nend")
        assert stmt.limits.duration == 3600.0
        assert stmt.limits.attempts == 3

    def test_forever(self):
        stmt = only_stmt("try forever\n  cmd\nend")
        assert stmt.limits.duration is None
        assert stmt.limits.attempts is None

    def test_every_extension(self):
        stmt = only_stmt("try for 1 hour every 10 seconds\n  cmd\nend")
        assert stmt.limits.every == 10.0

    def test_catch(self):
        stmt = only_stmt(
            "try 5 times\n  wget url\ncatch\n  rm -f file\n  failure\nend"
        )
        assert stmt.catch is not None
        assert len(stmt.catch.body) == 2
        assert isinstance(stmt.catch.body[1], ast.FailureAtom)

    def test_nested(self):
        stmt = only_stmt(
            """
try for 30 minutes
    try for 5 minutes
        wget url
    end
    try for 1 minute or 3 times
        gunzip file
        tar xvf file
    end
end
"""
        )
        assert isinstance(stmt, ast.Try)
        inner1, inner2 = stmt.body.body
        assert inner1.limits.duration == 300.0
        assert inner2.limits.duration == 60.0
        assert inner2.limits.attempts == 3

    def test_bare_try_rejected(self):
        with pytest.raises(FtshSyntaxError):
            parse("try\n  cmd\nend")

    def test_missing_end(self):
        with pytest.raises(FtshSyntaxError):
            parse("try 5 times\n  cmd\n")

    def test_duplicate_for_clause(self):
        with pytest.raises(FtshSyntaxError):
            parse("try for 1 hour for 2 hours\n  cmd\nend")

    def test_zero_times_rejected(self):
        with pytest.raises(FtshSyntaxError):
            parse("try 0 times\n  cmd\nend")

    def test_bad_unit(self):
        with pytest.raises(FtshSyntaxError):
            parse("try for 5 parsecs\n  cmd\nend")

    def test_bad_number(self):
        with pytest.raises(FtshSyntaxError):
            parse("try for many minutes\n  cmd\nend")


class TestForAnyForAll:
    def test_forany_paper_example(self):
        stmt = only_stmt(
            "forany server in xxx yyy zzz\n  wget http://${server}/f\nend"
        )
        assert isinstance(stmt, ast.ForAny)
        assert stmt.var == "server"
        assert [str(w) for w in stmt.values] == ["xxx", "yyy", "zzz"]

    def test_forall(self):
        stmt = only_stmt("forall file in a b c\n  wget ${file}\nend")
        assert isinstance(stmt, ast.ForAll)
        assert stmt.var == "file"

    def test_values_may_contain_variables(self):
        stmt = only_stmt("forany h in ${primary} backup\n  ping ${h}\nend")
        assert len(stmt.values) == 2

    def test_missing_in(self):
        with pytest.raises(FtshSyntaxError):
            parse("forany server xxx yyy\n  cmd\nend")

    def test_no_alternatives(self):
        with pytest.raises(FtshSyntaxError):
            parse("forany server in\n  cmd\nend")

    def test_bad_variable_name(self):
        with pytest.raises(FtshSyntaxError):
            parse("forany 9x in a b\n  cmd\nend")


class TestIf:
    def test_paper_fd_check(self):
        stmt = only_stmt(
            """
if ${n} .lt. 1000
    failure
else
    condor_submit submit.job
end
"""
        )
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.condition, ast.Comparison)
        assert stmt.condition.op == ".lt."
        assert stmt.orelse is not None

    def test_no_else(self):
        stmt = only_stmt("if ${x} .eq. 1\n  cmd\nend")
        assert stmt.orelse is None

    def test_boolean_connectives(self):
        stmt = only_stmt("if ${a} .lt. 1 .and. ${b} .gt. 2 .or. ${c}\n  cmd\nend")
        cond = stmt.condition
        assert isinstance(cond, ast.BoolOp)
        assert cond.op == ".or."
        assert isinstance(cond.lhs, ast.BoolOp)
        assert cond.lhs.op == ".and."

    def test_not(self):
        stmt = only_stmt("if .not. ${flag}\n  cmd\nend")
        assert isinstance(stmt.condition, ast.Not)

    def test_parentheses(self):
        stmt = only_stmt("if ( ${a} .or. ${b} ) .and. ${c}\n  cmd\nend")
        cond = stmt.condition
        assert cond.op == ".and."
        assert isinstance(cond.lhs, ast.BoolOp)
        assert cond.lhs.op == ".or."

    def test_string_comparison(self):
        stmt = only_stmt('if ${name} .eql. "the one"\n  cmd\nend')
        assert stmt.condition.op == ".eql."

    def test_missing_close_paren(self):
        with pytest.raises(FtshSyntaxError):
            parse("if ( ${a}\n  cmd\nend")

    def test_condition_required(self):
        with pytest.raises(FtshSyntaxError):
            parse("if\n  cmd\nend")


class TestAtoms:
    def test_failure(self):
        assert isinstance(only_stmt("failure"), ast.FailureAtom)

    def test_success(self):
        assert isinstance(only_stmt("success"), ast.SuccessAtom)


class TestStructuralErrors:
    def test_stray_end(self):
        with pytest.raises(FtshSyntaxError):
            parse("cmd\nend")

    def test_stray_catch(self):
        with pytest.raises(FtshSyntaxError):
            parse("catch\ncmd\nend")

    def test_else_outside_if(self):
        with pytest.raises(FtshSyntaxError):
            parse("forany x in a\n  cmd\nelse\n  cmd\nend")


class TestPaperListings:
    """Every complete listing in the paper must parse."""

    LISTINGS = [
        # §1 intro example
        """
try for 1 hour
    forany host in xxx yyy zzz
        try for 5 minutes
            fetch-file $host filename
        end
    end
end
""",
        # §4 group
        "wget http://server/file.tar.gz\ngunzip file.tar.gz\ntar xvf file.tar\n",
        # §4 try + catch
        """
try 5 times
    wget http://server/file.tar.gz
catch
    rm -f file.tar.gz
    failure
end
""",
        # §4 forany + use of winning variable
        """
forany server in xxx yyy zzz
    wget http://${server}/file.tar.gz
end
echo "got file from ${server}"
""",
        # §4 forall
        "forall file in xxx yyy zzz\n    wget http://${server}/${file}\nend\n",
        # §4 I/O transaction via file
        "try 5 times\n    run-simulation >& tmp\nend\ncat < tmp\n",
        # §4 I/O transaction via variable
        "try 5 times\n    run-simulation ->& tmp\nend\ncat -< tmp\n",
        # §5 Aloha submitter
        "try for 5 minutes\n    condor_submit submit.job\nend\n",
        # §5 Ethernet submitter
        """
try for 5 minutes
    cut -f2 /proc/sys/fs/file-nr -> n
    if ${n} .lt. 1000
        failure
    else
        condor_submit submit.job
    end
end
""",
        # §5 Aloha reader
        """
try for 900 seconds
    forany host in xxx yyy zzz
        try for 60 seconds
            wget http://$host/data
        end
    end
end
""",
        # §5 Ethernet reader
        """
try for 900 seconds
    forany host in xxx yyy zzz
        try for 5 seconds
            wget http://$host/flag
        end
        try for 60 seconds
            wget http://$host/data
        end
    end
end
""",
    ]

    @pytest.mark.parametrize("listing", LISTINGS, ids=range(len(LISTINGS)))
    def test_parses(self, listing):
        script = parse(listing)
        assert script.body.body


class TestSourceSpans:
    """Nodes carry the line *and* column of their head token."""

    def test_statement_columns(self):
        script = parse("x=1\n    echo hi\n", "<test>")
        assign, command = script.body.body
        assert (assign.line, assign.column) == (1, 1)
        assert (command.line, command.column) == (2, 5)

    def test_block_columns(self):
        script = parse(
            "try forever\n    forany h in a b\n        cmd\n    end\nend\n"
        )
        try_node = script.body.body[0]
        forany = try_node.body.body[0]
        assert (try_node.line, try_node.column) == (1, 1)
        assert (forany.line, forany.column) == (2, 5)

    def test_duration_units_as_written(self):
        script = parse("try for 5 minutes every 30 seconds\n    cmd\nend\n")
        limits = script.body.body[0].limits
        assert limits.duration == 300.0
        assert limits.duration_unit == "minutes"
        assert limits.every == 30.0

    def test_units_absent_when_not_written(self):
        script = parse("try 3 times\n    cmd\nend\n")
        limits = script.body.body[0].limits
        assert limits.duration_unit is None

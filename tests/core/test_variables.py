"""Scopes and word expansion."""

import pytest

from repro.core.errors import UndefinedVariableError
from repro.core.interpreter import Interpreter
from repro.core.lexer import tokenize
from repro.core.parser import parse
from repro.core.tokens import TokenKind
from repro.core.variables import Scope


def first_word(text):
    return next(t.word for t in tokenize(text) if t.kind is TokenKind.WORD)


class TestScope:
    def test_get_set(self):
        scope = Scope()
        scope.set("x", "1")
        assert scope.get("x") == "1"

    def test_missing_raises_failure(self):
        with pytest.raises(UndefinedVariableError):
            Scope().get("nope")

    def test_lookup_default(self):
        assert Scope().lookup("nope", "fallback") == "fallback"

    def test_initial_bindings(self):
        scope = Scope({"a": "1"})
        assert scope.get("a") == "1"

    def test_child_reads_parent(self):
        parent = Scope({"a": "1"})
        child = parent.child()
        assert child.get("a") == "1"

    def test_child_writes_stay_local(self):
        parent = Scope({"a": "1"})
        child = parent.child()
        child.set("a", "2")
        assert child.get("a") == "2"
        assert parent.get("a") == "1"

    def test_append(self):
        scope = Scope()
        scope.append("log", "one")
        scope.append("log", "two")
        assert scope.get("log") == "onetwo"

    def test_contains(self):
        scope = Scope({"a": "1"})
        assert "a" in scope
        assert "b" not in scope

    def test_flatten_inner_wins(self):
        parent = Scope({"a": "1", "b": "p"})
        child = parent.child()
        child.set("a", "2")
        assert child.flatten() == {"a": "2", "b": "p"}


class TestExpansion:
    def test_literal(self):
        assert first_word("hello").expand(Scope()) == "hello"

    def test_variable(self):
        scope = Scope({"host": "xxx"})
        assert first_word("http://${host}/f").expand(scope) == "http://xxx/f"

    def test_bare_variable(self):
        scope = Scope({"host": "xxx"})
        assert first_word("$host").expand(scope) == "xxx"

    def test_quoted_mixture(self):
        scope = Scope({"server": "yyy"})
        assert (
            first_word('"got file from ${server}"').expand(scope)
            == "got file from yyy"
        )

    def test_undefined_raises(self):
        with pytest.raises(UndefinedVariableError):
            first_word("${missing}").expand(Scope())


class TestArgvExpansion:
    """A command's argv, as the interpreter hands it to the driver."""

    def argv(self, text, scope):
        command = parse(text).body.body[0]
        return next(Interpreter(scope).eval_command(command)).argv

    def test_basic(self):
        assert self.argv("wget url", Scope()) == ["wget", "url"]

    def test_empty_unquoted_variable_elides(self):
        scope = Scope({"flag": ""})
        assert self.argv("cmd ${flag} arg", scope) == ["cmd", "arg"]

    def test_empty_quoted_variable_kept(self):
        scope = Scope({"flag": ""})
        assert self.argv('cmd "${flag}" arg', scope) == ["cmd", "", "arg"]

    def test_empty_literal_quotes_kept(self):
        assert self.argv('cmd ""', Scope()) == ["cmd", ""]

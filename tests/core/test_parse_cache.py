"""The parse cache: memoized Scripts must be shared, distinct per
source name, and — critically — immutable under interpretation.

``parse_cached`` hands the *same* ``Script`` object to every caller of
the same text, so any interpreter that mutated its AST would corrupt
every later run.  The mutation canary executes a cached script under
both runtimes and checks the canonical pretty-printing is unchanged.
"""

import copy
import dataclasses
import pathlib

import pytest

from repro.core.errors import FtshSyntaxError
from repro.core.parser import parse, parse_cached
from repro.core.pretty import format_script
from repro.lint import lint_script
from repro.core.shell import Ftsh
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

ROOT = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = """
try 2 times
    probe alpha
end
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    parse_cached.cache_clear()
    yield
    parse_cached.cache_clear()


class TestMemoization:
    def test_same_text_same_object(self):
        assert parse_cached(SCRIPT) is parse_cached(SCRIPT)

    def test_cache_matches_cold_parse(self):
        assert parse_cached(SCRIPT) == parse(SCRIPT)

    def test_different_text_different_object(self):
        assert parse_cached("echo a\n") is not parse_cached("echo b\n")

    def test_distinct_source_names_stay_distinct(self):
        """Diagnostics carry the source name, so scripts cached under
        different names must not be conflated."""
        first = parse_cached(SCRIPT, "alpha.ftsh")
        second = parse_cached(SCRIPT, "beta.ftsh")
        assert first is not second
        assert first.source_name == "alpha.ftsh"
        assert second.source_name == "beta.ftsh"

    def test_syntax_errors_not_cached(self):
        bad = "try bogus\nend\n"
        with pytest.raises(FtshSyntaxError):
            parse_cached(bad)
        with pytest.raises(FtshSyntaxError):  # raised again, not poisoned
            parse_cached(bad)
        assert parse_cached.cache_info().currsize == 0


class TestMutationCanary:
    def test_ast_nodes_are_frozen(self):
        script = parse_cached(SCRIPT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            script.source_name = "elsewhere"

    def test_sim_runtime_leaves_cached_ast_untouched(self):
        script = parse_cached(SCRIPT)
        before = format_script(script)
        engine = Engine()
        registry = CommandRegistry()

        @registry.register("probe")
        def probe(ctx):
            yield ctx.engine.timeout(0.1)
            return 0

        shell = SimFtsh(engine, registry)
        result = shell.run(script)
        assert result.success
        assert format_script(script) == before
        assert parse_cached(SCRIPT) is script

    def test_real_runtime_leaves_cached_ast_untouched(self):
        text = 'echo canary\n'
        script = parse_cached(text)
        before = format_script(script)
        result = Ftsh().run(script)
        assert result.success
        assert format_script(script) == before
        assert parse_cached(text) is script

    def test_shell_str_path_uses_the_cache(self):
        """Ftsh.run(str) routes through parse_cached: two runs of the
        same text parse once."""
        text = 'echo cached\n'
        shell = Ftsh()
        assert shell.run(text).success
        assert parse_cached.cache_info().currsize == 1
        assert shell.run(text).success
        assert parse_cached.cache_info().hits >= 1


SAMPLE = """x=${a}b
try 3 times every 2 seconds
  cmd "q" ${x} -> v >> f
catch
  failure
end
"""

#: ``repr(parse(SAMPLE))`` as it read before nodes carried derived
#: fields, less the ``every_unit`` field deleted since.
SAMPLE_REPR = (
    "Script(body=Group(body=(Assignment(name='x', value=Word(parts=("
    "VarRef(name='a', quoted=False), Literal(text='b', quoted=False)), "
    "line=1, column=1), line=1, column=1), Try(limits=TryLimits("
    "duration=None, attempts=3, every=2.0, duration_unit=None), "
    "body=Group(body=(Command(words=(Word(parts=(Literal(text='cmd', "
    "quoted=False),), line=3, column=3), Word(parts=(Literal(text='q', "
    "quoted=True),), line=3, column=7), Word(parts=(VarRef(name='x', "
    "quoted=False),), line=3, column=11)), redirects=(Redirect(op='->', "
    "target=Word(parts=(Literal(text='v', quoted=False),), line=3, "
    "column=19)), Redirect(op='>>', target=Word(parts=(Literal(text='f', "
    "quoted=False),), line=3, column=24))), line=3, column=3),), line=3, "
    "column=3), catch=Group(body=(FailureAtom(line=5, column=3),), "
    "line=5, column=3), line=2, column=1)), line=1, column=1), "
    "source_name='<script>')")

SHIPPED = sorted(
    list((ROOT / "examples").glob("**/*.ftsh"))
    + list((ROOT / "tests" / "lint" / "fixtures").glob("**/*.ftsh")))


def blank_derived(node):
    """A deep copy of ``node`` with every derived field set to None."""
    node = copy.deepcopy(node)
    pending = [node]
    while pending:
        item = pending.pop()
        if isinstance(item, (tuple, list)):
            pending.extend(item)
        elif dataclasses.is_dataclass(item):
            for field in dataclasses.fields(item):
                if field.init:
                    pending.append(getattr(item, field.name))
                else:
                    object.__setattr__(item, field.name, None)
    return node


class TestDerivedFieldsAreInvisible:
    """What the parser precomputes for the interpreter (``derived()``
    fields on words, commands, redirects and tries) is not part of the
    tree equality, hashing, ``repr``, the formatter or the linter see."""

    def test_equal_parses_compare_and_hash_equal(self):
        for path in SHIPPED:
            text = path.read_text()
            assert parse(text) == parse(text), path.name
            assert hash(parse(text)) == hash(parse(text)), path.name
        assert parse(SAMPLE) == blank_derived(parse(SAMPLE))

    def test_repr_is_the_source_tree(self):
        assert repr(parse(SAMPLE)) == SAMPLE_REPR

    def test_format_and_lint_never_read_them(self):
        for path in SHIPPED:
            text = path.read_text()
            script = parse(text)
            blanked = blank_derived(script)
            assert format_script(blanked) == format_script(script), path.name
            assert lint_script(blanked, text) == lint_script(script, text), \
                path.name

"""The generated corpus, and properties of the one interpreter.

Hypothesis builds random scripts from nested retry loops (inlined when
the body is a single command), fan-out loops and assignments, plus a
random per-command failure pattern.  A fixed corpus of 240 of them, drawn
once from these strategies, is recorded with the tree-walker's
observations in ``tests/core/golden_interpreter.jsonl``: the interpreter
must reproduce each record exactly.  Fresh draws check what holds of any
run: the ``ShellLog`` stream is well formed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shell_log import EventKind
from tests.core.test_compile import as_recorded, corpus, observe

#: Commands the generated scripts may invoke; the failure pattern maps
#: each to how many invocations fail before the first success.
COMMANDS = ("alpha", "bravo", "charlie", "delta")


def _leaf(draw, depth):
    choice = draw(st.integers(min_value=0, max_value=3))
    name = draw(st.sampled_from(COMMANDS))
    if choice == 0:
        return f"{name} ${{v0}} -> cap{depth}"
    if choice == 1:
        return f"v{depth + 1}={name}-value"
    if choice == 2:
        return f"{name} literal arg"
    return "success"


def _block(draw, depth, max_depth):
    # Indentation is cosmetic in ftsh; nesting is try/.../end keywords.
    kind = draw(st.integers(min_value=0, max_value=3))
    inner = _statements(draw, depth + 1, max_depth)
    if kind == 0:
        attempts = draw(st.integers(min_value=1, max_value=4))
        lines = [f"try {attempts} times every 1 second", inner]
        if draw(st.booleans()):
            lines += ["catch", "cleanup_cmd"]
        lines.append("end")
    elif kind == 1:
        window = draw(st.integers(min_value=5, max_value=60))
        lines = [f"try for {window} seconds every 1 second", inner, "end"]
    elif kind == 2:
        items = draw(st.lists(st.sampled_from(("one", "two", "three")),
                              min_size=1, max_size=3, unique=True))
        lines = [f"forany it{depth} in {' '.join(items)}", inner, "end"]
    else:
        items = draw(st.lists(st.sampled_from(("p", "q", "r")),
                              min_size=1, max_size=3, unique=True))
        lines = [f"forall it{depth} in {' '.join(items)}", inner, "end"]
    return "\n".join(lines)


def _statements(draw, depth, max_depth):
    count = draw(st.integers(min_value=1, max_value=2))
    parts = []
    for _ in range(count):
        if depth < max_depth and draw(st.booleans()):
            parts.append(_block(draw, depth, max_depth))
        else:
            parts.append(_leaf(draw, depth))
    return "\n".join(parts)


@st.composite
def scripts(draw):
    max_depth = draw(st.integers(min_value=1, max_value=3))
    body = _statements(draw, 0, max_depth)
    return f"v0=seed\n{body}\n"


@st.composite
def failure_patterns(draw):
    return {name: draw(st.integers(min_value=0, max_value=2))
            for name in COMMANDS}


def test_compiled_matches_tree_walk():
    records = corpus(with_obs=False)
    assert len(records) == 160
    for record in records:
        observed = observe(record["text"], fail_first=record["fail_first"])
        assert as_recorded(observed) == record["observed"], record["text"]


def test_compiled_matches_tree_walk_with_obs():
    records = corpus(with_obs=True)
    assert len(records) == 80
    for record in records:
        observed = observe(record["text"], fail_first=record["fail_first"],
                           with_obs=True)
        assert as_recorded(observed) == record["observed"], record["text"]


@given(text=scripts(), fail_first=failure_patterns())
@settings(max_examples=40, deadline=None)
def test_log_stream_is_well_formed(text, fail_first):
    """One script result, last; time never runs backwards; every command
    started ends exactly once; attempts and backoffs pair with spans."""
    outcome, events, spans, _bindings = observe(
        text, fail_first=fail_first, with_obs=True)
    kinds = [kind for _time, kind, *_rest in events]
    assert kinds.count(EventKind.SCRIPT_RESULT) == 1
    assert kinds[-1] is EventKind.SCRIPT_RESULT
    times = [time for time, *_rest in events]
    assert times == sorted(times)
    # forall branches interleave, so commands pair up by count.
    ended = sum(kinds.count(kind) for kind in (
        EventKind.COMMAND_END, EventKind.COMMAND_FAILED,
        EventKind.COMMAND_TIMEOUT))
    assert kinds.count(EventKind.COMMAND_START) == ended
    span_kinds = [kind for _name, kind, *_rest in spans]
    assert kinds.count(EventKind.TRY_ATTEMPT) == span_kinds.count("attempt")
    assert kinds.count(EventKind.TRY_BACKOFF) == span_kinds.count("backoff")
    assert (outcome[0] == "ok") == (events[-1][2] == "success")

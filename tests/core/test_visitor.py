"""Generic AST traversal: iter_children and walk."""

from repro.core import ast_nodes as ast
from repro.core.parser import parse
from repro.core.visitor import iter_children, walk

SOURCE = (
    "x=1\n"
    "try for 60 seconds\n"
    "    forany h in a b\n"
    "        wget ${h}\n"
    "    end\n"
    "catch\n"
    "    echo failed\n"
    "end\n"
    "if ${x} .eq. 1\n"
    "    success\n"
    "else\n"
    "    failure\n"
    "end\n"
)


def node_types(script):
    return [type(n).__name__ for n, _ in walk(script)]


class TestIterChildren:
    def test_group_yields_statements_in_order(self):
        script = parse(SOURCE, "<test>")
        kids = list(iter_children(script.body))
        assert [type(k).__name__ for k in kids] == [
            "Assignment", "Try", "If",
        ]

    def test_try_yields_body_then_catch(self):
        script = parse(SOURCE, "<test>")
        try_node = script.body.body[1]
        kids = list(iter_children(try_node))
        assert kids == [try_node.body, try_node.catch]

    def test_leaves_yield_nothing(self):
        script = parse("echo hi\n", "<test>")
        command = script.body.body[0]
        assert list(iter_children(command)) == []


class TestWalk:
    def test_preorder_and_completeness(self):
        script = parse(SOURCE, "<test>")
        names = node_types(script)
        assert names[0] == "Script"
        assert names[1] == "Group"
        for expected in ("Assignment", "Try", "ForAny", "Command",
                         "If", "SuccessAtom", "FailureAtom"):
            assert expected in names

    def test_parents_outermost_first(self):
        script = parse(SOURCE, "<test>")
        wget = next(
            (n, p) for n, p in walk(script)
            if isinstance(n, ast.Command) and n.words[0].parts[0].text == "wget"
        )
        parent_types = [type(p).__name__ for p in wget[1]]
        assert parent_types == [
            "Script", "Group", "Try", "Group", "ForAny", "Group",
        ]

    def test_root_has_no_parents(self):
        script = parse("echo hi\n", "<test>")
        (root, parents), *_ = walk(script)
        assert root is script and parents == ()


"""Generic traversal over the frozen ftsh AST.

The tree in :mod:`repro.core.ast_nodes` is a small closed set of
immutable dataclasses; this module gives every consumer (the linter,
analysis passes, future optimizers) one canonical way to walk it instead
of each growing its own ``isinstance`` ladder.

Two entry points:

* :func:`iter_children` — the direct child *nodes* of one node
  (statement-bearing structure only; words and expressions are leaves
  from the walker's point of view and are inspected by the consumer);
* :func:`walk` — pre-order traversal yielding ``(node, parents)`` pairs,
  where ``parents`` is the tuple of enclosing nodes outermost-first.
"""

from __future__ import annotations

from typing import Iterator, Union

from . import ast_nodes as ast

#: Any node the walker can visit.
Node = Union[
    ast.Script,
    ast.Group,
    ast.Command,
    ast.Assignment,
    ast.FailureAtom,
    ast.SuccessAtom,
    ast.FunctionDef,
    ast.Try,
    ast.ForAny,
    ast.ForAll,
    ast.If,
]


def iter_children(node: Node) -> Iterator[Node]:
    """Yield the direct child nodes of ``node`` in source order."""
    if isinstance(node, ast.Script):
        yield node.body
    elif isinstance(node, ast.Group):
        yield from node.body
    elif isinstance(node, ast.Try):
        yield node.body
        if node.catch is not None:
            yield node.catch
    elif isinstance(node, (ast.ForAny, ast.ForAll, ast.FunctionDef)):
        yield node.body
    elif isinstance(node, ast.If):
        yield node.then
        if node.orelse is not None:
            yield node.orelse
    # Command / Assignment / FailureAtom / SuccessAtom are leaves.


def walk(node: Node, parents: tuple[Node, ...] = ()) -> Iterator[tuple[Node, tuple[Node, ...]]]:
    """Pre-order traversal of the subtree rooted at ``node``.

    Yields ``(node, parents)`` where ``parents`` lists the enclosing
    nodes outermost-first (so ``parents[-1]`` is the immediate parent).
    """
    yield node, parents
    child_parents = parents + (node,)
    for child in iter_children(node):
        yield from walk(child, child_parents)


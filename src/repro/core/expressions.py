"""Evaluation of ``if`` conditions.

Comparators come in two families (following the ftsh technical report):

* numeric — ``.lt. .gt. .le. .ge. .eq. .ne.`` — operands must parse as
  numbers; a non-numeric operand makes the *statement fail* (retryable by
  an enclosing ``try``), it is not a hard error;
* string — ``.eql. .neql.`` — exact text comparison.

A bare operand is truthy when it expands non-empty and is neither ``0``
nor ``false`` (case-insensitive).
"""

from __future__ import annotations

import operator
from typing import Callable

from .ast_nodes import BoolOp, Comparison, Defined, Expr, Not, Truth
from .errors import FtshFailure
from .variables import Scope

_NUMERIC: dict[str, Callable[[float, float], bool]] = {
    ".lt.": operator.lt,
    ".gt.": operator.gt,
    ".le.": operator.le,
    ".ge.": operator.ge,
    ".eq.": operator.eq,
    ".ne.": operator.ne,
}

_STRING: dict[str, Callable[[str, str], bool]] = {
    ".eql.": operator.eq,
    ".neql.": operator.ne,
}


def _to_number(text: str, op: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FtshFailure(f"non-numeric operand {text!r} for {op}") from None


def truthy(text: str) -> bool:
    """ftsh truth of a bare word."""
    return bool(text) and text.lower() not in ("0", "false")


def evaluate(expr: Expr, scope: Scope) -> bool:
    """Evaluate a parsed condition against ``scope``.

    Raises :class:`FtshFailure` on non-numeric operands or undefined
    variables (via expansion) — condition evaluation failure is statement
    failure.
    """
    if isinstance(expr, Comparison):
        lhs = expr.lhs.expand(scope)
        rhs = expr.rhs.expand(scope)
        if expr.op in _NUMERIC:
            return _NUMERIC[expr.op](_to_number(lhs, expr.op), _to_number(rhs, expr.op))
        return _STRING[expr.op](lhs, rhs)
    if isinstance(expr, Truth):
        return truthy(expr.operand.expand(scope))
    if isinstance(expr, Not):
        return not evaluate(expr.operand, scope)
    if isinstance(expr, Defined):
        return expr.name in scope
    if isinstance(expr, BoolOp):
        # ftsh conditions are tiny; both sides always evaluate, keeping
        # failure behaviour (undefined vars, bad numbers) order-independent.
        lhs = evaluate(expr.lhs, scope)
        rhs = evaluate(expr.rhs, scope)
        return (lhs or rhs) if expr.op == ".or." else (lhs and rhs)
    raise TypeError(f"unknown expression node: {expr!r}")  # pragma: no cover

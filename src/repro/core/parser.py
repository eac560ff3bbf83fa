"""Recursive-descent parser: tokens -> :mod:`repro.core.ast_nodes`.

Grammar (statement keywords are contextual — only recognized in statement
position, so ``echo try`` still echoes the word "try"):

::

    script    := stmts EOF
    stmts     := (NEWLINE | stmt NEWLINE)*
    stmt      := try | forany | forall | if | 'failure' | 'success'
               | assignment | command
    try       := 'try' limits NL stmts ('catch' NL stmts)? 'end'
    limits    := 'forever'
               | clause (('or')? clause)*
    clause    := 'for' NUMBER UNIT | NUMBER 'times' | 'every' NUMBER UNIT
    forany    := 'forany' NAME 'in' word+ NL stmts 'end'
    forall    := 'forall' NAME 'in' word+ NL stmts 'end'
    if        := 'if' expr NL stmts ('else' NL stmts)? 'end'
    expr      := orexpr
    orexpr    := andexpr ('.or.' andexpr)*
    andexpr   := notexpr ('.and.' notexpr)*
    notexpr   := '.not.' notexpr | primary
    primary   := '(' expr ')' | word (CMP word)?
    command   := (word | redirect word)+
    assignment:= WORD starting with 'name='   (single word statement)
"""

from __future__ import annotations

from functools import lru_cache

from .ast_nodes import (
    Assignment,
    BoolOp,
    Command,
    Comparison,
    Defined,
    Expr,
    FunctionDef,
    FailureAtom,
    ForAll,
    ForAny,
    Group,
    If,
    Not,
    NUMERIC_OPS,
    Redirect,
    Script,
    Statement,
    STRING_OPS,
    SuccessAtom,
    Truth,
    Try,
    TryLimits,
)
from .errors import FtshSyntaxError
from .lexer import tokenize
from .tokens import Literal, Token, TokenKind, Word, is_identifier
from .units import duration_seconds, is_time_unit

#: Words that terminate an open block.
_BLOCK_ENDERS = frozenset({"end", "catch", "else"})

#: Statement-initial keywords.
_STATEMENT_KEYWORDS = frozenset(
    {"try", "forany", "forall", "if", "failure", "success", "end", "catch",
     "else", "function"}
)

_COMPARATORS = frozenset(NUMERIC_OPS) | frozenset(STRING_OPS)


class Parser:
    def __init__(self, tokens: list[Token], source_name: str = "<script>") -> None:
        self.tokens = tokens
        self.index = 0
        self.source_name = source_name

    # -- token access ----------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> FtshSyntaxError:
        token = token or self._peek()
        return FtshSyntaxError(message, token.line, token.column)

    def _skip_newlines(self) -> None:
        while self._peek().kind is TokenKind.NEWLINE:
            self._advance()

    def _expect_newline(self, context: str) -> None:
        token = self._peek()
        if token.kind is TokenKind.NEWLINE:
            self._advance()
        elif token.kind is not TokenKind.EOF:
            raise self._error(f"expected end of line after {context}, got {token}")

    def _expect_word(self, context: str) -> Word:
        token = self._peek()
        if token.kind is not TokenKind.WORD:
            raise self._error(f"expected a word in {context}, got {token}")
        self._advance()
        return token.word

    def _peek_keyword(self) -> str | None:
        token = self._peek()
        if token.kind is TokenKind.WORD:
            return token.word.keyword()
        return None

    # -- entry -------------------------------------------------------------
    def parse_script(self) -> Script:
        body = self._parse_statements(stop=frozenset())
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            kw = self._peek_keyword()
            if kw in _BLOCK_ENDERS:
                raise self._error(f"{kw!r} with no open block")
            raise self._error(f"unexpected {token}")  # pragma: no cover - defensive
        return Script(body, self.source_name)

    # -- statements --------------------------------------------------------
    def _parse_statements(self, stop: frozenset[str]) -> Group:
        """Parse statements until EOF or a statement-initial word in ``stop``."""
        first = self._peek()
        statements: list[Statement] = []
        while True:
            self._skip_newlines()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                break
            keyword = self._peek_keyword()
            if keyword in stop:
                break
            if keyword in _BLOCK_ENDERS and keyword not in stop:
                # e.g. 'else' inside a forany body, or stray 'end'.
                break
            statements.append(self._parse_statement())
        return Group(tuple(statements), line=first.line, column=first.column)

    def _parse_statement(self) -> Statement:
        keyword = self._peek_keyword()
        if keyword == "try":
            return self._parse_try()
        if keyword in ("forany", "forall"):
            return self._parse_forloop(keyword)
        if keyword == "if":
            return self._parse_if()
        if keyword == "function":
            return self._parse_function()
        if keyword == "failure":
            token = self._advance()
            self._expect_newline("'failure'")
            return FailureAtom(line=token.line, column=token.column)
        if keyword == "success":
            token = self._advance()
            self._expect_newline("'success'")
            return SuccessAtom(line=token.line, column=token.column)
        assignment = self._try_parse_assignment()
        if assignment is not None:
            return assignment
        return self._parse_command()

    def _try_parse_assignment(self) -> Assignment | None:
        """Recognize ``name=value`` when it is the whole statement."""
        token = self._peek()
        if token.kind is not TokenKind.WORD:
            return None
        word = token.word
        first = word.parts[0]
        if not isinstance(first, Literal) or first.quoted or "=" not in first.text:
            return None
        name, _, rest = first.text.partition("=")
        if not is_identifier(name):
            return None
        self._advance()
        after = self._peek()
        if after.kind is TokenKind.WORD:
            raise self._error(
                "assignment takes a single word; quote values with spaces", after
            )
        self._expect_newline("assignment")
        value_parts = []
        if rest:
            value_parts.append(Literal(rest, first.quoted))
        value_parts.extend(word.parts[1:])
        value = Word(tuple(value_parts), word.line, word.column)
        return Assignment(name, value, line=token.line, column=token.column)

    def _parse_command(self) -> Command:
        token = self._peek()
        words: list[Word] = []
        redirects: list[Redirect] = []
        while True:
            current = self._peek()
            if current.kind is TokenKind.WORD:
                words.append(self._advance().word)
            elif current.kind is TokenKind.REDIRECT:
                op_token = self._advance()
                target = self._expect_word(f"target of {op_token.op!r}")
                if op_token.op.startswith("-"):
                    name = target.literal_text()
                    if name is None or not is_identifier(name):
                        raise self._error(
                            f"variable redirection {op_token.op!r} needs a plain "
                            f"variable name, got {target}",
                            op_token,
                        )
                redirects.append(Redirect(op_token.op, target))
            else:
                break
        if not words:
            raise self._error("redirection with no command", token)
        self._expect_newline("command")
        return Command(tuple(words), tuple(redirects), line=token.line,
                       column=token.column)

    # -- try ----------------------------------------------------------------
    def _parse_try(self) -> Try:
        try_token = self._advance()
        limits = self._parse_try_limits(try_token)
        self._expect_newline("'try' header")
        body = self._parse_statements(stop=frozenset({"catch", "end"}))
        catch: Group | None = None
        if self._peek_keyword() == "catch":
            self._advance()
            self._expect_newline("'catch'")
            catch = self._parse_statements(stop=frozenset({"end"}))
        self._expect_block_end("try", try_token)
        return Try(limits, body, catch, line=try_token.line,
                   column=try_token.column)

    def _parse_try_limits(self, try_token: Token) -> TryLimits:
        duration: float | None = None
        attempts: int | None = None
        every: float | None = None
        duration_unit: str | None = None
        saw_clause = False
        if self._peek_keyword() == "forever":
            self._advance()
            saw_clause = True
        while self._peek().kind is TokenKind.WORD:
            keyword = self._peek_keyword()
            if keyword == "or" and saw_clause:
                self._advance()
                keyword = self._peek_keyword()
            if keyword == "for":
                if duration is not None:
                    raise self._error("duplicate 'for' clause in try")
                self._advance()
                duration, duration_unit = self._parse_duration("try for")
            elif keyword == "every":
                if every is not None:
                    raise self._error("duplicate 'every' clause in try")
                self._advance()
                every, _unit = self._parse_duration("try every")
            else:
                # expect: NUMBER times
                count = self._parse_count_clause()
                if count is None:
                    raise self._error(
                        "expected 'for <time>', '<n> times', 'every <time>' "
                        "or 'forever' in try header"
                    )
                if attempts is not None:
                    raise self._error("duplicate 'times' clause in try")
                attempts = count
            saw_clause = True
        if not saw_clause:
            raise self._error(
                "try needs a limit: 'for <time>', '<n> times' or 'forever'", try_token
            )
        return TryLimits(duration=duration, attempts=attempts, every=every,
                         duration_unit=duration_unit)

    def _parse_duration(self, context: str) -> tuple[float, str]:
        """Parse ``NUMBER UNIT``; returns (seconds, unit-as-written)."""
        number_word = self._expect_word(context)
        text = number_word.literal_text()
        try:
            amount = float(text) if text is not None else None
        except ValueError:
            amount = None
        if amount is None:
            raise self._error(f"expected a number after {context!r}, got {number_word}")
        unit_word = self._expect_word(context)
        unit = unit_word.literal_text() or ""
        if not is_time_unit(unit):
            raise self._error(f"expected a time unit in {context!r}, got {unit_word}")
        return duration_seconds(amount, unit), unit

    def _parse_count_clause(self) -> int | None:
        token = self._peek()
        if token.kind is not TokenKind.WORD:
            return None
        text = token.word.literal_text()
        if text is None or not text.isdigit():
            return None
        self._advance()
        times = self._expect_word("'<n> times'")
        if times.keyword() not in ("times", "time"):
            raise self._error(f"expected 'times' after {text}, got {times}", token)
        count = int(text)
        if count < 1:
            raise self._error(f"try attempt count must be >= 1, got {count}", token)
        return count

    def _parse_function(self) -> FunctionDef:
        head = self._advance()
        name_word = self._expect_word("'function'")
        name = name_word.literal_text()
        if name is None or not is_identifier(name):
            raise self._error(f"function needs a plain name, got {name_word}", head)
        self._expect_newline("'function' header")
        body = self._parse_statements(stop=frozenset({"end"}))
        self._expect_block_end("function", head)
        return FunctionDef(name, body, line=head.line, column=head.column)

    # -- forany / forall ------------------------------------------------------
    def _parse_forloop(self, keyword: str) -> ForAny | ForAll:
        head = self._advance()
        var_word = self._expect_word(f"'{keyword}' variable")
        var = var_word.literal_text()
        if var is None or not is_identifier(var):
            raise self._error(f"{keyword} needs a variable name, got {var_word}", head)
        in_word = self._expect_word(f"'{keyword} {var}'")
        if in_word.keyword() != "in":
            raise self._error(f"expected 'in' after {keyword} {var}, got {in_word}")
        values: list[Word] = []
        while self._peek().kind is TokenKind.WORD:
            values.append(self._advance().word)
        if not values:
            raise self._error(f"{keyword} needs at least one alternative", head)
        self._expect_newline(f"'{keyword}' header")
        body = self._parse_statements(stop=frozenset({"end"}))
        self._expect_block_end(keyword, head)
        node = ForAny if keyword == "forany" else ForAll
        return node(var, tuple(values), body, line=head.line, column=head.column)

    # -- if ---------------------------------------------------------------------
    def _parse_if(self) -> If:
        head = self._advance()
        condition = self._parse_expr(head)
        self._expect_newline("'if' condition")
        then = self._parse_statements(stop=frozenset({"else", "end"}))
        orelse: Group | None = None
        if self._peek_keyword() == "else":
            self._advance()
            self._expect_newline("'else'")
            orelse = self._parse_statements(stop=frozenset({"end"}))
        self._expect_block_end("if", head)
        return If(condition, then, orelse, line=head.line, column=head.column)

    def _parse_expr(self, head: Token) -> Expr:
        expr = self._parse_or(head)
        token = self._peek()
        if token.kind is TokenKind.WORD:
            raise self._error(f"unexpected {token} in condition")
        return expr

    def _parse_or(self, head: Token) -> Expr:
        expr = self._parse_and(head)
        while self._peek_keyword() == ".or.":
            self._advance()
            expr = BoolOp(".or.", expr, self._parse_and(head))
        return expr

    def _parse_and(self, head: Token) -> Expr:
        expr = self._parse_not(head)
        while self._peek_keyword() == ".and.":
            self._advance()
            expr = BoolOp(".and.", expr, self._parse_not(head))
        return expr

    def _parse_not(self, head: Token) -> Expr:
        if self._peek_keyword() == ".not.":
            self._advance()
            return Not(self._parse_not(head))
        if self._peek_keyword() == ".defined.":
            self._advance()
            name_word = self._expect_word("'.defined.'")
            name = name_word.literal_text()
            valid = name is not None and (
                is_identifier(name) or name.isdigit() or name == "#"
            )
            if not valid:
                raise self._error(
                    f".defined. needs a plain variable name, got {name_word}"
                )
            return Defined(name)
        return self._parse_primary(head)

    def _parse_primary(self, head: Token) -> Expr:
        token = self._peek()
        if token.kind is not TokenKind.WORD:
            raise self._error("condition ended unexpectedly", head)
        if token.word.keyword() == "(":
            self._advance()
            inner = self._parse_or(head)
            close = self._peek()
            if close.kind is not TokenKind.WORD or close.word.keyword() != ")":
                raise self._error("missing ')' in condition", token)
            self._advance()
            return inner
        lhs = self._advance().word
        op_keyword = self._peek_keyword()
        if op_keyword in _COMPARATORS:
            self._advance()
            rhs = self._expect_word(f"right side of {op_keyword}")
            return Comparison(op_keyword, lhs, rhs)
        return Truth(lhs)

    # -- helpers -------------------------------------------------------------
    def _expect_block_end(self, construct: str, head: Token) -> None:
        if self._peek_keyword() != "end":
            raise self._error(
                f"missing 'end' for {construct!r} starting at line {head.line}"
            )
        self._advance()
        token = self._peek()
        if token.kind is TokenKind.NEWLINE:
            self._advance()
        elif token.kind is not TokenKind.EOF:
            raise self._error(f"expected end of line after 'end', got {token}")


def parse(text: str, source_name: str = "<script>") -> Script:
    """Parse ftsh source text into a :class:`Script`."""
    return Parser(tokenize(text), source_name).parse_script()


@lru_cache(maxsize=512)
def parse_cached(text: str, source_name: str = "<script>") -> Script:
    """Parse with memoization, returning a *shared* immutable Script.

    Scenario campaigns re-run the same script text once per client per
    replicate (hundreds of times per cell); the AST is a tree of frozen
    dataclasses and the interpreter never mutates it (asserted by
    ``tests/core/test_parse_cache.py``'s pretty-print canary), so one
    parse per distinct ``(text, source_name)`` pair suffices.
    ``source_name`` is part of the key because it is baked into the
    Script for diagnostics.  Syntax errors are not cached — ``lru_cache``
    only memoizes successful returns, so a failing parse re-raises with
    its original diagnostics every time.
    """
    return parse(text, source_name)

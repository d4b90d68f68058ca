"""Precedence-climbing SQL parser for the embedded columnar engine.

Grammar (informal)::

    statement   := select | with_select | create_table | create_table_as
                 | insert | delete | drop | explain statement
    select      := SELECT [DISTINCT] items FROM source join* [WHERE expr]
                   [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT n [OFFSET m]]
    expr        := one loop over the binding-power table below
                   (OR < AND < NOT < comparison < | < & < shifts
                    < additive < multiplicative < || < unary)

Statements are parsed top-down, one method each; expressions are one
precedence-climbing loop, so a leaf costs one frame instead of one per
precedence level.  The bitwise-below-comparison order is what the
translation layer's generated expressions (masks inside comparisons) rely
on.  SQL the engine leaves out is rejected by name (:meth:`Parser._not_supported`);
the words of the frame grammar (``OVER``, ``ROWS``, ``PARTITION``, ...) are
plain identifiers, as in SQLite.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import SQLParseError
from .ast_nodes import (
    BinaryOp,
    CaseExpression,
    ColumnDefinition,
    ColumnRef,
    CommonTableExpression,
    CreateTable,
    CreateTableAs,
    Delete,
    DropTable,
    Explain,
    Expression,
    FunctionCall,
    InList,
    Insert,
    IsNull,
    Join,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    Statement,
    TableSource,
    UnaryOp,
    WithSelect,
)
from .tokenizer import END, IDENTIFIER, KEYWORD, NUMBER, OPERATOR, PUNCT, STRING, scan

#: Binding power of prefix NOT (its operand extends over comparisons) and of
#: the prefix ``-`` / ``+`` / ``~`` (tighter than every infix operator).
_NOT_POWER = 3
_UNARY_POWER = 11


class Parser:
    """Parses SQL statements from a token stream.

    The stream ends in an ``END`` sentinel that nothing consumes, so
    ``tokens[index]`` needs no bounds check.
    """

    def __init__(self, tokens: Sequence[tuple[str, str, int]], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._index = 0

    # ------------------------------------------------------------- utilities

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._tokens[self._index]
        return token[0] == kind and (text is None or token[1] == text)

    def _accept(self, kind: str, text: str | None = None) -> bool:
        token = self._tokens[self._index]
        if token[0] == kind and (text is None or token[1] == text):
            self._index += 1
            return True
        return False

    def _expect(self, kind: str, text: str | None = None) -> str:
        """Consume a token of the given kind (and text); returns its text."""
        token = self._tokens[self._index]
        if token[0] != kind or (text is not None and token[1] != text):
            raise SQLParseError(
                f"expected {text or kind!r} but found {token[1]!r} at offset {token[2]} in: {self._sql[:120]}..."
            )
        self._index += 1
        return token[1]

    def _unexpected(self) -> SQLParseError:
        _, text, position = self._tokens[self._index]
        return SQLParseError(f"unexpected token {text!r} at offset {position}")

    def _word_before(self, word: str, kind: str, text: str | None = None) -> bool:
        """At the unreserved word ``word``, followed by a token of ``kind`` (and ``text``)."""
        current = self._tokens[self._index]
        if current[0] != IDENTIFIER or current[1].lower() != word:
            return False
        # Not the END sentinel, so a following token exists.
        following = self._tokens[self._index + 1]
        return following[0] == kind and (text is None or following[1] == text)

    def _not_supported(self, feature: str) -> SQLParseError:
        return SQLParseError(
            f"{feature}: not supported by the embedded engine "
            f"(offset {self._tokens[self._index][2]})"
        )

    def _comma_separated(self, parse_one):
        """``item [, item ...]`` as a tuple."""
        items = [parse_one()]
        while self._accept(PUNCT, ","):
            items.append(parse_one())
        return tuple(items)

    def _column_list(self) -> tuple[str, ...]:
        """An optional ``(name, ...)``."""
        if not self._accept(PUNCT, "("):
            return ()
        names = self._comma_separated(lambda: self._expect(IDENTIFIER))
        self._expect(PUNCT, ")")
        return names

    def _alias(self) -> str | None:
        """``[AS] name`` after a select item or table."""
        if self._accept(KEYWORD, "as"):
            return self._expect(IDENTIFIER)
        if self._check(IDENTIFIER):
            return self._expect(IDENTIFIER)
        return None

    # ------------------------------------------------------------ statements

    def parse_script(self) -> list[Statement]:
        """Every ``;``-separated statement up to the end of the stream (at least one)."""
        statements: list[Statement] = []
        while not self._check(END):
            statements.append(self.parse_statement())
            if not self._check(END) and not self._check(PUNCT, ";"):
                raise self._unexpected()
            while self._accept(PUNCT, ";"):
                pass
        if not statements:
            raise SQLParseError("empty SQL statement")
        return statements

    def parse_statement(self) -> Statement:
        """Parse a single statement (semicolons are handled by the caller)."""
        kind, text, _ = self._tokens[self._index]
        parse = _STATEMENTS.get(text) if kind == KEYWORD else None
        if parse is None:
            raise SQLParseError(f"unsupported statement starting with {text!r}")
        return parse(self)

    def _parse_explain(self) -> Explain:
        self._expect(KEYWORD, "explain")
        analyze = self._accept(KEYWORD, "analyze")
        start = self._tokens[self._index][2]
        statement = self.parse_statement()
        if isinstance(statement, Explain):
            raise SQLParseError("EXPLAIN cannot wrap EXPLAIN statements")
        end = self._tokens[self._index][2]
        inner_sql = self._sql[start:end].strip().rstrip(";").strip()
        return Explain(statement, analyze=analyze, inner_sql=inner_sql)

    def _parse_with_select(self) -> WithSelect:
        self._expect(KEYWORD, "with")
        if self._word_before("recursive", IDENTIFIER):
            raise self._not_supported("WITH RECURSIVE")
        ctes = self._comma_separated(self._parse_cte)
        return WithSelect(ctes, self._parse_select())

    def _parse_cte(self) -> CommonTableExpression:
        name = self._expect(IDENTIFIER)
        columns = self._column_list()
        self._expect(KEYWORD, "as")
        self._expect(PUNCT, "(")
        query = self._parse_select()
        if self._check(KEYWORD, "union"):
            raise self._not_supported("UNION in a CTE body")
        self._expect(PUNCT, ")")
        return CommonTableExpression(name, query, columns)

    def _parse_select(self) -> Select:
        self._expect(KEYWORD, "select")
        distinct = self._accept(KEYWORD, "distinct")
        items = self._comma_separated(self._parse_select_item)

        source: TableSource | None = None
        joins: list[Join] = []
        if self._accept(KEYWORD, "from"):
            source = self._parse_table_source()
            while True:
                if self._accept(KEYWORD, "join"):
                    kind = "inner"
                elif self._check(KEYWORD, "inner") and self._tokens[self._index + 1][:2] == (KEYWORD, "join"):
                    self._index += 2
                    kind = "inner"
                elif self._accept(KEYWORD, "left"):
                    self._expect(KEYWORD, "join")
                    kind = "left"
                else:
                    break
                join_source = self._parse_table_source()
                self._expect(KEYWORD, "on")
                joins.append(Join(join_source, self._parse_expression(), kind))

        where = self._parse_expression() if self._accept(KEYWORD, "where") else None
        group_by: tuple[Expression, ...] = ()
        if self._accept(KEYWORD, "group"):
            self._expect(KEYWORD, "by")
            group_by = self._comma_separated(self._parse_expression)
        having = self._parse_expression() if self._accept(KEYWORD, "having") else None
        order_by = self._parse_order_by()
        limit = None
        offset = None
        if self._accept(KEYWORD, "limit"):
            limit = self._parse_signed_int()
            if self._accept(KEYWORD, "offset"):
                offset = self._parse_signed_int()
        return Select(
            items=items,
            source=source,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_signed_int(self) -> int:
        """An optionally signed integer literal (LIMIT / OFFSET operands).

        Integral floats (``2.0``) are accepted, non-integral ones rejected —
        SQLite's "datatype mismatch" rule for LIMIT/OFFSET.
        """
        sign = 1
        while self._check(OPERATOR, "-") or self._check(OPERATOR, "+"):
            if self._expect(OPERATOR) == "-":
                sign = -sign
        text = self._expect(NUMBER)
        value = float(text)
        if not value.is_integer():
            raise SQLParseError(
                f"LIMIT/OFFSET requires an integer, got {text!r} (datatype mismatch)"
            )
        return sign * int(value)

    def _parse_select_item(self) -> SelectItem:
        if self._accept(OPERATOR, "*"):
            return SelectItem(Star())
        tokens, index = self._tokens, self._index
        if (  # table.* projection
            tokens[index][0] == IDENTIFIER
            and tokens[index + 1][:2] == (PUNCT, ".")
            and tokens[index + 2][:2] == (OPERATOR, "*")
        ):
            self._index = index + 3
            return SelectItem(Star(table=tokens[index][1]))
        expression = self._parse_expression()
        return SelectItem(expression, self._alias())

    def _parse_order_by(self) -> tuple[OrderItem, ...]:
        if not self._accept(KEYWORD, "order"):
            return ()
        self._expect(KEYWORD, "by")
        return self._comma_separated(self._parse_order_item)

    def _parse_order_item(self) -> OrderItem:
        expression = self._parse_expression()
        descending = self._accept(KEYWORD, "desc")
        if not descending:
            self._accept(KEYWORD, "asc")
        return OrderItem(expression, descending)

    def _parse_table_source(self) -> TableSource:
        return TableSource(self._expect(IDENTIFIER), self._alias())

    def _parse_create(self) -> Statement:
        self._expect(KEYWORD, "create")
        temporary = self._accept(KEYWORD, "temp") or self._accept(KEYWORD, "temporary")
        self._expect(KEYWORD, "table")
        name = self._expect(IDENTIFIER)
        if self._accept(KEYWORD, "as"):
            if self._check(KEYWORD, "with"):
                return CreateTableAs(name, self._parse_with_select(), temporary)
            return CreateTableAs(name, self._parse_select(), temporary)
        self._expect(PUNCT, "(")
        columns = self._comma_separated(self._parse_column_definition)
        self._expect(PUNCT, ")")
        return CreateTable(name, columns, temporary)

    def _parse_column_definition(self) -> ColumnDefinition:
        name = self._expect(IDENTIFIER)
        type_name = self._expect(IDENTIFIER)
        not_null = False
        while True:
            if self._accept(KEYWORD, "not"):
                self._expect(KEYWORD, "null")
                not_null = True
            elif self._accept(KEYWORD, "primary"):
                self._expect(KEYWORD, "key")
            else:
                return ColumnDefinition(name, type_name.upper(), not_null)

    def _parse_insert(self) -> Insert:
        self._expect(KEYWORD, "insert")
        self._expect(KEYWORD, "into")
        table = self._expect(IDENTIFIER)
        columns = self._column_list()
        self._expect(KEYWORD, "values")
        return Insert(table, columns, self._comma_separated(self._parse_parenthesized_list))

    def _parse_parenthesized_list(self) -> tuple[Expression, ...]:
        self._expect(PUNCT, "(")
        values = self._comma_separated(self._parse_expression)
        self._expect(PUNCT, ")")
        return values

    def _parse_delete(self) -> Delete:
        self._expect(KEYWORD, "delete")
        self._expect(KEYWORD, "from")
        table = self._expect(IDENTIFIER)
        return Delete(table, self._parse_expression() if self._accept(KEYWORD, "where") else None)

    def _parse_drop(self) -> DropTable:
        self._expect(KEYWORD, "drop")
        self._expect(KEYWORD, "table")
        if_exists = self._accept(KEYWORD, "if")
        if if_exists:
            self._expect(KEYWORD, "exists")
        return DropTable(self._expect(IDENTIFIER), if_exists)

    # ----------------------------------------------------------- expressions

    def _parse_expression(self, min_power: int = 0) -> Expression:
        """Precedence climbing: a prefix or primary, then every infix
        operator binding at least as tightly as ``min_power``."""
        tokens = self._tokens
        kind, text, _ = tokens[self._index]
        if kind == OPERATOR and text in ("-", "+", "~"):
            self._index += 1
            left: Expression = UnaryOp(text, self._parse_expression(_UNARY_POWER))
        elif kind == KEYWORD and text == "not" and min_power <= _NOT_POWER:
            self._index += 1
            left = UnaryOp("not", self._parse_expression(_NOT_POWER))
        else:
            left = self._parse_primary()
        while True:
            kind, text, _ = tokens[self._index]
            if kind != OPERATOR and kind != KEYWORD:
                return left
            power, build = _INFIX.get(text, _NOT_INFIX)
            if power < min_power:
                return left
            if build.__class__ is str:
                self._index += 1
                left = BinaryOp(build, left, self._parse_expression(power + 1))
            else:
                extended = build(self, left)
                if extended is None:
                    return left
                left = extended

    def _parse_is_null(self, operand: Expression) -> IsNull:
        self._expect(KEYWORD, "is")
        negated = self._accept(KEYWORD, "not")
        self._expect(KEYWORD, "null")
        return IsNull(operand, negated)

    def _parse_in_list(self, operand: Expression, negated: bool = False) -> InList:
        self._expect(KEYWORD, "in")
        return InList(operand, self._parse_parenthesized_list(), negated)

    def _parse_not_in(self, operand: Expression) -> InList | None:
        """``NOT IN (...)``; an infix NOT followed by anything else ends the expression."""
        if self._tokens[self._index + 1][:2] != (KEYWORD, "in"):
            return None
        self._index += 1
        return self._parse_in_list(operand, negated=True)

    def _parse_primary(self) -> Expression:
        tokens, index = self._tokens, self._index
        kind, text, _ = tokens[index]
        if kind == IDENTIFIER:
            following = tokens[index + 1]
            if following[0] == PUNCT:
                if following[1] == ".":
                    self._index = index + 2
                    return ColumnRef(self._expect(IDENTIFIER), text)
                if following[1] == "(":
                    return self._parse_call()
            self._index = index + 1
            return ColumnRef(text)
        if kind == NUMBER:
            self._index = index + 1
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if kind == PUNCT and text == "(":
            self._index = index + 1
            expression = self._parse_expression()
            self._expect(PUNCT, ")")
            return expression
        if kind == STRING:
            self._index = index + 1
            return Literal(text)
        if kind == KEYWORD and text == "null":
            self._index = index + 1
            return Literal(None)
        if kind == KEYWORD and text == "case":
            return self._parse_case()
        raise self._unexpected()

    def _parse_call(self) -> FunctionCall:
        """``name([DISTINCT] args | *)``."""
        name = self._expect(IDENTIFIER).lower()
        self._expect(PUNCT, "(")
        distinct = self._accept(KEYWORD, "distinct")
        is_star = self._accept(OPERATOR, "*")
        arguments: tuple[Expression, ...] = ()
        if not is_star and not self._check(PUNCT, ")"):
            arguments = self._comma_separated(self._parse_expression)
        self._expect(PUNCT, ")")
        if self._word_before("over", PUNCT, "("):
            raise self._not_supported("window functions (OVER)")
        return FunctionCall(name, arguments, is_star=is_star, distinct=distinct)

    def _parse_case(self) -> CaseExpression:
        self._expect(KEYWORD, "case")
        conditions: list[Expression] = []
        results: list[Expression] = []
        while self._accept(KEYWORD, "when"):
            conditions.append(self._parse_expression())
            self._expect(KEYWORD, "then")
            results.append(self._parse_expression())
        default = self._parse_expression() if self._accept(KEYWORD, "else") else None
        self._expect(KEYWORD, "end")
        if not conditions:
            raise SQLParseError("CASE expression needs at least one WHEN branch")
        return CaseExpression(tuple(conditions), tuple(results), default)


def _binary(power: int, *operators: str) -> dict:
    return {operator: (power, operator) for operator in operators}


#: Infix token text -> (binding power, node builder), loosest first.  A
#: ``str`` builder is the operator of a left-associative :class:`BinaryOp`
#: whose right operand binds one step tighter; a method builds one of the
#: postfix forms.  ``||`` sits above ``*`` as in SQLite; SQLite's one
#: shared level for ``& | << >>`` is three levels here (see ARCHITECTURE.md).
_INFIX = {
    **_binary(1, "or"),
    **_binary(2, "and"),
    **_binary(4, "=", "<", ">", "<=", ">=", "!="),
    "<>": (4, "!="),
    "is": (4, Parser._parse_is_null),
    "in": (4, Parser._parse_in_list),
    "not": (4, Parser._parse_not_in),
    **_binary(5, "|"),
    **_binary(6, "&"),
    **_binary(7, "<<", ">>"),
    **_binary(8, "+", "-"),
    **_binary(9, "*", "/", "%"),
    **_binary(10, "||"),
}
_NOT_INFIX = (-1, "")

#: Leading keyword -> statement parser.
_STATEMENTS = {
    "explain": Parser._parse_explain,
    "with": Parser._parse_with_select,
    "select": Parser._parse_select,
    "create": Parser._parse_create,
    "insert": Parser._parse_insert,
    "delete": Parser._parse_delete,
    "drop": Parser._parse_drop,
}


def parse_sql(sql: str) -> list[Statement]:
    """Parse a SQL script (one or more ;-separated statements)."""
    return Parser(scan(sql), sql).parse_script()


def parse_one(sql: str) -> Statement:
    """Parse exactly one statement, raising if the script contains several."""
    statements = parse_sql(sql)
    if len(statements) != 1:
        raise SQLParseError(f"expected one statement, found {len(statements)}")
    return statements[0]

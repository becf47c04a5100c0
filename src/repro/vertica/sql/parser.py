"""Recursive-descent SQL parser.

``parse_statement`` turns one SQL string into an AST node from
:mod:`repro.vertica.sql.ast_nodes`, stamped with the canonical key and
leading keyword of the token list it was read from (``lexer.lex``: one
lexing per statement text, shared with whoever looked the key up first).
Expression parsing follows standard SQL precedence: OR < AND < NOT <
comparison/IS/IN/BETWEEN/LIKE < additive < multiplicative < unary <
primary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.vertica.errors import SqlError
from repro.vertica.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.sql.lexer import Lexed, Token, lex
from repro.vertica.types import parse_type

_RESERVED_STOPWORDS = {
    "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "AS",
    "AND", "OR", "NOT", "IS", "IN", "BETWEEN", "LIKE", "VALUES", "SET",
    "USING", "AT", "ASC", "DESC", "BY", "HAVING", "UNION",
}
#: the token kinds a keyword or an operator can have (``check`` matches
#: only these: a string literal spelled ``'AND'`` is not the keyword)
_WORD_KINDS = ("IDENT", "OP")
_NEGATABLE = ("IN", "BETWEEN", "LIKE")
#: what can follow a predicate's left operand
_PREDICATE_WORDS = frozenset(
    ("IS", "NOT", "=", "<>", "!=", "<=", ">=", "<", ">") + _NEGATABLE
)
_ADDITIVE = frozenset(("+", "-", "||"))
_MULTIPLICATIVE = frozenset(("*", "/", "%"))
#: the keywords that are literals on their own
_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


class _Parser:
    def __init__(self, sql: str, lexed: Optional[Lexed] = None):
        self.sql = sql
        tokens, self.cache_key = lexed or lex(sql)
        # one more EOF, so looking one token past the end needs no bound
        self.tokens = tokens + tokens[-1:]
        self.pos = 0

    # -- token helpers -------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def check(self, text: str, offset: int = 0) -> bool:
        token = self.tokens[self.pos + offset]
        return token.text == text and token.kind in _WORD_KINDS

    def accept(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.text == text and token.kind in _WORD_KINDS:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            token = self.peek()
            raise SqlError(
                f"expected {text!r} but found {token.raw or 'end of input'!r} "
                f"at offset {token.pos} in: {self.sql!r}"
            )
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "IDENT":
            raise SqlError(
                f"expected identifier, found {token.raw!r} at offset {token.pos}"
            )
        self.advance()
        return token.text

    def qualified_name(self) -> str:
        parts = [self.expect_ident()]
        while self.check("."):
            self.advance()
            parts.append(self.expect_ident())
        return ".".join(parts)

    def end(self) -> None:
        self.accept(";")
        token = self.peek()
        if token.kind != "EOF":
            raise SqlError(
                f"unexpected trailing input {token.raw!r} at offset {token.pos}"
            )

    # -- statements ------------------------------------------------------------
    def statement(self):
        token = self.peek()
        if token.kind != "IDENT":
            raise SqlError(f"cannot parse statement: {self.sql!r}")
        keyword = token.text
        handler = {
            "CREATE": self._create,
            "DROP": self._drop,
            "TRUNCATE": self._truncate,
            "ALTER": self._alter,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "SELECT": self._select,
            "AT": self._select,
            "EXPLAIN": self._explain,
            "PROFILE": self._profile,
            "ANALYZE": self._analyze,
            "COPY": self._copy,
            "BEGIN": self._begin,
            "START": self._begin,
            "COMMIT": self._commit,
            "ROLLBACK": self._rollback,
            "ABORT": self._rollback,
            "SET": self._set,
        }.get(keyword)
        if handler is None:
            raise SqlError(f"unsupported statement {keyword!r}")
        node = handler()
        self.end()
        node.cache_key = self.cache_key
        node.keyword = keyword
        return node

    def _create(self):
        self.expect("CREATE")
        or_replace = False
        if self.accept("OR"):
            self.expect("REPLACE")
            or_replace = True
        if self.accept("VIEW"):
            view = self.qualified_name()
            self.expect("AS")
            query = self._select()
            return ast.CreateView(view, query, or_replace=or_replace)
        self.expect("TABLE")
        if_not_exists = False
        if self.accept("IF"):
            self.expect("NOT")
            self.expect("EXISTS")
            if_not_exists = True
        table = self.qualified_name()
        self.expect("(")
        columns = []
        while True:
            name = self.expect_ident()
            type_text = self.expect_ident()
            if self.check("("):
                self.advance()
                length = self.advance().text
                self.expect(")")
                type_text = f"{type_text}({length})"
            elif type_text == "DOUBLE" and self.check("PRECISION"):
                self.advance()
            columns.append(ast.ColumnDef(name, parse_type(type_text)))
            if not self.accept(","):
                break
        self.expect(")")
        segmented_by: Optional[List[str]] = None
        unsegmented = False
        if self.accept("SEGMENTED"):
            self.expect("BY")
            self.expect("HASH")
            self.expect("(")
            segmented_by = [self.expect_ident()]
            while self.accept(","):
                segmented_by.append(self.expect_ident())
            self.expect(")")
            if self.accept("ALL"):
                self.expect("NODES")
        elif self.accept("UNSEGMENTED"):
            unsegmented = True
            if self.accept("ALL"):
                self.expect("NODES")
        return ast.CreateTable(
            table,
            columns,
            segmented_by=segmented_by,
            unsegmented=unsegmented,
            if_not_exists=if_not_exists,
        )

    def _drop(self):
        self.expect("DROP")
        is_view = False
        if self.accept("VIEW"):
            is_view = True
        else:
            self.expect("TABLE")
        if_exists = False
        if self.accept("IF"):
            self.expect("EXISTS")
            if_exists = True
        name = self.qualified_name()
        if is_view:
            return ast.DropView(name, if_exists=if_exists)
        return ast.DropTable(name, if_exists=if_exists)

    def _truncate(self):
        self.expect("TRUNCATE")
        self.expect("TABLE")
        return ast.TruncateTable(self.qualified_name())

    def _alter(self):
        self.expect("ALTER")
        self.expect("TABLE")
        table = self.qualified_name()
        self.expect("RENAME")
        self.expect("TO")
        return ast.RenameTable(table, self.qualified_name())

    def _insert(self):
        self.expect("INSERT")
        self.expect("INTO")
        table = self.qualified_name()
        columns: Optional[List[str]] = None
        if self.check("(") and self._looks_like_column_list():
            self.advance()
            columns = [self.expect_ident()]
            while self.accept(","):
                columns.append(self.expect_ident())
            self.expect(")")
        if self.accept("VALUES"):
            rows = [self._value_tuple()]
            while self.accept(","):
                rows.append(self._value_tuple())
            return ast.InsertValues(table, columns, rows)
        if self.check("SELECT") or self.check("AT"):
            return ast.InsertSelect(table, columns, self._select())
        raise SqlError("INSERT requires VALUES or SELECT")

    def _looks_like_column_list(self) -> bool:
        # Distinguish `INSERT INTO t (a, b) VALUES ...` from
        # `INSERT INTO t (SELECT ...)`.
        return self.peek(1).kind == "IDENT" and self.peek(1).text != "SELECT"

    def _value_tuple(self) -> List[Expression]:
        self.expect("(")
        values = [self._value()]
        while self.accept(","):
            values.append(self._value())
        self.expect(")")
        return values

    def _value(self) -> Expression:
        """One VALUES item.  A lone literal token before ``,`` or ``)`` is
        its :class:`Literal` at once — what the expression ladder would
        return for it, nine calls down; anything else climbs the ladder."""
        token = self.tokens[self.pos]
        if self.tokens[self.pos + 1].text in (",", ")"):
            kind = token.kind
            if kind == "NUMBER":
                self.pos += 1
                return Literal(_number(token))
            if kind == "STRING":
                self.pos += 1
                return Literal(token.text)
            if kind == "IDENT" and token.text in _KEYWORD_LITERALS:
                self.pos += 1
                return Literal(_KEYWORD_LITERALS[token.text])
        return self.expression()

    def _update(self):
        self.expect("UPDATE")
        table = self.qualified_name()
        self.expect("SET")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self.expect_ident()
            self.expect("=")
            assignments.append((column, self.expression()))
            if not self.accept(","):
                break
        where = self.expression() if self.accept("WHERE") else None
        return ast.Update(table, assignments, where=where)

    def _delete(self):
        self.expect("DELETE")
        self.expect("FROM")
        table = self.qualified_name()
        where = self.expression() if self.accept("WHERE") else None
        return ast.Delete(table, where=where)

    def _explain(self):
        return ast.Explain(self._wrapped_select("EXPLAIN"))

    def _profile(self):
        return ast.Profile(self._wrapped_select("PROFILE"))

    def _wrapped_select(self, keyword: str) -> ast.Select:
        """The query under EXPLAIN / PROFILE, keyed as its plain spelling
        (the statement's key minus its first token) so both forms share
        one plan- and result-cache entry."""
        self.expect(keyword)
        query = self._select()
        query.cache_key = self.cache_key[len(keyword) + 1:]
        return query

    def _analyze(self):
        # ANALYZE <table> [WITH <n> BUCKETS]
        self.expect("ANALYZE")
        self.accept("STATISTICS")
        table = self.qualified_name()
        buckets: Optional[int] = None
        if self.accept("WITH"):
            token = self.peek()
            if token.kind != "NUMBER":
                raise SqlError(
                    f"expected a bucket count after WITH, found {token.raw!r} "
                    f"at offset {token.pos}"
                )
            self.advance()
            buckets = int(_number(token))
            self.expect("BUCKETS")
        return ast.Analyze(table, buckets)

    def _select(self) -> ast.Select:
        at_epoch: Optional[int] = None
        if self.accept("AT"):
            self.expect("EPOCH")
            token = self.peek()
            if token.kind == "NUMBER":
                at_epoch = _integer(self.advance())
            elif self.accept("LATEST"):
                at_epoch = None
            else:
                raise SqlError("AT EPOCH requires a number or LATEST")
        self.expect("SELECT")
        items = [self._select_item()]
        while self.accept(","):
            items.append(self._select_item())
        source = None
        joins: List[ast.Join] = []
        if self.accept("FROM"):
            source = self._table_ref()
            while self.check("JOIN") or self.check("INNER"):
                self.accept("INNER")
                self.expect("JOIN")
                table = self._table_ref()
                self.expect("ON")
                condition = self.expression()
                joins.append(ast.Join(table, condition))
        where = self.expression() if self.accept("WHERE") else None
        group_by: List[Expression] = []
        having: Optional[Expression] = None
        if self.accept("GROUP"):
            self.expect("BY")
            group_by.append(self.expression())
            while self.accept(","):
                group_by.append(self.expression())
            if self.accept("HAVING"):
                having = self.expression()
        order_by: List[ast.OrderItem] = []
        if self.accept("ORDER"):
            self.expect("BY")
            while True:
                expression = self.expression()
                descending = False
                if self.accept("DESC"):
                    descending = True
                else:
                    self.accept("ASC")
                order_by.append(ast.OrderItem(expression, descending))
                if not self.accept(","):
                    break
        limit: Optional[int] = None
        if self.accept("LIMIT"):
            token = self.peek()
            if token.kind != "NUMBER":
                raise SqlError("LIMIT requires a number")
            limit = _integer(self.advance())
        return ast.Select(
            items,
            source,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            at_epoch=at_epoch,
        )

    def _table_ref(self) -> ast.TableRef:
        name = self.qualified_name()
        alias = ""
        if self.accept("AS"):
            alias = self.expect_ident()
        elif (self.peek().kind == "IDENT"
              and self.peek().text not in _RESERVED_STOPWORDS):
            alias = self.expect_ident()
        return ast.TableRef(name, alias)

    def _select_item(self) -> ast.SelectItem:
        if self.check("*"):
            self.advance()
            return ast.SelectItem(star=True)
        token = self.peek()
        # Aggregate / UDF / builtin-function head?
        if token.kind == "IDENT" and self.check("(", offset=1):
            name = token.text
            if name in ast.AGGREGATE_NAMES:
                return self._aggregate_item(name)
            item = self._maybe_function_item(name)
            if item is not None:
                return self._with_alias(item)
        expression = self.expression()
        return self._with_alias(ast.SelectItem(expression=expression))

    def _with_alias(self, item: ast.SelectItem) -> ast.SelectItem:
        if self.accept("AS"):
            item.alias = self.expect_ident()
        elif (
            self.peek().kind == "IDENT"
            and self.peek().text not in _RESERVED_STOPWORDS
        ):
            item.alias = self.expect_ident()
        return item

    def _aggregate_item(self, name: str) -> ast.SelectItem:
        self.advance()  # function name
        self.expect("(")
        distinct = bool(self.accept("DISTINCT"))
        if self.check("*"):
            self.advance()
            self.expect(")")
            if name != "COUNT":
                raise SqlError(f"{name}(*) is not valid")
            return self._with_alias(
                ast.SelectItem(aggregate=name, aggregate_arg=None, distinct=distinct)
            )
        argument = self.expression()
        self.expect(")")
        return self._with_alias(
            ast.SelectItem(aggregate=name, aggregate_arg=argument, distinct=distinct)
        )

    def _maybe_function_item(self, name: str) -> Optional[ast.SelectItem]:
        """Parse ``name(args [USING PARAMETERS k=v, ...])``.

        Builtins without parameters fall through to plain expression
        parsing (returns None after rewinding); anything else becomes a
        UDF select item resolved against the registry at execution time.
        """
        start = self.pos
        self.advance()  # name
        self.expect("(")
        args: List[Expression] = []
        parameters: Dict[str, Any] = {}
        if not self.check(")"):
            while True:
                if self.check("USING"):
                    break
                args.append(self.expression())
                if not self.accept(","):
                    break
        if self.accept("USING"):
            self.expect("PARAMETERS")
            while True:
                key = self.expect_ident().lower()
                self.expect("=")
                parameters[key] = self._literal_value()
                if not self.accept(","):
                    break
        self.expect(")")
        try:
            FunctionCall(name, args)
            is_builtin = True
        except SqlError:
            is_builtin = False
        if is_builtin and not parameters:
            self.pos = start  # let the expression parser handle it
            return None
        return ast.SelectItem(udf=name, udf_args=args, parameters=parameters)

    def _literal_value(self) -> Any:
        expression = self.expression()
        if not isinstance(expression, Literal):
            raise SqlError("USING PARAMETERS values must be literals")
        return expression.value

    def _copy(self):
        self.expect("COPY")
        table = self.qualified_name()
        self.expect("FROM")
        source = "STDIN"
        if not self.accept("STDIN"):
            token = self.peek()
            if token.kind != "STRING":
                raise SqlError("COPY source must be STDIN or a file path string")
            source = self.advance().text
        file_format = "CSV"
        delimiter = ","
        reject_max: Optional[int] = None
        direct = False
        while self.peek().kind == "IDENT":
            if self.accept("WITH"):
                continue
            if self.accept("FORMAT"):
                file_format = self.expect_ident()
                if file_format not in ("CSV", "AVRO", "COLUMNAR"):
                    raise SqlError(f"unsupported COPY format {file_format!r}")
                continue
            if self.accept("DELIMITER"):
                token = self.peek()
                if token.kind != "STRING" or len(token.text) != 1:
                    raise SqlError("DELIMITER requires a one-character string")
                delimiter = self.advance().text
                continue
            if self.accept("REJECTMAX"):
                token = self.peek()
                if token.kind != "NUMBER":
                    raise SqlError("REJECTMAX requires a number")
                reject_max = _integer(self.advance())
                continue
            if self.accept("DIRECT"):
                direct = True
                continue
            raise SqlError(f"unexpected COPY option {self.peek().raw!r}")
        return ast.CopyStatement(
            table,
            source=source,
            file_format=file_format,
            delimiter=delimiter,
            reject_max=reject_max,
            direct=direct,
        )

    def _begin(self):
        self.advance()
        if not self.accept("TRANSACTION"):
            self.accept("WORK")
        return ast.BeginTransaction()

    def _commit(self):
        self.expect("COMMIT")
        if not self.accept("TRANSACTION"):
            self.accept("WORK")
        return ast.CommitTransaction()

    def _rollback(self):
        self.advance()
        if not self.accept("TRANSACTION"):
            self.accept("WORK")
        return ast.RollbackTransaction()

    def _set(self):
        # SET <option> [=|TO] <value>   (e.g. SET RESOURCE_POOL = 'batch')
        self.expect("SET")
        self.accept("SESSION")
        name = self.expect_ident()
        if not self.accept("="):
            self.accept("TO")
        token = self.peek()
        if token.kind == "STRING":
            self.advance()
            value: Any = token.text
        elif token.kind == "NUMBER":
            self.advance()
            value = token.text
        elif token.kind == "IDENT":
            value = self.expect_ident()
        else:
            raise SqlError(
                f"expected a value after SET {name}, found {token.raw!r} "
                f"at offset {token.pos}"
            )
        return ast.SetOption(name, value)

    # -- expressions ---------------------------------------------------------------
    def expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self.accept("OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self.accept("AND"):
            left = BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self.accept("NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            word = token.text
            if word not in _PREDICATE_WORDS or token.kind not in _WORD_KINDS:
                return left
            negated = False
            if word == "NOT":
                if tokens[self.pos + 1].text not in _NEGATABLE:
                    return left
                self.pos += 1
                token = tokens[self.pos]
                word = token.text
                if token.kind not in _WORD_KINDS:  # NOT 'IN': NOT is spent
                    return left
                negated = True
            self.pos += 1
            if word == "IS":
                negated = bool(self.accept("NOT"))
                self.expect("NULL")
                left = IsNull(left, negated=negated)
            elif word == "IN":
                self.expect("(")
                options = [self.expression()]
                while self.accept(","):
                    options.append(self.expression())
                self.expect(")")
                left = InList(left, options, negated=negated)
            elif word == "BETWEEN":
                low = self._additive()
                self.expect("AND")
                high = self._additive()
                between = Between(left, low, high)
                left = UnaryOp("NOT", between) if negated else between
            elif word == "LIKE":
                token = self.peek()
                if token.kind != "STRING":
                    raise SqlError("LIKE requires a string pattern")
                self.advance()
                left = Like(left, token.text, negated=negated)
            else:
                left = BinaryOp(word, left, self._additive())

    def _additive(self) -> Expression:
        left = self._multiplicative()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.text not in _ADDITIVE or token.kind not in _WORD_KINDS:
                return left
            self.pos += 1
            left = BinaryOp(token.text, left, self._multiplicative())

    def _multiplicative(self) -> Expression:
        left = self._unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.text not in _MULTIPLICATIVE or token.kind not in _WORD_KINDS:
                return left
            self.pos += 1
            left = BinaryOp(token.text, left, self._unary())

    def _unary(self) -> Expression:
        if self.check("-") or self.check("+"):
            op = self.advance().text
            return UnaryOp(op, self._unary())
        return self._primary()

    def _primary(self) -> Expression:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return Literal(_number(token))
        if token.kind == "STRING":
            self.advance()
            return Literal(token.text)
        if token.kind == "IDENT":
            keyword = token.text
            if keyword in _RESERVED_STOPWORDS:
                raise SqlError(
                    f"unexpected keyword {token.raw!r} at offset {token.pos}"
                )
            if keyword in _KEYWORD_LITERALS:
                self.advance()
                return Literal(_KEYWORD_LITERALS[keyword])
            # Function call?
            if self.check("(", offset=1):
                self.advance()
                self.advance()
                args: List[Expression] = []
                if not self.check(")"):
                    args.append(self.expression())
                    while self.accept(","):
                        args.append(self.expression())
                self.expect(")")
                return FunctionCall(keyword, args)
            return ColumnRef(self.qualified_name())
        if self.accept("("):
            inner = self.expression()
            self.expect(")")
            return inner
        raise SqlError(
            f"unexpected token {token.raw or 'end of input'!r} at offset {token.pos}"
        )


def _number(token: Token) -> Union[int, float]:
    """A NUMBER token's value — a float if it has a point or an exponent —
    or the :class:`SqlError` that names it (``1e``, ``1.5E-``, ``²``)."""
    text = token.text
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        raise SqlError(
            f"malformed number {token.raw!r} at offset {token.pos}"
        ) from None


def _integer(token: Token) -> int:
    """A NUMBER token that must be an integer (LIMIT, AT EPOCH, REJECTMAX)."""
    value = _number(token)
    if isinstance(value, float):
        raise SqlError(
            f"expected an integer, found {token.raw!r} at offset {token.pos}"
        )
    return value


def parse_statement(sql: str, lexed: Optional[Lexed] = None):
    """Parse one SQL statement into its AST node.

    ``lexed`` is ``lexer.lex(sql)`` when the caller already holds it (the
    parse cache does, having looked its key up); the text is lexed here
    otherwise, and never twice.
    """
    return _Parser(sql, lexed).statement()


def parse_expression(sql: str) -> Expression:
    """Parse a standalone expression (used by tests and pushdown checks)."""
    parser = _Parser(sql)
    expression = parser.expression()
    parser.end()
    return expression

"""Unit tests for the SQL lexer and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica.errors import SqlError
from repro.vertica.sql import ast, parse_statement, tokenize
from repro.vertica.sql.parser import _Parser, parse_expression


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("SELECT a, 1.5 FROM t")]
        assert kinds == ["IDENT", "IDENT", "OP", "NUMBER", "IDENT", "IDENT", "EOF"]

    def test_identifiers_uppercased_raw_preserved(self):
        token = tokenize("MyTable")[0]
        assert token.text == "MYTABLE"
        assert token.raw == "MyTable"

    def test_string_with_escape(self):
        token = tokenize("'it''s'")[0]
        assert token.kind == "STRING"
        assert token.text == "it's"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing\n + /* inline */ 2")
        assert [t.text for t in tokens if t.kind != "EOF"] == ["SELECT", "1", "+", "2"]

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_unterminated_comment(self):
        with pytest.raises(SqlError):
            tokenize("/* oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("SELECT @")

    def test_two_char_operators(self):
        texts = [t.text for t in tokenize("a <> b <= c >= d != e || f")]
        assert "<>" in texts and "<=" in texts and ">=" in texts
        assert "!=" in texts and "||" in texts

    def test_scientific_number(self):
        token = tokenize("1.5e-3")[0]
        assert token.kind == "NUMBER"
        assert token.text == "1.5e-3"


class TestCreateTable:
    def test_columns_and_segmentation(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INTEGER, b FLOAT, c VARCHAR(20)) "
            "SEGMENTED BY HASH(a, b) ALL NODES"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert [c.name for c in stmt.columns] == ["A", "B", "C"]
        assert stmt.segmented_by == ["A", "B"]
        assert not stmt.unsegmented

    def test_unsegmented(self):
        stmt = parse_statement("CREATE TABLE t (a INT) UNSEGMENTED ALL NODES")
        assert stmt.unsegmented

    def test_if_not_exists(self):
        stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert stmt.if_not_exists

    def test_double_precision(self):
        stmt = parse_statement("CREATE TABLE t (a DOUBLE PRECISION)")
        assert repr(stmt.columns[0].sql_type) == "FLOAT"

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
        assert isinstance(stmt, ast.CreateView)
        assert stmt.view == "V"
        assert stmt.query.where is not None

    def test_create_or_replace_view(self):
        stmt = parse_statement("CREATE OR REPLACE VIEW v AS SELECT 1")
        assert stmt.or_replace


class TestDdlMisc:
    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.if_exists

    def test_drop_view(self):
        assert isinstance(parse_statement("DROP VIEW v"), ast.DropView)

    def test_rename(self):
        stmt = parse_statement("ALTER TABLE a RENAME TO b")
        assert (stmt.table, stmt.new_name) == ("A", "B")

    def test_truncate(self):
        assert parse_statement("TRUNCATE TABLE t").table == "T"


class TestDml:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
        assert isinstance(stmt, ast.InsertValues)
        assert stmt.columns == ["A", "B"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT * FROM s WHERE a > 0")
        assert isinstance(stmt, ast.InsertSelect)

    def test_update(self):
        stmt = parse_statement("UPDATE t SET done = TRUE WHERE id = 3 AND done = FALSE")
        assert isinstance(stmt, ast.Update)
        assert stmt.assignments[0][0] == "DONE"
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a IS NULL")
        assert isinstance(stmt, ast.Delete)

    def test_insert_requires_values_or_select(self):
        with pytest.raises(SqlError):
            parse_statement("INSERT INTO t")


class TestSelect:
    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.items[0].star
        assert stmt.source.name == "T"

    def test_where_order_limit(self):
        stmt = parse_statement(
            "SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a DESC, b LIMIT 10"
        )
        assert stmt.items[1].alias == "BEE"
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending
        assert stmt.limit == 10

    def test_aggregates(self):
        stmt = parse_statement("SELECT COUNT(*), SUM(a), AVG(b), MIN(a), MAX(a) FROM t")
        assert stmt.items[0].aggregate == "COUNT"
        assert stmt.items[0].aggregate_arg is None
        assert stmt.items[1].aggregate == "SUM"

    def test_count_distinct(self):
        stmt = parse_statement("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].distinct

    def test_group_by(self):
        stmt = parse_statement("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert len(stmt.group_by) == 1

    def test_join(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.id = b.id WHERE a.x > 0"
        )
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table.name == "B"

    def test_table_alias(self):
        stmt = parse_statement("SELECT t.a FROM mytable t")
        assert stmt.source.alias == "T"

    def test_at_epoch_prefix(self):
        stmt = parse_statement("AT EPOCH 7 SELECT * FROM t")
        assert stmt.at_epoch == 7

    def test_at_epoch_latest(self):
        stmt = parse_statement("AT EPOCH LATEST SELECT * FROM t")
        assert stmt.at_epoch is None

    def test_system_table_name(self):
        stmt = parse_statement("SELECT node_name FROM v_catalog.nodes")
        assert stmt.source.name == "V_CATALOG.NODES"

    def test_select_without_from(self):
        stmt = parse_statement("SELECT 1 + 1")
        assert stmt.source is None

    def test_udf_with_parameters(self):
        stmt = parse_statement(
            "SELECT PMMLPredict(a, b USING PARAMETERS model_name='m') FROM t"
        )
        item = stmt.items[0]
        assert item.udf == "PMMLPREDICT"
        assert len(item.udf_args) == 2
        assert item.parameters == {"model_name": "m"}

    def test_builtin_function_is_expression(self):
        stmt = parse_statement("SELECT HASH(a) FROM t")
        assert stmt.items[0].udf == ""
        assert stmt.items[0].expression is not None

    def test_hash_range_query_shape(self):
        # The exact query V2S formulates per task.
        stmt = parse_statement(
            "SELECT * FROM t WHERE HASH(a, b) >= 10 AND HASH(a, b) < 20"
        )
        assert stmt.where is not None

    def test_count_star_with_alias(self):
        stmt = parse_statement("SELECT COUNT(*) AS n FROM t")
        assert stmt.items[0].alias == "N"


class TestCopy:
    def test_defaults(self):
        stmt = parse_statement("COPY t FROM STDIN")
        assert stmt.file_format == "CSV"
        assert stmt.reject_max is None

    def test_options(self):
        stmt = parse_statement(
            "COPY t FROM STDIN FORMAT AVRO REJECTMAX 50 DIRECT"
        )
        assert stmt.file_format == "AVRO"
        assert stmt.reject_max == 50
        assert stmt.direct

    def test_delimiter(self):
        stmt = parse_statement("COPY t FROM STDIN DELIMITER '|'")
        assert stmt.delimiter == "|"

    def test_file_source(self):
        stmt = parse_statement("COPY t FROM '/data/part1.csv'")
        assert stmt.source == "/data/part1.csv"

    def test_bad_format(self):
        with pytest.raises(SqlError):
            parse_statement("COPY t FROM STDIN FORMAT PARQUET")


class TestTransactions:
    def test_begin_commit_rollback(self):
        assert isinstance(parse_statement("BEGIN"), ast.BeginTransaction)
        assert isinstance(parse_statement("START TRANSACTION"), ast.BeginTransaction)
        assert isinstance(parse_statement("COMMIT"), ast.CommitTransaction)
        assert isinstance(parse_statement("ROLLBACK"), ast.RollbackTransaction)
        assert isinstance(parse_statement("ABORT"), ast.RollbackTransaction)


class TestErrors:
    @pytest.mark.parametrize("sql", [
        "SELEC 1",
        "SELECT FROM t",
        "CREATE TABLE t",
        "UPDATE t",
        "1 + 1",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t LIMIT x",
        "SELECT * FROM t garbage garbage",
    ])
    def test_rejected(self, sql):
        with pytest.raises(SqlError):
            parse_statement(sql)

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT 1;")

    def test_expression_parser_rejects_trailing(self):
        with pytest.raises(SqlError):
            parse_expression("1 + 1 extra extra")


class TestErrorMessages:
    """Every message the lexer and parser raise, pinned with its offset —
    the offset where the offending token *starts*, whatever its kind."""

    @pytest.mark.parametrize("sql,message", [
        # one per token kind
        ("SELECT FROM t", "unexpected keyword 'FROM' at offset 7"),
        ("SELECT a b c FROM t", "unexpected trailing input 'c' at offset 11"),
        ('SELECT 1 AS x "y"', "unexpected trailing input 'y' at offset 14"),
        ("SELECT 1 x ß", "unexpected trailing input 'ß' at offset 11"),
        ("SELECT 1 2", "unexpected trailing input '2' at offset 9"),
        ("SELECT 'a' 'b'", "unexpected trailing input 'b' at offset 11"),
        ("SELECT * FROM t )", "unexpected trailing input ')' at offset 16"),
        ("SELECT * FROM t WHERE", "unexpected token 'end of input' at offset 21"),
        # one per raising site in the parser
        ("CREATE TABLE t", "expected '(' but found 'end of input' at offset 14 "
                           "in: 'CREATE TABLE t'"),
        ("CREATE TABLE t (1 INT)", "expected identifier, found '1' at offset 16"),
        ("SELECT 1 FROM t garbage garbage",
         "unexpected trailing input 'garbage' at offset 24"),
        ("1 + 1", "cannot parse statement: '1 + 1'"),
        ("SELEC 1", "unsupported statement 'SELEC'"),
        ("INSERT INTO t", "INSERT requires VALUES or SELECT"),
        ("ANALYZE t WITH x BUCKETS",
         "expected a bucket count after WITH, found 'x' at offset 15"),
        ("AT EPOCH x SELECT 1", "AT EPOCH requires a number or LATEST"),
        ("AT EPOCH 2.5 SELECT 1", "expected an integer, found '2.5' at offset 9"),
        ("SELECT * FROM t LIMIT x", "LIMIT requires a number"),
        ("SELECT * FROM t LIMIT 1.5",
         "expected an integer, found '1.5' at offset 22"),
        ("SELECT SUM(*) FROM t", "SUM(*) is not valid"),
        ("SELECT f(a USING PARAMETERS k = a) FROM t",
         "USING PARAMETERS values must be literals"),
        ("COPY t FROM 5", "COPY source must be STDIN or a file path string"),
        ("COPY t FROM STDIN FORMAT PARQUET", "unsupported COPY format 'PARQUET'"),
        ("COPY t FROM STDIN DELIMITER 'ab'",
         "DELIMITER requires a one-character string"),
        ("COPY t FROM STDIN REJECTMAX x", "REJECTMAX requires a number"),
        ("COPY t FROM STDIN REJECTMAX 1.5",
         "expected an integer, found '1.5' at offset 28"),
        ("COPY t FROM STDIN NOPE", "unexpected COPY option 'NOPE'"),
        ("SET x = (", "expected a value after SET X, found '(' at offset 8"),
        ("SELECT a LIKE b FROM t", "LIKE requires a string pattern"),
        ("SELECT 1e", "malformed number '1e' at offset 7"),
        # and every lexer error
        ("SELECT @", "unexpected character '@' at offset 7"),
        ("SELECT ½", "unexpected character '½' at offset 7"),
        ("SELECT 'oops", "unterminated string literal starting at offset 7"),
        ("SELECT 'a''", "unterminated string literal starting at offset 7"),
        ("SELECT /* oops */ 1 /* oops", "unterminated comment at offset 20"),
        ('SELECT "oops', "unterminated quoted identifier at offset 7"),
    ])
    def test_message(self, sql, message):
        with pytest.raises(SqlError) as raised:
            parse_statement(sql)
        assert str(raised.value) == message

    def test_every_token_records_where_it_starts(self):
        sql = "SELECT \"q\", 'it''s', 1.5e3, ß, x1 -- c\n<= /* c */ ;"
        assert [(t.kind, t.pos) for t in tokenize(sql)] == [
            ("IDENT", 0), ("IDENT", 7), ("OP", 10), ("STRING", 12), ("OP", 19),
            ("NUMBER", 21), ("OP", 26), ("IDENT", 28), ("OP", 29), ("IDENT", 31),
            ("OP", 39), ("OP", 50), ("EOF", 51),
        ]


class TestMalformedNumbers:
    """A number the lexer accepts but no value has (``1e``) is a
    :class:`SqlError` naming it, never a bare ``ValueError``."""

    @pytest.mark.parametrize("sql,literal,offset", [
        ("SELECT 1e", "1e", 7),
        ("SELECT 1e+", "1e+", 7),
        ("SELECT 1.5E-", "1.5E-", 7),
        ("SELECT ²", "²", 7),
        ("SELECT a FROM t WHERE a > 2E", "2E", 26),
        ("ANALYZE t WITH 1e BUCKETS", "1e", 15),
    ])
    def test_direct(self, sql, literal, offset):
        with pytest.raises(SqlError) as raised:
            parse_statement(sql)
        assert str(raised.value) == f"malformed number {literal!r} at offset {offset}"

    @pytest.mark.parametrize("value,literal", [
        ("1e", "1e"), ("1.5E-", "1.5E-"), ("²", "²"),  # the literal fast path
        ("-1e", "1e"), ("(1e)", "1e"), ("1e + 1", "1e"),  # the expression ladder
    ])
    def test_inside_values(self, value, literal):
        sql = f"INSERT INTO t VALUES (1, 'a'), (2, {value})"
        offset = sql.index(literal, sql.index("(2"))
        with pytest.raises(SqlError) as raised:
            parse_statement(sql)
        assert str(raised.value) == f"malformed number {literal!r} at offset {offset}"

    def test_well_formed_numbers_keep_their_values(self):
        stmt = parse_statement(
            "INSERT INTO t VALUES (1, 1., .5, 1e3, 1.5E-3, ٣, 12345678901234567890)"
        )
        values = [literal.value for literal in stmt.rows[0]]
        assert values == [1, 1.0, 0.5, 1000.0, 0.0015, 3, 12345678901234567890]
        assert [type(v) for v in values] == [int, float, float, float, float, int, int]


class _Ladder(_Parser):
    """The parser with every VALUES item taking the expression ladder."""

    def _value(self):
        return self.expression()


#: VALUES items: literals the fast path takes, expressions it must leave to
#: the ladder (``-1``, ``(3)``, a column, ``"null"`` — a quoted identifier
#: spelled like the keyword), and items that do not parse at all
VALUE_ITEMS = [
    "0", "7", "12345678901234567890", "1.", ".5", "1e3", "1.5E-3", "''",
    "'it''s'", "'a, b)'", "NULL", "TRUE", "FALSE", "null", '"null"', "-1",
    "+1", "1 + 2", "2 * 3", "(3)", "a", "t.a", "ABS(-1)", "'x' || 'y'",
    "NOT TRUE", "1 = 1", "NULL IS NULL",
]
BAD_ITEMS = ["1e", "1.5E-", "²", "", "1 2", "*", "FROM", "'a' 'b'", "NOT"]


def _shape(expression):
    return type(expression).__name__, expression.sql()


def _parsed_rows(parse, sql):
    try:
        return [[_shape(value) for value in row] for row in parse(sql).rows]
    except SqlError as error:
        return type(error), str(error)


class TestValuesFastPath:
    """A lone literal in a VALUES row is its Literal at once; everything
    else, and every error, is what the expression ladder makes of it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(VALUE_ITEMS + BAD_ITEMS), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    def test_rows_are_the_ladders(self, rows):
        sql = "INSERT INTO t VALUES " + ", ".join(
            "(" + ", ".join(row) + ")" for row in rows
        )
        fast = _parsed_rows(parse_statement, sql)
        assert fast == _parsed_rows(lambda text: _Ladder(text).statement(), sql)
        if isinstance(fast, list):
            assert fast == [
                [_shape(parse_expression(item)) for item in row] for row in rows
            ]

    def test_a_multi_row_insert_lands_as_the_ladders(self):
        from repro.vertica import VerticaDatabase
        from repro.vertica.engine import COST_COUNTERS
        from tests.reference_interpreter import LegacyInterpreter

        sql = (
            "INSERT INTO t (id, v, s, b) VALUES "
            "(1, 1.5, 'it''s', TRUE), (2, .5, '', FALSE), (3, 1e3, NULL, NULL), "
            "(-4, -1., 'x' || 'y', NOT TRUE), ((5), ABS(-2.5), 'z', 1 = 1), "
            "(9007199254740993, 1.5E-3, 'a, b)', null)"
        )
        outcomes = []
        for parse in (parse_statement, lambda text: _Ladder(text).statement()):
            db = VerticaDatabase(num_nodes=3)
            session = db.connect()
            session.execute(
                "CREATE TABLE t (id INTEGER, v FLOAT, s VARCHAR(20), b BOOLEAN) "
                "SEGMENTED BY HASH(id) ALL NODES"
            )
            inserted = session.execute(parse(sql))
            read = LegacyInterpreter(db).select(
                parse_statement("SELECT * FROM t ORDER BY id"),
                db.begin(), db.node_names[0],
            )
            fields = [name for pair in COST_COUNTERS for name in pair]
            outcomes.append((
                inserted.rowcount, read.rows,
                [getattr(inserted.cost, name) for name in fields],
                [getattr(read.cost, name) for name in fields],
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == [
            (-4, -1.0, "xy", False), (1, 1.5, "it's", True), (2, 0.5, "", False),
            (3, 1000.0, None, None), (5, 2.5, "z", True),
            (9007199254740993, 0.0015, "a, b)", None),
        ]

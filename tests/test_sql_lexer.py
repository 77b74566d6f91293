"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.query.sql.lexer import TokenKind, tokenize


def kinds(sql):
    return [token.kind for token in tokenize(sql)]


def texts(sql):
    return [token.text for token in tokenize(sql)[:-1]]  # drop EOF


class TestBasics:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where and")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE", "AND"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifier_preserves_case(self):
        (token, _) = tokenize("Owner")
        assert token.kind is TokenKind.IDENT
        assert token.text == "Owner"

    def test_eof_token(self):
        assert tokenize("")[-1].kind is TokenKind.EOF

    def test_punctuation(self):
        assert texts("( ) , . *") == ["(", ")", ",", ".", "*"]


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">=", "<>"])
    def test_operator(self, op):
        (token, _) = tokenize(op)
        assert token.kind is TokenKind.OPERATOR
        assert token.text == op

    def test_bang_equals_normalized(self):
        (token, _) = tokenize("!=")
        assert token.text == "<>"


class TestLiterals:
    def test_string(self):
        (token, _) = tokenize("'hello'")
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_string_with_escaped_quote(self):
        (token, _) = tokenize("'it''s'")
        assert token.value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("'oops")

    def test_integer(self):
        (token, _) = tokenize("42")
        assert token.kind is TokenKind.NUMBER
        assert token.value == 42
        assert isinstance(token.value, int)

    def test_float(self):
        (token, _) = tokenize("3.5")
        assert token.value == 3.5
        assert isinstance(token.value, float)

    def test_negative_number(self):
        (token, _) = tokenize("-7")
        assert token.value == -7

    def test_number_then_dot_ident(self):
        tokens = tokenize("a.b")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENT,
            TokenKind.DOT,
            TokenKind.IDENT,
        ]


class TestErrors:
    def test_illegal_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT @")

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as info:
            tokenize("ab @")
        assert info.value.position == 3


class TestPositions:
    """Every token's position is the offset of its first character."""

    SQL = "SELECT o.id FROM Owner o WHERE x = 'abc' AND y = 123 AND z = -4.5"

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("abc", TokenKind.STRING),
            ("123", TokenKind.NUMBER),
            ("-4.5", TokenKind.NUMBER),
            ("WHERE", TokenKind.KEYWORD),
            ("o", TokenKind.IDENT),
            ("=", TokenKind.OPERATOR),
        ],
    )
    def test_a_token_starts_where_its_text_does(self, text, kind):
        token = next(
            t for t in tokenize(self.SQL) if t.kind is kind and t.text == text
        )
        quote = "'" if kind is TokenKind.STRING else ""
        assert token.position == self.SQL.index(f"{quote}{text}{quote}")

    def test_string_and_number_positions(self):
        sql = "SELECT * FROM t WHERE x = 'abc' AND y = 123"
        tokens = tokenize(sql)
        string = next(t for t in tokens if t.kind is TokenKind.STRING)
        number = next(t for t in tokens if t.kind is TokenKind.NUMBER)
        assert (string.position, number.position) == (26, 40)

    def test_an_escaped_quote_keeps_the_opening_quote_position(self):
        (token, _) = tokenize("  'it''s'")
        assert token.position == 2

    def test_a_parser_error_cites_the_literal(self):
        from repro.query.sql.parser import parse_sql

        sql = "SELECT o.id FROM Owner o LIMIT 2.5"
        with pytest.raises(SqlSyntaxError, match="LIMIT requires") as info:
            parse_sql(sql)
        assert info.value.position == sql.index("2.5")

"""Unit tests for the ZL lexer."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasics:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_whitespace_only(self):
        assert kinds("  \t\n  ") == [TokenKind.EOF]

    def test_identifier(self):
        toks = tokenize("Xy_3")
        assert toks[0].kind is TokenKind.IDENT
        assert toks[0].value == "Xy_3"

    def test_keywords_case_insensitive(self):
        assert kinds("PROGRAM Begin end")[:3] == [
            TokenKind.PROGRAM,
            TokenKind.BEGIN,
            TokenKind.END,
        ]

    def test_keyword_prefix_is_identifier(self):
        toks = tokenize("beginner")
        assert toks[0].kind is TokenKind.IDENT


class TestNumbers:
    def test_integer(self):
        toks = tokenize("1234")
        assert toks[0].kind is TokenKind.INTLIT
        assert toks[0].value == 1234

    def test_float(self):
        toks = tokenize("3.25")
        assert toks[0].kind is TokenKind.FLOATLIT
        assert toks[0].value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1.5e-3")[0].value == 1.5e-3
        assert tokenize("2E4")[0].value == 2e4

    def test_range_not_decimal(self):
        # "1..n" must lex as INT DOTDOT IDENT, not a malformed float
        assert kinds("1..n")[:3] == [
            TokenKind.INTLIT,
            TokenKind.DOTDOT,
            TokenKind.IDENT,
        ]

    def test_leading_dot_float(self):
        toks = tokenize(".5")
        assert toks[0].kind is TokenKind.FLOATLIT
        assert toks[0].value == 0.5


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            (":=", TokenKind.ASSIGN),
            ("..", TokenKind.DOTDOT),
            ("<<", TokenKind.REDUCE),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("!=", TokenKind.NE),
            ("<", TokenKind.LT),
            (">", TokenKind.GT),
            ("=", TokenKind.EQ),
            ("@", TokenKind.AT),
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("^", TokenKind.CARET),
            (";", TokenKind.SEMI),
            (":", TokenKind.COLON),
            (",", TokenKind.COMMA),
            ("(", TokenKind.LPAREN),
            (")", TokenKind.RPAREN),
            ("[", TokenKind.LBRACKET),
            ("]", TokenKind.RBRACKET),
        ],
    )
    def test_single_operator(self, text, kind):
        assert kinds(text)[0] is kind

    def test_shift_expression(self):
        assert kinds("A@east")[:3] == [
            TokenKind.IDENT,
            TokenKind.AT,
            TokenKind.IDENT,
        ]

    def test_reduce_expression(self):
        ks = kinds("max<< abs(x)")
        assert ks[0] is TokenKind.IDENT
        assert ks[1] is TokenKind.REDUCE

    def test_unknown_character_raises_with_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("a $ b", filename="f.zl")
        assert "f.zl:1:3" in str(exc.value)


class TestComments:
    def test_line_comment(self):
        assert kinds("a -- comment here\nb") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_block_comment(self):
        assert kinds("a /* ignore\nme */ b") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_minus_minus_is_comment_not_two_minus(self):
        assert kinds("a--b\nc") == [TokenKind.IDENT, TokenKind.IDENT, TokenKind.EOF]


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("ab\n  cd")
        assert (toks[0].location.line, toks[0].location.column) == (1, 1)
        assert (toks[1].location.line, toks[1].location.column) == (2, 3)

    def test_filename_recorded(self):
        toks = tokenize("x", filename="prog.zl")
        assert toks[0].location.filename == "prog.zl"


class TestEdgeCases:
    def test_exponent_needs_digits(self):
        assert kinds("1e") == [TokenKind.INTLIT, TokenKind.IDENT, TokenKind.EOF]
        assert kinds("1e+") == [
            TokenKind.INTLIT,
            TokenKind.IDENT,
            TokenKind.PLUS,
            TokenKind.EOF,
        ]

    def test_trailing_dot_is_part_of_the_float(self):
        toks = tokenize("1.e5")
        assert (toks[0].kind, toks[0].value) == (TokenKind.FLOATLIT, 1e5)
        assert kinds("3.x") == [TokenKind.FLOATLIT, TokenKind.IDENT, TokenKind.EOF]
        assert values("3.x") == [3.0, "x"]

    def test_longest_operator_wins(self):
        assert kinds("A@@east")[:3] == [
            TokenKind.IDENT,
            TokenKind.WRAPAT,
            TokenKind.IDENT,
        ]
        assert kinds("<<=") == [TokenKind.REDUCE, TokenKind.EQ, TokenKind.EOF]

    def test_multiline_block_comment_keeps_locations(self):
        toks = tokenize("a /* one\ntwo\n */ b\n  c")
        assert [(t.location.line, t.location.column) for t in toks] == [
            (1, 1),
            (3, 5),
            (4, 3),
            (4, 4),
        ]

    def test_non_ascii_letter_is_identifier(self):
        toks = tokenize("é")
        assert (toks[0].kind, toks[0].value) == (TokenKind.IDENT, "é")

    def test_unknown_character_message(self):
        with pytest.raises(LexError, match=r"<string>:2:2: unexpected character '#'"):
            tokenize("x\n #")

    def test_numeric_character_does_not_start_a_name(self):
        with pytest.raises(LexError, match="unexpected character '½'"):
            tokenize("½x")

    def test_unterminated_block_comment_reports_its_start(self):
        with pytest.raises(LexError, match=r"f\.zl:2:3: unterminated block comment"):
            tokenize("a\n  /* never\nclosed", filename="f.zl")

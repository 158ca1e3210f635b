"""Tokenizer unit tests."""
import pytest

from repro.core.lexer import AIQLSyntaxError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasics:
    def test_empty(self):
        assert kinds("") == ["EOF"]

    def test_whitespace_only(self):
        assert kinds("  \t\n  ") == ["EOF"]

    def test_ident(self):
        assert values("proc p1") == ["proc", "p1"]

    def test_ident_with_underscore(self):
        assert values("info_stealer") == ["info_stealer"]

    def test_ident_leading_underscore(self):
        assert values("_x") == ["_x"]

    def test_ident_digits(self):
        assert values("evt12") == ["evt12"]

    @pytest.mark.parametrize("n,v", [("0", 0), ("42", 42), ("1000", 1000)])
    def test_int(self, n, v):
        t = tokenize(n)[0]
        assert t.kind == "NUMBER" and t.value == v and isinstance(t.value, int)

    @pytest.mark.parametrize("n,v", [("1.5", 1.5), ("0.25", 0.25)])
    def test_float(self, n, v):
        t = tokenize(n)[0]
        assert t.kind == "NUMBER" and t.value == v and isinstance(t.value, float)

    def test_eof_token_last(self):
        assert tokenize("a")[-1].kind == "EOF"


class TestStrings:
    def test_simple(self):
        assert values('"abc"') == ["abc"]

    def test_empty_string(self):
        assert values('""') == [""]

    def test_percent_wildcard_preserved(self):
        assert values('"%cmd.exe"') == ["%cmd.exe"]

    def test_escape_quote(self):
        assert values(r'"a\"b"') == ['a"b']

    def test_escape_backslash(self):
        assert values(r'"a\\b"') == ["a\\b"]

    def test_lone_backslash_literal(self):
        assert values(r'"a\b"') == ["a\\b"]

    def test_spaces_inside(self):
        assert values('"a b c"') == ["a b c"]

    def test_unterminated_raises(self):
        with pytest.raises(AIQLSyntaxError, match="unterminated"):
            tokenize('"abc')


class TestPunctuation:
    @pytest.mark.parametrize("p", ["(", ")", "[", "]", ",", "=", "<", ">",
                                   ".", "*", "/", "+", "-"])
    def test_single(self, p):
        t = tokenize(p)[0]
        assert t.kind == "OP" and t.value == p

    @pytest.mark.parametrize("p", ["<=", ">=", "!="])
    def test_two_char(self, p):
        t = tokenize(p)[0]
        assert t.kind == "OP" and t.value == p

    def test_two_char_wins_over_single(self):
        assert values("a<=b") == ["a", "<=", "b"]

    def test_bracket_filter(self):
        assert values('p["%x"]') == ["p", "[", "%x", "]"]

    def test_unknown_char_raises(self):
        with pytest.raises(AIQLSyntaxError, match="unexpected character"):
            tokenize("a @ b")


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_comment_at_eof(self):
        assert values("a // comment") == ["a"]

    def test_comment_only(self):
        assert kinds("// nothing") == ["EOF"]

    def test_slash_is_division_not_comment(self):
        assert values("a / b") == ["a", "/", "b"]


class TestPositions:
    def test_error_reports_line_col(self):
        with pytest.raises(AIQLSyntaxError, match="line 2:3"):
            tokenize("ab\ncd@")

    def test_token_pos(self):
        toks = tokenize("ab cd")
        assert toks[0].pos == 0 and toks[1].pos == 3


class TestRealQueries:
    def test_paper_query1_line(self):
        v = values('proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1')
        assert v == ["proc", "p1", "[", "%cmd.exe", "]", "start", "proc",
                     "p2", "[", "%osql.exe", "]", "as", "evt1"]

    def test_window_spec(self):
        assert values("window = 1 min, step = 10 sec") == [
            "window", "=", 1, "min", ",", "step", "=", 10, "sec"]

    def test_having_with_history(self):
        v = values("having (amt > 2 * (amt + amt[1]) / 3)")
        assert v == ["having", "(", "amt", ">", 2, "*", "(", "amt", "+",
                     "amt", "[", 1, "]", ")", "/", 3, ")"]

import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mmdsl import emfatic, grammar, lexer as lexer_module, modeltext, xf
from mmdsl.diagnostics import DiagnosticError, SourceLocation, error
from mmdsl.lexer import Lexer, TokenStream, escape_string

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

LEX = Lexer(reserved={"class"}, symbols={"{", "}", "::", ":"})


def kinds(text):
    return [(t.kind, t.text) for t in LEX.tokenize(text)][:-1]  # drop EOF


class TestTokens:
    def test_words_and_symbols(self):
        assert kinds("class Foo { a :: b }") == [
            ("KW", "class"), ("ID", "Foo"), ("KW", "{"),
            ("ID", "a"), ("KW", "::"), ("ID", "b"), ("KW", "}")]

    def test_longest_symbol_wins(self):
        assert kinds("a::b:c") == [
            ("ID", "a"), ("KW", "::"), ("ID", "b"), ("KW", ":"), ("ID", "c")]

    def test_pattern_does_not_depend_on_symbol_order(self):
        syms = ["->", "-", "::", ":", "{", "}", "=", "]", "^", "\\"]
        forward, backward = Lexer(symbols=syms), Lexer(symbols=syms[::-1])
        assert forward.symbols == backward.symbols
        assert forward._pattern.pattern == backward._pattern.pattern
        assert [t.text for t in forward.tokenize("a^b]\\c->-=")][:-1] == \
            ["a", "^", "b", "]", "\\", "c", "->", "-", "="]

    def test_ints_do_not_swallow_words(self):
        toks = LEX.tokenize("12abc")
        assert (toks[0].kind, toks[0].value) == ("INT", 12)
        assert (toks[1].kind, toks[1].text) == ("ID", "abc")

    def test_string_escapes(self):
        (tok, _) = LEX.tokenize(r'"a\"b\\c\nd"')
        assert tok.value == 'a"b\\c\nd'

    def test_escape_string_round_trip(self):
        for s in ['plain', 'with "quotes"', 'back\\slash', 'tab\tnl\n', '']:
            (tok, _) = LEX.tokenize(escape_string(s))
            assert tok.value == s

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from('ab "\\\n\t\r\x00é→')) | st.text())
    def test_escape_string_as_the_per_character_definition(self, s):
        unescapes = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}
        assert escape_string(s) == '"' + "".join(unescapes.get(c, c) for c in s) + '"'

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", "Z", "é", "0", "7", "_", "²", "class", "in"]),
                    max_size=4).map("".join))
    def test_reads_as_id_as_the_lexer_reads(self, s):
        """reads_as_id(s) holds exactly when ``s`` alone is one ID token
        that reads ``s``: '_' and '__' are IDs; '²x' and reserved words are not."""
        lex = Lexer(reserved={"class", "in"}, symbols={"{", "::"})
        try:
            toks = lex.tokenize(s)
        except DiagnosticError:
            toks = []
        assert lex.reads_as_id(s) == (len(toks) == 2 and (toks[0].kind, toks[0].text) == ("ID", s))

    def test_underscores_read_as_ids(self):
        assert LEX.reads_as_id("_") and LEX.reads_as_id("__") and LEX.reads_as_id("_a1")
        assert not LEX.reads_as_id("") and not LEX.reads_as_id("²x") and not LEX.reads_as_id("1a")

    def test_comments_and_positions(self):
        toks = LEX.tokenize("// whole line\n/* span\nlines */ word")
        assert toks[0].text == "word"
        assert (toks[0].location.line, toks[0].location.column) == (3, 10)

    def test_column_tracking(self):
        toks = LEX.tokenize("ab cd\n  ef")
        assert (toks[1].location.line, toks[1].location.column) == (1, 4)
        assert (toks[2].location.line, toks[2].location.column) == (2, 3)


class TestTokenStream:
    def stream(self, text="class a { b }"):
        return TokenStream(LEX.tokenize(text))

    def test_current_follows_pos(self):
        stream = self.stream()
        assert stream.current is stream.tokens[0]
        assert stream.expect_kw("class").text == "class"
        assert stream.expect("ID").text == "a"
        assert stream.accept_kw("{") and not stream.accept_kw("{")
        assert stream.next().text == "b"
        assert (stream.pos, stream.current.text) == (4, "}")
        assert stream.current is stream.tokens[stream.pos]

    def test_failed_tests_do_not_move(self):
        stream = self.stream()
        with pytest.raises(DiagnosticError):
            stream.expect_kw("{")
        with pytest.raises(DiagnosticError):
            stream.expect("INT")
        assert not stream.at_kw("a") and not stream.accept_kw("}")
        assert (stream.pos, stream.current.text) == (0, "class")

    def test_keyword_tests_need_a_keyword(self):
        stream = self.stream("a")
        assert stream.current.text == "a" and not stream.at_kw("a")
        assert not stream.accept_kw("a")
        with pytest.raises(DiagnosticError):
            stream.expect_kw("a")

    def test_next_at_eof_stays_at_eof(self):
        stream = self.stream("a")
        stream.next()
        for _ in range(3):
            assert stream.next().kind == "EOF"
        assert (stream.pos, stream.current.kind) == (1, "EOF")
        assert stream.expect("EOF").kind == "EOF" and stream.pos == 1

    def test_peek_past_the_end_is_eof(self):
        stream = self.stream("a b")
        assert stream.peek().text == "b"
        assert stream.peek(2).kind == "EOF" and stream.peek(50).kind == "EOF"
        assert stream.pos == 0


class TestErrors:
    def err(self, text):
        with pytest.raises(DiagnosticError) as exc:
            LEX.tokenize(text)
        return exc.value.diagnostics[0]

    def test_unterminated_string(self):
        d = self.err('x "never ends')
        assert d.code == "lexical" and d.location.column == 3

    def test_string_may_not_span_lines(self):
        assert self.err('"a\nb"').code == "lexical"

    def test_unterminated_block_comment(self):
        d = self.err("ok /* drifting")
        assert d.code == "lexical" and d.location.column == 4

    def test_unknown_escape(self):
        assert "\\q" in self.err(r'"a\qb"').message

    def test_unknown_character(self):
        d = self.err("a @ b")
        assert d.code == "lexical" and d.location.column == 3

    def test_numeric_character_that_is_not_a_decimal_digit(self):
        d = self.err("x: 1²")
        assert d.code == "lexical" and d.location.column == 5
        assert d.message == "unexpected character '²'"

    def test_error_columns_after_the_first_line(self):
        d = self.err('a\n  b "c\\qd"')
        assert (d.location.line, d.location.column) == (2, 7)


# ---------------------------------------------------------------------------
# Differential check against a reference scanner

REF_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def reference_tokenize(lexer: Lexer, text: str, file: str = "<input>") -> list[tuple]:
    """The per-character scanner the compiled lexer replaced, kept as the
    oracle: (kind, text, value, line, column) per token, or the
    DiagnosticError the compiled lexer must raise. INT is decimal digits
    (str.isdecimal, what int() accepts)."""
    symbols = sorted(lexer.symbols, key=len, reverse=True)
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)

    def loc():
        return SourceLocation(file, line, col)

    def fail(message, at=None):
        raise DiagnosticError([error(lexer.phase, "lexical", message, location=at or loc())])

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def token(kind, word, value, start):
        tokens.append((kind, word, value, start.line, start.column))

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if text.startswith("/*", i):
            start = loc()
            advance(2)
            while i < n and not text.startswith("*/", i):
                advance(1)
            if i >= n:
                fail("unterminated block comment", at=start)
            advance(2)
            continue
        if c == '"':
            start = loc()
            advance(1)
            out = []
            while True:
                if i >= n or text[i] == "\n":
                    fail("unterminated string literal", at=start)
                ch = text[i]
                if ch == '"':
                    advance(1)
                    break
                if ch == "\\":
                    if i + 1 >= n:
                        fail("unterminated string literal", at=start)
                    esc = text[i + 1]
                    if esc not in REF_ESCAPES:
                        fail(f"unknown escape '\\{esc}'")
                    out.append(REF_ESCAPES[esc])
                    advance(2)
                    continue
                out.append(ch)
                advance(1)
            value = "".join(out)
            token("STRING", escape_string(value), value, start)
            continue
        if c.isdecimal():
            start = loc()
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            word = text[i:j]
            if len(word) > 4300:  # past int()'s default limit of digits
                fail("integer literal too long", at=start)
            advance(j - i)
            token("INT", word, int(word), start)
            continue
        if c.isalpha() or c == "_":
            start = loc()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            token("KW" if word in lexer.reserved else "ID", word, word, start)
            continue
        matched = None
        for sym in symbols:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched is None:
            fail(f"unexpected character {c!r}")
        start = loc()
        advance(len(matched))
        token("KW", matched, matched, start)
    token("EOF", "", None, loc())
    return tokens

# Symbols that no token can start with (a letter, '_', '"', a digit,
# blanks, a comment opener) and symbols that start with a numeric
# character which is not a decimal digit.
ODD = Lexer(reserved={"if", "é"},
            symbols={"/", "-", "->", "²", "²x", "a-b", "é-", '"q', "1x", " x", "//x", "/*",
                     "*/", "\\", "::", ":", "{", "}"},
            phase="grammar")
LEXERS = [LEX, ODD, Lexer(), modeltext._LEXER, emfatic._LEXER, xf._LEXER, grammar._GR_LEXER,
          Lexer.for_keywords({"rule", ".", "{", "}", ":", ";", "a-b", "_", "²"})]

# Pieces that every lexer accepts, to put errors past the first line, and
# pieces that reach every token class, every lexical error and every
# branch of the scanner, plus runs of characters to break them up.
LINES = ['"ab"', '"a\\"b\\\\c\\n\\t\\r"', '"tab\there"', "/* c\n * */", "// line\n", "if",
         "éa²", "_x9", "12", "٣٤", " ", "\n", "\t\r\n"]
PIECES = LINES + ['"\r"', '"open', '"bad\\q"', '"nl\\\n"', '"end\\', "/*/", "/*", "//", "class",
                  "é", "1²", "²", "½", "a-b", "é-", "²x", "²y", "->", "::", "'", "\x0c", "@"]
CHARS = ' \t\r\n\n"\\/*-:{}>#,[]=.;|()?+abnqrt_019٣²½é@\x0c'


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except DiagnosticError as exc:
        d = exc.diagnostics[0]
        return ("error", d.phase, d.code, d.message, d.location)


def compiled_tokens(lexer):
    def tokenize(text):
        return [(t.kind, t.text, t.value, t.location.line, t.location.column)
                for t in lexer.tokenize(text, "f")]
    return tokenize


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(range(len(LEXERS))), st.lists(st.sampled_from(LINES), max_size=8),
           st.lists(st.one_of(st.sampled_from(PIECES), st.text(CHARS, max_size=4)), max_size=12))
    def test_same_tokens_or_diagnostics(self, which, prefix, parts):
        lexer, text = LEXERS[which], "".join(prefix + parts)
        assert outcome(compiled_tokens(lexer), text) == \
            outcome(lambda t: reference_tokenize(lexer, t, "f"), text)

    def test_shipped_samples(self):
        paths = [p for p in sorted(SAMPLES.rglob("*")) if p.is_file()]
        assert len(paths) >= 8
        for path in paths:
            text = path.read_text()
            for lexer in LEXERS:
                assert outcome(compiled_tokens(lexer), text) == \
                    outcome(lambda t: reference_tokenize(lexer, t, "f"), text), (path, lexer)


# ---------------------------------------------------------------------------
# The blank-and-comment pattern every token match starts with

# The form before it was made unambiguous: a run of n blanks splits into
# runs of ``[ \t\r\n]+`` in 2**(n-1) ways, and a failing match tries them all.
OLD_SKIP = r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"


def with_skip(skip: str, lexer: Lexer) -> Lexer:
    """``lexer``'s vocabulary compiled around ``skip`` instead of ``_SKIP``."""
    saved, lexer_module._SKIP = lexer_module._SKIP, skip
    try:
        return Lexer(lexer.reserved, lexer.symbols, lexer.phase)
    finally:
        lexer_module._SKIP = saved


SKIP_PIECES = PIECES + ["/**/", "/***/", "/* * / */", "/*/ */", "/* a */ /* b */", "// a // b\n",
                        "// x */\n", "/* // */", "/*\n*/", "*/", "/", " \t \r\n "]


class TestSkip:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(range(len(LEXERS))),
           st.lists(st.one_of(st.sampled_from(SKIP_PIECES), st.text(CHARS, max_size=4)),
                    max_size=14))
    def test_same_tokens_as_the_old_pattern(self, which, parts):
        lexer, text = LEXERS[which], "".join(parts)
        assert outcome(compiled_tokens(lexer), text) == \
            outcome(compiled_tokens(with_skip(OLD_SKIP, lexer)), text)

    @pytest.mark.parametrize("tail", ["y", "/* open", "// c\ny", "/* a */ y"])
    def test_failing_match_after_long_blanks_is_linear(self, tail):
        """A match that fails after 10,000 (and 100,000) blanks gives up in
        time linear in their number; the old form took 7.6 ms after 16."""
        pattern = re.compile(lexer_module._SKIP + "x", re.DOTALL)
        for n in (10_000, 100_000):
            text = " \t\n" * (n // 3) + tail
            start = time.perf_counter()
            assert pattern.match(text) is None
            assert time.perf_counter() - start < n * 2e-6

    def test_never_resumes_inside_a_comment(self):
        """After a failure, a match may not restart inside a comment, as the
        old form did: its ``[^\\n]*`` gave back the "x" of "// x"."""
        assert re.compile(OLD_SKIP + "x", re.DOTALL).match("// x\n y")
        pattern = re.compile(lexer_module._SKIP + "x", re.DOTALL)
        for text in ("// x\n y", "/* x */ y", "/* x */ // x\n y", "/* x */ */ y"):
            assert pattern.match(text) is None


class TestLongIntegers:
    """An INT literal with more digits than int() converts is a located
    lexical error in every format, not a ValueError."""

    DIGITS = "1" * 5000

    def check(self, call, text):
        with pytest.raises(DiagnosticError) as exc:
            call(text)
        (d,) = exc.value.diagnostics
        assert (d.code, d.message, d.location.line, d.location.column) == (
            "lexical", "integer literal too long", 1, text.index(self.DIGITS) + 1)

    def test_lexer(self):
        self.check(LEX.tokenize, f"x {self.DIGITS} y")

    def test_metamodel_default(self):
        self.check(lambda t: emfatic.parse_metamodel(t, "m"),
                   f"class A {{ attr int n = {self.DIGITS}; }}")

    def test_transformation(self):
        target = emfatic.parse_metamodel("class A { }", "m")
        self.check(lambda t: xf.parse_transformation(t, target),
                   f"create class B {{ attr String[0..{self.DIGITS}] x; }}")

    def test_model_dump(self):
        mm = emfatic.parse_metamodel("class Node { attr int count; ref Node link; }", "m")
        for text in [f"Node #1 {{ count = {self.DIGITS} }}", f"Node #{self.DIGITS} {{ }}",
                     f"Node #1 {{ count = -{self.DIGITS} }}",
                     f"Node #1 {{ link = -> #{self.DIGITS} }}"]:
            self.check(lambda t: modeltext.load_model(t, mm), text)

"""Small configurable lexer shared by every textual format in the toolkit.

Token kinds: ID, INT, STRING, KW (reserved word or symbol), EOF. The
vocabulary (reserved words + symbol literals) is supplied per format;
grammar-driven parsing builds one from the grammar's keyword set.
`//` and `/* */` comments and whitespace are skipped everywhere.

Each Lexer compiles its vocabulary into one regular expression that
matches a token together with the whitespace and comments before it, so
tokenizing is one pass of `finditer`. A token records its offset in the
text; its line and column are computed only when asked for, from the
text's line starts.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .diagnostics import DiagnosticError, SourceLocation, error

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}

# Blanks and comments, each run of them readable in one way only: a line
# comment runs to the end of its line and a block comment to its first
# '*/'. So a match that fails after it backtracks through it once, in time
# linear in its length, and never resumes inside a comment.
_SKIP = r"[ \t\r\n]*(?:(?://[^\n]*(?![^\n])|/\*[^*]*(?:\*(?!/)[^*]*)*\*/)[ \t\r\n]*)*"
# a string literal up to its closing quote; a literal that stops short of
# it is unterminated or holds an unknown escape
_STRING_OPEN = r'"[^"\\\n]*(?:\\[nrt"\\][^"\\\n]*)*'
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPED = re.compile(r'[\n\t\r"\\]')


def escape_string(value: str) -> str:
    """``value`` as a string literal, each character of ``_UNESCAPES`` written
    as its escape: one search, and a substitution only where it finds one."""
    if _UNESCAPED.search(value) is None:
        return '"' + value + '"'
    return '"' + _UNESCAPED.sub(lambda m: _UNESCAPES[m[0]], value) + '"'


def format_literal(v) -> str:
    """A boolean, integer or string value as the literal that writes it."""
    if isinstance(v, str):
        return escape_string(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return escape_string(v)  # not a literal: fails as a string would


class _Source:
    """A tokenized text: its file name and, once a location is asked for,
    the offsets at which its lines start."""

    __slots__ = ("file", "text", "line_starts")

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self.line_starts: list[int] | None = None

    def location(self, offset: int) -> SourceLocation:
        if self.line_starts is None:
            self.line_starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect_right(self.line_starts, offset)
        return SourceLocation(self.file, line, offset - self.line_starts[line - 1] + 1)


class Token:
    __slots__ = ("kind", "text", "value", "offset", "source")

    def __init__(self, kind: str, text: str, value, offset: int, source: _Source):
        self.kind = kind  # ID | INT | STRING | KW | EOF
        self.text = text
        self.value = value
        self.offset = offset
        self.source = source

    @property
    def location(self) -> SourceLocation:
        return self.source.location(self.offset)

    def is_kw(self, text: str) -> bool:
        return self.kind == "KW" and self.text == text


def _is_word(s: str) -> bool:
    return bool(s) and (s[0].isalpha() or s[0] == "_") and s.replace("_", "").isalnum()


class Lexer:
    def __init__(self, reserved=(), symbols=(), phase: str = "parse"):
        self.reserved = frozenset(reserved)
        # longest first, then in text order: the same pattern in every process
        self.symbols = sorted(symbols, key=lambda s: (-len(s), s))
        self.phase = phase
        # A symbol that starts like a word or a string never matches: that
        # reading wins. No symbol may eat the '/' of an unclosed comment.
        syms = "|".join(re.escape(s) for s in self.symbols
                        if s and not (s[0].isalpha() or s[0] in '_"'))
        self._pattern = re.compile(
            _SKIP + rf'(?:(?P<STRING>{_STRING_OPEN}")|(?P<INT>\d+)'
            rf"|(?!/\*)(?P<KW>{syms or '(?!)'})|(?P<ID>[^\W\d]\w*)"
            r"|(?P<EOF>\Z)|(?P<ERROR>.))", re.DOTALL)

    @classmethod
    def for_keywords(cls, keywords, phase: str = "parse") -> "Lexer":
        """Build a lexer from a grammar's literal keywords: word-like ones
        become reserved words, the rest become symbols."""
        words = {k for k in keywords if _is_word(k)}
        syms = {k for k in keywords if not _is_word(k)}
        return cls(reserved=words, symbols=syms, phase=phase)

    def tokenize(self, text: str, file: str = "<input>") -> list[Token]:
        source = _Source(file, text)
        reserved = self.reserved
        tokens = []
        append = tokens.append
        for m in self._pattern.finditer(text):
            kind = m.lastgroup
            start = m.start(kind)
            word = m[kind]
            if kind == "KW":
                append(Token(kind, word, word, start, source))
            elif kind == "ID":
                if word in reserved:
                    kind = "KW"
                elif not (word[0].isalpha() or word[0] == "_"):
                    break  # a numeric character that is not a decimal digit
                append(Token(kind, word, word, start, source))
            elif kind == "STRING":
                body = word[1:-1]
                value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body) if "\\" in body else body
                if "\t" in body or "\r" in body:
                    word = escape_string(value)
                append(Token(kind, word, value, start, source))
            elif kind == "INT":
                try:
                    append(Token(kind, word, int(word), start, source))
                except ValueError:  # more digits than int() converts
                    raise DiagnosticError([error(self.phase, "lexical", "integer literal too long",
                                                 location=source.location(start))]) from None
            elif kind == "EOF":
                append(Token(kind, "", None, start, source))
                return tokens
            else:
                break
        raise DiagnosticError([self._lexical_error(text, start, source)])

    def reads_as_id(self, text: str) -> bool:
        """Whether ``text`` on its own tokenizes as one ID token."""
        return _is_word(text) and text not in self.reserved

    def _lexical_error(self, text: str, at: int, source: _Source):
        """The diagnostic for offset ``at``, where no token can start."""
        if text.startswith('"', at):
            end = re.compile(_STRING_OPEN).match(text, at).end()
            if text.startswith("\\", end) and end + 1 < len(text):
                return error(self.phase, "lexical", f"unknown escape '\\{text[end + 1]}'",
                             location=source.location(end))
            message = "unterminated string literal"
        elif text.startswith("/*", at):
            message = "unterminated block comment"
        else:
            message = f"unexpected character {text[at]!r}"
        return error(self.phase, "lexical", message, location=source.location(at))


class TokenStream:
    """Cursor over a token list that ends in EOF, with the error helpers
    every hand-written parser in this package wants. ``current`` is the
    token at ``pos``, a plain attribute that ``next`` moves along with
    ``pos``; the tests read its ``kind`` and ``text`` in place."""

    def __init__(self, tokens: list[Token], phase: str = "parse"):
        self.tokens = tokens
        self.pos = 0
        self.current = tokens[0]
        self.phase = phase

    def peek(self, ahead: int = 1) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at_kw(self, text: str) -> bool:
        return self.current.text == text and self.current.kind == "KW"

    def at(self, kind: str) -> bool:
        return self.current.kind == kind

    def next(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self.pos += 1
            self.current = self.tokens[self.pos]
        return tok

    def accept_kw(self, text: str) -> bool:
        if self.current.text == text and self.current.kind == "KW":
            self.next()
            return True
        return False

    def fail(self, message: str, code: str = "syntax", token: Token | None = None):
        tok = token or self.current
        raise DiagnosticError([error(self.phase, code, message, location=tok.location)])

    def expect_kw(self, text: str) -> Token:
        if self.current.text != text or self.current.kind != "KW":
            self.fail(f"expected '{text}', found {self.describe()}")
        return self.next()

    def expect(self, kind: str) -> Token:
        if self.current.kind != kind:
            self.fail(f"expected {kind}, found {self.describe()}")
        return self.next()

    def expect_eof(self):
        if self.current.kind != "EOF":
            self.fail(f"expected end of input, found {self.describe()}")

    def describe(self) -> str:
        tok = self.current
        if tok.kind == "EOF":
            return "end of input"
        return f"'{tok.text}'"

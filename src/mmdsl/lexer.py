"""Small configurable lexer shared by every textual format in the toolkit.

Token kinds: ID, INT, STRING, KW (reserved word or symbol), EOF. The
vocabulary (reserved words + symbol literals) is supplied per format;
grammar-driven parsing builds one from the grammar's keyword set.
`//` and `/* */` comments and whitespace are skipped everywhere.

Each Lexer compiles its vocabulary into one regular expression that
matches a token together with the whitespace and comments before it; the
group that matched (``lastgroup``) is the token's kind, reserved words in KW.
tokenize makes the Token list in one pass of ``finditer``. parse_text reads
the same matches one at a time (``matches``), decodes a value only where it
takes one (token_value) and makes a Token only to report an error (``token``,
``error_token``). A token records its offset in the text; its line and
column are computed only when asked for, from the text's line starts.
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
_ID = r"[^\W\d]\w*"
_WHOLE_ID = re.compile(_ID).fullmatch
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
    return str(v) if isinstance(v, int) else escape_string(v)  # else fails as a string would


class _Source:
    """A tokenized text: its file name and, once a location is asked for,
    the offsets at which its lines start."""

    __slots__ = ("file", "text", "line_starts")

    def __init__(self, file: str, text: str):
        self.file, self.text, self.line_starts = file, text, None

    def location(self, offset: int) -> SourceLocation:
        if self.line_starts is None:
            self.line_starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect_right(self.line_starts, offset)
        return SourceLocation(self.file, line, offset - self.line_starts[line - 1] + 1)


class Token:
    __slots__ = ("kind", "text", "value", "offset", "source")

    def __init__(self, kind: str, text: str, value, offset: int, source: _Source):
        self.kind, self.text, self.value = kind, text, value  # kind: ID | INT | STRING | KW | EOF
        self.offset, self.source = offset, source

    @property
    def location(self) -> SourceLocation:
        return self.source.location(self.offset)

    def is_kw(self, text: str) -> bool:
        return self.kind == "KW" and self.text == text


def token_value(kind: str, word: str):
    """The value of a token of ``kind`` that reads ``word``. ValueError if
    it reads none: an ERROR, an INT with more digits than int() converts, an
    ID that starts with a numeric character that is not a digit, like '²'."""
    if kind == "ID" and (word[0].isalpha() or word[0] == "_") or kind == "KW":
        return word
    if kind == "STRING":
        body = word[1:-1]
        return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body) if "\\" in body else body
    if kind == "INT":
        return int(word)
    raise ValueError(word)


def _is_word(s: str) -> bool:
    return bool(s) and (s[0].isalpha() or s[0] == "_") and s.replace("_", "").isalnum()


class Lexer:
    def __init__(self, reserved=(), symbols=(), phase: str = "parse"):
        self.reserved = frozenset(reserved)
        # longest first, then in text order: the same pattern in every process
        self.symbols = sorted(symbols, key=lambda s: (-len(s), s))
        self.phase = phase
        # A symbol that starts like a word or a string never matches: that
        # reading wins. No symbol may eat the '/' of an unclosed comment. A
        # reserved word is a KW where the whole ID would be, after the symbols.
        words = "|".join(re.escape(w) for w in sorted(self.reserved, key=lambda s: (-len(s), s))
                         if _WHOLE_ID(w))
        syms = "|".join([re.escape(s) for s in self.symbols
                         if s and not (s[0].isalpha() or s[0] in '_"')]
                        + [f"(?:{words})(?!\\w)"] * bool(words))
        self._pattern = re.compile(
            _SKIP + rf'(?:(?P<STRING>{_STRING_OPEN}")|(?P<INT>\d+)'
            rf"|(?!/\*)(?P<KW>{syms or '(?!)'})|(?P<ID>{_ID})"
            r"|(?P<EOF>\Z)|(?P<ERROR>.))", re.DOTALL)
        self.matches = self._pattern.finditer  # of a text, a match per token: see ``token``

    @classmethod
    def for_keywords(cls, keywords, phase: str = "parse") -> "Lexer":
        """Build a lexer from a grammar's literal keywords: word-like ones
        become reserved words, the rest become symbols."""
        words = {k for k in keywords if _is_word(k)}
        syms = {k for k in keywords if not _is_word(k)}
        return cls(reserved=words, symbols=syms, phase=phase)

    def tokenize(self, text: str, file: str = "<input>") -> list[Token]:
        """The tokens of ``text``, EOF last, or its first lexical error."""
        source, tokens = _Source(file, text), []
        append = tokens.append
        for m in self._pattern.finditer(text):
            kind = m.lastgroup
            word = m[kind]  # a KW or an ID is read as token_value reads it, inline for speed
            if kind == "KW" or kind == "ID" and (word[0].isalpha() or word[0] == "_"):
                append(Token(kind, word, word, m.start(kind), source))
            else:
                append(self.token(m, source))
                if kind == "EOF":
                    return tokens

    def token(self, m: re.Match, source: _Source) -> Token:
        """The token that match ``m`` reads, its kind ``m.lastgroup``, or its
        lexical error. A string holding a tab or CR is written from its value."""
        kind = m.lastgroup
        word, start = m[kind], m.start(kind)
        try:
            value = None if kind == "EOF" else token_value(kind, word)
        except ValueError:
            raise DiagnosticError([self._lexical_error(source.text, start, source)]) from None
        if kind == "STRING" and ("\t" in word or "\r" in word):
            word = escape_string(value)
        return Token(kind, word, value, start, source)

    def error_token(self, m: re.Match, rest, text: str, file: str) -> Token:
        """The token of match ``m`` of ``matches(text)``, to report an error at;
        but first raise the first lexical error from ``m`` on, which wins."""
        source = _Source(file, text)
        tok = at = self.token(m, source)
        while at.kind != "EOF":
            at = self.token(next(rest), source)
        return tok

    def reads_as_id(self, text: str) -> bool:
        """Whether ``text`` on its own tokenizes as one ID token: ``_ID``
        matches all of it, its first character is one token_value takes,
        and it is not a reserved word."""
        return (_WHOLE_ID(text) is not None and (text[0].isalpha() or text[0] == "_")
                and text not in self.reserved)

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
        elif text[at].isdecimal():  # an INT: more digits than int() converts
            message = "integer literal too long"
        else:
            message = f"unexpected character {text[at]!r}"
        return error(self.phase, "lexical", message, location=source.location(at))


class TokenStream:
    """Cursor over a token list that ends in EOF, with the error helpers
    every hand-written parser in this package wants. ``current`` is the
    token at ``pos``, a plain attribute that ``next`` moves along with
    ``pos``; the tests read its ``kind`` and ``text`` in place."""

    def __init__(self, tokens: list[Token], phase: str = "parse"):
        self.tokens, self.pos, self.current, self.phase = tokens, 0, tokens[0], phase

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
            return self.next() is not None
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
        return "end of input" if self.current.kind == "EOF" else f"'{self.current.text}'"

"""Streaming lexer for the SysML v2 textual notation subset.

The lexer converts source text into a stream of
:class:`~repro.sysml.tokens.Token`. It handles:

* identifiers (including unrestricted names quoted with single quotes in
  SysML v2: ``'name with spaces'`` — exposed as IDENT tokens),
* string literals (double quotes),
* integer and real literals,
* line comments ``//``, block comments ``/* */``, and documentation
  bodies (``doc /* ... */`` — the block following ``doc`` is preserved as
  a DOC_COMMENT token),
* the multi-character operators ``:>``, ``:>>`` and ``::``.

Two properties matter at mega-factory scale (ICE-Lab×100 is ~3 million
tokens):

* **Streaming.** :func:`iter_tokens` yields tokens as they are scanned
  instead of materializing the whole ``list[Token]`` per file. The
  parser never rewinds and holds the current token plus at most two of
  lookahead, so its token working set stays at three no matter how
  large one package source grows. :func:`tokenize` remains
  as the list-building convenience wrapper.
* **Throughput.** Scanning is driven by one compiled master regex — a
  single C-level match per token — instead of per-character ``_peek``
  calls, and identifier values are ``sys.intern``-ed so downstream name
  tables compare pointers before bytes. Tokens themselves are
  slot-based (:class:`~repro.sysml.tokens.Token`).

The original character-at-a-time scanner survives as
:mod:`repro.sysml.lexer_reference`; differential tests assert both
lexers agree token-for-token (kinds, values, locations and raised
errors), and the A4 scaling bench reports this lexer's tokens/sec
speedup over it.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Iterator

from .errors import LexerError, SourceLocation
from .tokens import Token, TokenKind

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "=": TokenKind.EQUALS,
    "*": TokenKind.STAR,
    "~": TokenKind.TILDE,
    "-": TokenKind.MINUS,
    ":": TokenKind.COLON,
    ":>": TokenKind.SPECIALIZES,
    ":>>": TokenKind.REDEFINES,
    "::": TokenKind.DOUBLE_COLON,
}

#: One alternation per lexical class; longest-match operators first
#: within their class (``:>>`` before ``:>`` before ``::`` before
#: ``:``). Identifier starts are ``\w`` minus digits, which matches the
#: reference lexer's ``isalpha() or '_'`` rule for every practical
#: character (a guard below rejects the exotic ``isalnum``-but-not-
#: ``isalpha`` starters, e.g. ``'²'``, exactly as the reference does).
#: String escapes may cover *any* character including a newline
#: (``\\[\s\S]``); an unescaped newline ends the match and reports an
#: unterminated literal.
_MASTER = re.compile(
    r"""
      (?P<WS>[ \t\r\n]+)
    | (?P<IDENT>[^\W\d]\w*)
    | (?P<PUNCT>:>>|:>|::|[{}\[\]();,.=*~:-])
    | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<SQ>'(?:[^'\\\n]|\\[\s\S])*')
    | (?P<DQ>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<LINE>//[^\n]*)
    | (?P<BLOCK>/\*)
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\([\s\S])")


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(
        lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)


class Lexer:
    """Tokenizes a single source text (streaming)."""

    def __init__(self, text: str, filename: str = "<model>"):
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        #: Absolute position of the current line's first character;
        #: columns are derived as ``pos - line_start + 1``, which gives
        #: the same "every non-newline character is one column wide"
        #: arithmetic as the reference lexer.
        self.line_start = 0

    # -- scanning ----------------------------------------------------------

    def stream(self) -> Iterator[Token]:
        """Yield tokens one at a time; the final token is always EOF."""
        text = self.text
        filename = self.filename
        length = len(text)
        match = _MASTER.match
        pos = self.pos
        line = self.line
        line_start = self.line_start
        prev_is_doc = False
        while pos < length:
            m = match(text, pos)
            if m is None:
                self._sync(pos, line, line_start)
                self._fail(pos)
            group = m.lastgroup
            end = m.end()
            if group == "WS":
                newlines = text.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", pos, end) + 1
                pos = end
                continue
            location = SourceLocation(filename, line, pos - line_start + 1)
            if group == "IDENT":
                value = m.group()
                first = value[0]
                if first != "_" and not first.isalpha():
                    self._sync(pos, line, line_start)
                    raise LexerError(
                        f"unexpected character {first!r}", location)
                token = Token(TokenKind.IDENT, _intern(value), location)
                prev_is_doc = value == "doc"
                pos = end
                yield token
                continue
            if group == "PUNCT":
                value = m.group()
                prev_is_doc = False
                pos = end
                yield Token(_PUNCT[value], value, location)
                continue
            if group == "NUMBER":
                value = m.group()
                if "." in value and end < length and text[end] in "eE":
                    # the reference scanner commits to a real literal
                    # once it has seen a fraction, so a dangling
                    # exponent marker is an error there (while '2e'
                    # harmlessly lexes as INTEGER IDENT)
                    self._sync(pos, line, line_start)
                    raise LexerError(
                        "malformed exponent in real literal", location)
                kind = (TokenKind.REAL
                        if "." in value or "e" in value or "E" in value
                        else TokenKind.INTEGER)
                prev_is_doc = False
                pos = end
                yield Token(kind, value, location)
                continue
            if group == "SQ" or group == "DQ":
                raw = m.group()
                body = _unescape(raw[1:-1])
                newlines = raw.count("\n")
                if newlines:  # escaped newlines inside the literal
                    line += newlines
                    line_start = pos + raw.rindex("\n") + 1
                prev_is_doc = False
                pos = end
                yield Token(TokenKind.STRING, body, location)
                continue
            if group == "LINE":
                pos = end
                continue
            # BLOCK: group == "BLOCK" — find the terminator directly
            close = text.find("*/", end)
            if close < 0:
                self._sync(pos, line, line_start)
                raise LexerError("unterminated block comment", location)
            body = text[end:close]
            newlines = body.count("\n")
            if newlines:
                line += newlines
                line_start = end + body.rindex("\n") + 1
            if prev_is_doc:
                prev_is_doc = False
                pos = close + 2
                yield Token(TokenKind.DOC_COMMENT, body.strip(), location)
                continue
            pos = close + 2
        self._sync(pos, line, line_start)
        yield Token(TokenKind.EOF, "",
                    SourceLocation(filename, line, pos - line_start + 1))

    def tokens(self) -> list[Token]:
        """Scan the whole input and return the token list (EOF-terminated)."""
        return list(self.stream())

    # -- error reporting ---------------------------------------------------

    def _sync(self, pos: int, line: int, line_start: int) -> None:
        self.pos = pos
        self.line = line
        self.line_start = line_start

    def _fail(self, pos: int) -> None:
        """Classify the character the master regex refused to match."""
        location = SourceLocation(self.filename, self.line,
                                  pos - self.line_start + 1)
        ch = self.text[pos]
        if ch in "'\"":
            # a quote that did not scan as a complete literal: either
            # the closing quote is missing or a raw newline intervened
            raise LexerError("unterminated string literal", location)
        raise LexerError(f"unexpected character {ch!r}", location)


def iter_tokens(text: str, filename: str = "<model>") -> Iterator[Token]:
    """Stream the tokens of *text*; the final token is always EOF."""
    return Lexer(text, filename).stream()


def tokenize(text: str, filename: str = "<model>") -> list[Token]:
    """Convenience wrapper: lex *text* and return the token list."""
    return Lexer(text, filename).tokens()

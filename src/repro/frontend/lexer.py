"""Regex-driven lexer for ZL.

Produces a list of :class:`~repro.frontend.tokens.Token` ending in a single
``EOF`` token.  Comments are ``-- to end of line`` (Pascal/ZPL style) and
``/* ... */`` block comments (non-nesting).  Numeric literals follow the
usual forms: ``123``, ``1.5``, ``1.5e-3``, ``2e10``, ``.5``; a ``.``
followed by another ``.`` is the range operator, so ``1..n`` is
``1 .. n``.

One compiled pattern matches a token at a time; its alternatives are
tried in order, so comments win over ``-`` and ``/``, floats over
integers, and the operators longest first.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError
from repro.frontend.source import SourceFile
from repro.frontend.tokens import KEYWORDS, Token, TokenKind

#: Lexeme -> kind for every operator and punctuation kind: the kinds
#: whose value is the lexeme itself (no letters or digits in it).
_OPERATORS = {k.value: k for k in TokenKind if not re.search(r"\w", k.value)}

_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|--[^\n]*|/\*.*?\*/)"
    r"|(?P<open>/\*)"
    r"|(?P<float>(?:\d+\.(?!\.)\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<op>"
    + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    + ")",
    re.S,
)


def tokenize(text: str, filename: str = "<string>") -> List[Token]:
    """Tokenize ZL source text.

    Parameters
    ----------
    text:
        The program source.
    filename:
        Name used in diagnostics.

    Returns
    -------
    list of Token
        Always ends with an ``EOF`` token.
    """
    src = SourceFile(text, filename)
    tokens: List[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        group = m.lastgroup if m else None
        if group == "skip":
            newlines = text.count("\n", pos, m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, m.end()) + 1
            pos = m.end()
            continue
        loc = src.location(line, pos - line_start + 1)
        if group == "open":
            raise LexError("unterminated block comment", loc)
        # a name starts with a letter or '_'; \w also admits numeric
        # characters such as '½'
        c = text[pos]
        if group is None or group == "word" and not (c.isalpha() or c == "_"):
            raise LexError(f"unexpected character {c!r}", loc)
        lexeme = m.group()
        if group == "word":
            keyword = KEYWORDS.get(lexeme.lower())
            if keyword is None:
                tokens.append(Token(TokenKind.IDENT, lexeme, loc))
            else:
                tokens.append(Token(keyword, lexeme.lower(), loc))
        elif group == "float":
            tokens.append(Token(TokenKind.FLOATLIT, float(lexeme), loc))
        elif group == "int":
            tokens.append(Token(TokenKind.INTLIT, int(lexeme), loc))
        else:
            tokens.append(Token(_OPERATORS[lexeme], lexeme, loc))
        pos = m.end()
    tokens.append(Token(TokenKind.EOF, "", src.location(line, pos - line_start + 1)))
    return tokens

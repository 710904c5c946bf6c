"""Reference tokenizer: the regular expression that ``hh3.expr`` scanned with.

:func:`hh3.expr._tokenize` is a hand-written scan over the same three token
classes, so the tests hold it to the tokens, or the syntax error, that
:func:`tokenize_reference` gives on the same text.
"""

from __future__ import annotations

import re

from hh3.errors import ExprSyntaxError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def tokenize_reference(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, then ("end", "", len(source))."""
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            # skip leading whitespace before reporting the bad character
            stripped = pos + len(source[pos:]) - len(source[pos:].lstrip())
            if stripped >= len(source):
                break
            raise ExprSyntaxError(stripped, ("a token",),
                                  repr(source[stripped]))
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(source)))
    return tokens

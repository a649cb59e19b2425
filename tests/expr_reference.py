"""The parser reference: the tokenizer and recursive-descent parser that
``rectmvt.expr.parse`` must agree with, tree for tree and error for error.

``_tokenize`` builds one ``_Token`` per token and ``_Parser`` descends over
them with one method per grammar rule.  The one intended difference: for a
number literal too large for a float this parser returns ``Const(inf)``, where
``parse`` raises :class:`ParseError`.  A helper module for the tests, not a
test file.
"""

import re
from dataclasses import dataclass

from rectmvt.expr import (
    _ALIASES,
    _CONSTANTS,
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    ParseError,
    Var,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "end", or the operator/paren character itself
    text: str
    offset: int


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(i, "unexpected character", c)
    tokens.append(_Token("end", "", n))
    return tokens



class _Parser:
    """Recursive descent; each rule returns its node and its nesting height."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses, minus signs, exponents and calls open at pos

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def level(self, tok: _Token, *heights: int) -> int:
        """Height of the construct ``tok`` opens over operands of these heights."""
        height = max(heights) + 1
        if height > MAX_DEPTH:
            raise ParseError(tok.offset, "nested too deeply", tok.text)
        return height

    def nested(self, tok: _Token, rule, *heights: int) -> tuple[Expression, int]:
        """``rule()`` inside the construct ``tok`` opens, and the construct's height.

        A construct is at least as high as it is deep, so checking the depth on
        the way down rejects deep input before the recursion gets deep.
        """
        self.depth = self.level(tok, self.depth)
        node, height = rule()
        self.depth -= 1
        return node, self.level(tok, height, *heights)

    def expr(self) -> tuple[Expression, int]:
        node, height = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            right, right_height = self.term()
            node, height = BinOp(tok.kind, node, right), self.level(tok, height, right_height)
        return node, height

    def term(self) -> tuple[Expression, int]:
        node, height = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            right, right_height = self.factor()
            node, height = BinOp(tok.kind, node, right), self.level(tok, height, right_height)
        return node, height

    def factor(self) -> tuple[Expression, int]:
        if self.peek().kind == "-":
            tok = self.advance()
            child, height = self.nested(tok, self.factor)
            return Neg(child), height
        return self.power()

    def power(self) -> tuple[Expression, int]:
        node, height = self.atom()
        if self.peek().kind == "^":
            tok = self.advance()
            # right-associative: the exponent restarts at factor level
            exponent, height = self.nested(tok, self.factor, height)
            return BinOp("^", node, exponent), height
        return node, height

    def atom(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text)), 0
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name]), 0
            if name in _ALIASES:
                return Var(_ALIASES[name]), 0
            if name in FUNCTIONS:
                opener = self.peek()
                if opener.kind != "(":
                    raise ParseError(opener.offset, "expected '(' after function name", opener.text)
                self.advance()
                arg, height = self.nested(tok, self.expr)
                closer = self.peek()
                if closer.kind != ")":
                    raise ParseError(closer.offset, "unbalanced parentheses", closer.text)
                self.advance()
                return Call(name, arg), height
            raise ParseError(tok.offset, "unknown identifier", name)
        if tok.kind == "(":
            self.advance()
            node, height = self.nested(tok, self.expr)
            closer = self.peek()
            if closer.kind != ")":
                raise ParseError(closer.offset, "unbalanced parentheses", closer.text)
            self.advance()
            return node, height
        raise ParseError(tok.offset, "empty operand", tok.text)


def parse(text: str) -> Expression:
    """Parse expression text into a tree, normalizing the t/s aliases to x/y.

    Input nested more than :data:`MAX_DEPTH` levels deep raises :class:`ParseError`.
    """
    if not text or not text.strip():
        raise ParseError(0, "empty input")
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, "trailing garbage", tok.text)
    return node

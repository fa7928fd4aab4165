"""Tiny recursive-descent evaluator for algebraic expression strings.

Shared by the field-element parser and the polynomial parser.  The grammar
covers what config files need and nothing more:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom (('^' | '**') INT)?
    atom   := INT | NAME | '(' expr ')' | '-' factor

There is no implicit multiplication and no division; coefficients and
variables must be joined with an explicit '*'.
"""

import re

from .errors import ValidationError

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*^()]))")


def tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValidationError(f"cannot tokenize {rest[:12]!r} in expression {text!r}")
        num, name, op = m.groups()
        if num is not None:
            out.append(("int", int(num)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("op", op))
        pos = m.end()
    out.append(("end", None))
    return out


def writes_as_variable(name, atom) -> bool:
    """Whether an expression can write `name` as a variable: it is one NAME
    token, and `atom`, the reader of the constants beside it, rejects it."""
    m = isinstance(name, str) and _TOKEN.fullmatch(name)
    if m and m.group(2) == name:
        try:
            atom(name)
        except ValidationError:
            return True
    return False


class Evaluator:
    """Evaluates an expression over caller-supplied semantics.

    `atom(name_or_int)` maps a NAME string or an int literal to a value;
    `add`, `mul`, `neg` combine values; `pow_int(value, n)` raises to a
    nonnegative integer power.
    """

    def __init__(self, atom, add, mul, neg, pow_int):
        self.atom = atom
        self.add = add
        self.mul = mul
        self.neg = neg
        self.pow_int = pow_int

    def evaluate(self, text):
        self._tokens = tokenize(text)
        self._pos = 0
        try:
            value = self._expr()
        except RecursionError:  # one level per parenthesis and per unary minus
            raise ValidationError(f"expression nests too deeply: {text[:40]!r}...") from None
        kind, tok = self._peek()
        if kind != "end":
            raise ValidationError(f"unexpected {tok!r} in expression {text!r}")
        return value

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expr(self):
        value = self._term()
        while True:
            kind, tok = self._peek()
            if kind == "op" and tok in "+-":
                self._next()
                rhs = self._term()
                value = self.add(value, self.neg(rhs) if tok == "-" else rhs)
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            kind, tok = self._peek()
            if kind == "op" and tok == "*":
                self._next()
                value = self.mul(value, self._factor())
            else:
                return value

    def _factor(self):
        value = self._atomic()
        kind, tok = self._peek()
        if kind == "op" and tok in ("^", "**"):
            self._next()
            ekind, exp = self._next()
            if ekind != "int":
                raise ValidationError("exponent must be a nonnegative integer literal")
            value = self.pow_int(value, exp)
        return value

    def _atomic(self):
        kind, tok = self._next()
        if kind in ("int", "name"):
            return self.atom(tok)
        if kind == "op" and tok == "(":
            value = self._expr()
            kind, tok = self._next()
            if not (kind == "op" and tok == ")"):
                raise ValidationError("unbalanced parentheses")
            return value
        if kind == "op" and tok == "-":
            return self.neg(self._factor())
        raise ValidationError(f"unexpected token {tok!r}")

"""Sparse multivariate polynomials, term orders, and ideal presentations.

A monomial is encoded as one integer, its order key:

    key = (order fields << nvars * EXP_BITS) | exponent fields

The exponent fields hold e_0, ..., e_(n-1) in variable order, EXP_BITS
(32) bits each, e_i at bit EXP_BITS * i.  The top bit of each field is a
guard bit: exponents stay below 2^31 (MAX_EXPONENT) wherever monomials
are created or multiplied through the public API, and exceeding the
bound raises ExponentOverflow (an OverflowError and a ValidationError)
instead of silently corrupting lengths.  Products and bracket powers
test the bound on the guard bits of the keys, without decoding: the sum
of two keys sets a guard bit exactly when an exponent of the product
reaches 2^31, and a bracket power checks every term against the largest
exponent that q can scale.  The order fields above them are, most
significant first,

    degrevlex:  deg, deg - e[rev_0], ..., deg - e[rev_(n-2)]
    lex:        the exponents in priority order

with rev the reversed priority, each just wide enough for a degree up
to nvars * 2^32, which covers a sum of two keys whose exponents are each
below 2^31.

Both parts are linear in the exponent vector and every field stays
nonnegative, so the key is one weighted sum of the exponents (`encode`),
key addition is monomial multiplication, scaling a key by q raises the
monomial to the q-th power, and the fields never carry into each other.
Integer comparison of keys is then the term order, decided by the order
fields, and `decode` reads the exponent fields.  The groebner module
tests divisibility on the exponent fields of the keys themselves: with
exponents below 2^31, u divides v exactly when ((v | guard) - u) & guard
== guard, and the order part above cannot reach those bits.

A polynomial stores its terms as a tuple of (key, raw coefficient) pairs
sorted strictly descending; the raw coefficients live in the ring's
coefficient domain (see coeff).  The `terms` property decodes to public
(FieldElement, Monomial) pairs.

A scalar (an int or a FieldElement) becomes a polynomial only through
PolynomialRing.constant, whether it is given alone or as an operand of
+, - or *: an int maps through the domain's from_int and anything else
through domain(value), the coercion rule of coeff.  So an element of
another field raises StructuralError, and over the integers so does
every scalar that is not an int.
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement

from ._expr import Evaluator, writes_as_variable
from .coeff import Field, FieldElement, power
from .errors import ExponentOverflow, StructuralError, ValidationError

EXP_BITS = 32  # width of one exponent field
FIELD_MASK = (1 << EXP_BITS) - 1
MAX_EXPONENT = 1 << (EXP_BITS - 1)  # the guard bit of a field


class IntegerDomain:
    """Plain integer coefficients; used only to hold parametric families
    over Z before reduction mod p.  Not a field: no inverses, and only the
    raw operations that parsing and polynomial arithmetic use."""

    kind = "integers"
    characteristic = 0
    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def from_int(n):
        return n

    @staticmethod
    def format_raw(a):
        return str(a)

    def _parse_atom(self, tok):
        if isinstance(tok, int):
            return tok
        raise ValidationError(f"unknown symbol {tok!r} over the integers")

    def __eq__(self, other):
        return isinstance(other, IntegerDomain)

    def __hash__(self):
        return hash("integers")

    def __repr__(self):
        return "ZZ"


class TermOrder:
    """A monomial order: 'degrevlex' (default) or 'lex', with an optional
    variable priority permutation (indices, most significant first)."""

    KINDS = ("degrevlex", "lex")

    def __init__(self, kind: str = "degrevlex", priority=None):
        if kind not in self.KINDS:
            raise ValidationError(f"unknown term order {kind!r}")
        self.kind = kind
        self.priority = None if priority is None else tuple(priority)

    def resolved_priority(self, nvars: int):
        if self.priority is None:
            return tuple(range(nvars))
        if sorted(self.priority) != list(range(nvars)):
            raise ValidationError(
                f"priority {self.priority} is not a permutation of 0..{nvars - 1}"
            )
        return self.priority

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and other.kind == self.kind
            and other.priority == self.priority
        )

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        extra = f", priority={self.priority}" if self.priority else ""
        return f"TermOrder({self.kind!r}{extra})"


class Monomial:
    """Exponent vector with its order key."""

    __slots__ = ("exponents", "key")

    def __init__(self, exponents, key):
        self.exponents = exponents
        self.key = key

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and other.exponents == self.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial{self.exponents}"


class PolynomialRing:
    """A polynomial ring: coefficient domain, variable names, term order."""

    def __init__(self, domain, variables, order: TermOrder | None = None):
        self.domain = domain
        self.variables = tuple(variables)
        if not self.variables:
            raise ValidationError("a polynomial ring needs at least one variable: 'vars' is empty")
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"duplicate variable names: {self.variables}")
        for name in self.variables:
            if not writes_as_variable(name, domain._parse_atom):
                raise ValidationError(f"{name!r} cannot be written as a variable over {domain!r}")
        self.nvars = len(self.variables)
        self.order = order or TermOrder()
        self._priority = self.order.resolved_priority(self.nvars)
        n = self.nvars
        # the layout of the module docstring
        self.exp_mask = (1 << (n * EXP_BITS)) - 1
        self.guard = sum(MAX_EXPONENT << (EXP_BITS * i) for i in range(n))
        width = (n << EXP_BITS).bit_length()  # of one order field
        fields = [1 << (n * EXP_BITS + width * (n - 1 - j)) for j in range(n)]
        high = [0] * n
        if self.order.kind == "degrevlex":
            # x_var counts in the degree field and in each deg - e[u], u != var
            every = sum(fields)
            own = fields[1:] + [0]
            for j, var in enumerate(reversed(self._priority)):
                high[var] = every - own[j]
            self._degree_shift = n * EXP_BITS + width * (n - 1)
        else:  # lex
            for i, var in enumerate(self._priority):
                high[var] = fields[i]
        # the key of x_i
        self._weights = [(1 << (EXP_BITS * i)) + high[i] for i in range(n)]

    # -- monomial encoding ---------------------------------------------------

    def encode(self, exponents) -> int:
        key = 0
        for e, w in zip(exponents, self._weights):
            if e >= MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} exceeds 2^31")
            key += e * w
        return key

    def decode(self, key: int):
        return tuple((key >> (EXP_BITS * i)) & FIELD_MASK for i in range(self.nvars))

    def key_of_fields(self, fields: int) -> int:
        """The key whose exponent fields are `fields`."""
        key = 0
        for w in self._weights:
            key += (fields & FIELD_MASK) * w
            fields >>= EXP_BITS
        return key

    def lcm_fields(self, a: int, b: int) -> int:
        """Exponent fields of the lcm (fieldwise maximum) of the monomials
        with keys, or exponent fields, a and b."""
        guard = self.guard
        a_ge_b = ((a | guard) - b) & guard
        mask = (a_ge_b >> (EXP_BITS - 1)) * FIELD_MASK
        return (a & mask) | (b & (self.exp_mask ^ mask))

    def monomial(self, exponents) -> Monomial:
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise StructuralError("exponent vector length != number of variables")
        return Monomial(exponents, self.encode(exponents))

    def monomial_from_key(self, key: int) -> Monomial:
        return Monomial(self.decode(key), key)

    # -- polynomial construction ----------------------------------------------

    def polynomial(self, raw_terms) -> "Polynomial":
        """Canonicalize a (key, raw) iterable: merge, drop zeros, sort."""
        acc = {}
        dom = self.domain
        for key, coeff in raw_terms:
            prev = acc.get(key)
            acc[key] = coeff if prev is None else dom.add(prev, coeff)
        terms = tuple(
            (k, c) for k, c in sorted(acc.items(), reverse=True) if not dom.is_zero(c)
        )
        return Polynomial(self, terms)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, ((0, self.domain.one),))

    def constant(self, value) -> "Polynomial":
        if isinstance(value, int):
            raw = self.domain.from_int(value)
        elif isinstance(self.domain, Field):
            raw = self.domain(value).raw
        else:
            raise StructuralError(f"cannot coerce {value!r} into {self.domain}")
        if self.domain.is_zero(raw):
            return self.zero
        return Polynomial(self, ((0, raw),))

    def var(self, name: str) -> "Polynomial":
        try:
            i = self.variables.index(name)
        except ValueError:
            raise ValidationError(f"variable {name!r} not declared in ring {self}")
        key = self.encode(tuple(1 if j == i else 0 for j in range(self.nvars)))
        return Polynomial(self, ((key, self.domain.one),))

    def gens(self):
        return tuple(self.var(v) for v in self.variables)

    def parse(self, text: str, values: dict | None = None) -> "Polynomial":
        """The polynomial written in `text`.  A name in `values` reads as the
        constant with that raw coefficient, ahead of the domain's own
        symbols; a family's fiber passes its point this way."""

        def atom(tok):
            if tok in self.variables:
                return self.var(tok)
            # then `values`, int literals and the coefficient field's own symbols
            # (extension generator, rational-function transcendental) are constants
            try:
                raw = values[tok] if values and tok in values else self.domain._parse_atom(tok)
            except ValidationError:
                raise ValidationError(
                    f"variable {tok!r} not declared in ring with variables {self.variables}"
                )
            return Polynomial(self, ((0, raw),)) if not self.domain.is_zero(raw) else self.zero

        return Evaluator(
            atom=atom,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=lambda a: -a,
            pow_int=lambda a, n: a**n,
        ).evaluate(text)

    def convert(self, poly: "Polynomial") -> "Polynomial":
        """Re-sort a polynomial from a ring that differs only in term order."""
        if poly.ring is self or poly.ring == self:
            return Polynomial(self, poly._terms) if poly.ring is not self else poly
        if (poly.ring.domain, poly.ring.variables) != (self.domain, self.variables):
            raise StructuralError("cannot convert between different rings")
        terms = [(self.encode(poly.ring.decode(k)), c) for k, c in poly._terms]
        return self.polynomial(terms)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.domain == self.domain
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.domain, self.variables, self.order))

    def __repr__(self):
        return f"{self.domain!r}[{', '.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial; `_terms` is ((key, raw), ...) descending."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolynomialRing, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    @property
    def terms(self):
        """Public view: ((coefficient, monomial), ...) descending."""
        ring = self.ring
        return tuple(
            (FieldElement(ring.domain, c) if isinstance(ring.domain, Field) else c,
             ring.monomial_from_key(k))
            for k, c in self._terms
        )

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValidationError("zero polynomial has no leading monomial")
        return self.ring.monomial_from_key(self._terms[0][0])

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        if self.ring.order.kind == "degrevlex":
            return self._terms[0][0] >> self.ring._degree_shift
        return max(sum(self.ring.decode(k)) for k, _ in self._terms)

    # -- arithmetic -----------------------------------------------------------

    def _operand(self, other):
        """`other` as a polynomial of this ring, or NotImplemented."""
        if isinstance(other, (int, FieldElement)):
            return self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring is not self.ring and other.ring != self.ring:
            raise StructuralError("polynomials of different rings")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.polynomial(list(self._terms) + list(other._terms))

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.domain.neg
        return Polynomial(self.ring, tuple((k, neg(c)) for k, c in self._terms))

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # a scalar is a one-term polynomial, so the product loop serves it
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return self.ring.zero
        dom = self.ring.domain
        acc: dict = {}
        short, long_ = (self._terms, other._terms)
        if len(short) > len(long_):
            short, long_ = long_, short
        for k1, c1 in short:
            for k2, c2 in long_:
                kk = k1 + k2
                prev = acc.get(kk)
                prod = dom.mul(c1, c2)
                acc[kk] = prod if prev is None else dom.add(prev, prod)
        guard = self.ring.guard
        if any(k & guard for k in acc):
            raise ExponentOverflow("monomial exponent overflow in product")
        terms = tuple(
            (k, c) for k, c in sorted(acc.items(), reverse=True) if not dom.is_zero(c)
        )
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        return power(operator.mul, self.ring.one, self, n)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return other.ring == self.ring and other._terms == self._terms

    def __hash__(self):
        return hash((self.ring, self._terms))

    def __repr__(self):
        if not self._terms:
            return "0"
        ring = self.ring
        fmt = ring.domain.format_raw
        parts = []
        for k, c in self._terms:
            exps = ring.decode(k)
            factors = []
            for name, e in zip(ring.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            coeff_s = fmt(c)
            if not factors:
                parts.append(f"({coeff_s})" if " " in coeff_s or "/" in coeff_s else coeff_s)
                continue
            mono_s = "*".join(factors)
            if coeff_s == "1":
                parts.append(mono_s)
            elif " " in coeff_s or "/" in coeff_s or "+" in coeff_s:
                parts.append(f"({coeff_s})*{mono_s}")
            else:
                parts.append(f"{coeff_s}*{mono_s}")
        return " + ".join(parts)


class IdealPresentation:
    """A finite list of nonzero generators in a common ring."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolynomialRing, generators):
        generators = tuple(generators)
        if not generators:
            raise ValidationError("ideal presentation needs at least one generator")
        for g in generators:
            if not isinstance(g, Polynomial):
                raise StructuralError(f"generator {g!r} is not a Polynomial")
            if g.ring != ring:
                raise StructuralError("generator from a different ring")
            if g.is_zero():
                raise ValidationError("zero polynomial cannot be an ideal generator")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, *_):
        raise AttributeError("IdealPresentation is immutable")

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.generators)
        return f"({inner})"


def _power_of_char(q: int, p: int) -> int:
    """Return e with q = p^e, or raise."""
    if q < 1:
        raise ValidationError(f"bracket-power exponent must be >= 1: {q}")
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValidationError(f"{q} is not a power of the characteristic {p}")
    return e


def frobenius_power(I: IdealPresentation, q: int) -> IdealPresentation:
    """The Frobenius bracket power I^[q] = (g^q : g generator), q = p^e.

    Generator q-th powers suffice because the e-th Frobenius is a ring
    endomorphism; g^q is computed termwise via c^q = Frobenius^e(c) and
    exponent scaling, which is exact in characteristic p.
    """
    ring = I.ring
    p = ring.domain.characteristic
    if not p:
        raise ValidationError("bracket powers need positive characteristic")
    e = _power_of_char(q, p)
    if e == 0:
        return I
    dom = ring.domain
    guard = ring.guard
    # top holds (2^31 - 1) // q, the largest exponent q can scale, in
    # every field, with the guard bits: a term's exponents are all at most
    # that exactly when (top - k) keeps every guard bit
    top = (MAX_EXPONENT - 1) // q * (guard >> (EXP_BITS - 1)) | guard
    gens = []
    for g in I.generators:
        if any((top - k) & guard != guard for k, _ in g._terms):
            raise ExponentOverflow("monomial exponent overflow in bracket power")
        # key scaling is exact: encode is linear in the exponent vector
        gens.append(
            Polynomial(ring, tuple((k * q, dom.frobenius_raw(c, e)) for k, c in g._terms))
        )
    return IdealPresentation(ring, gens)


def ordinary_power(I: IdealPresentation, n: int) -> IdealPresentation:
    """I^n generated by all n-fold products of generators (duplicates removed)."""
    if n < 1:
        raise ValidationError(f"ordinary power wants n >= 1: {n}")
    seen = {}
    for combo in combinations_with_replacement(I.generators, n):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        seen.setdefault(prod._terms, prod)
    return IdealPresentation(I.ring, tuple(seen.values()))

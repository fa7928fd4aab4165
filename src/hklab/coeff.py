"""Exact arithmetic in the three coefficient fields of the library.

Supported fields are prime fields F_p, finite extensions GF(p^m), and
univariate rational-function fields F_p(t) (or GF(p^m)(t)), always in
positive characteristic p < 2**31.

Raw representations, chosen so that canonical form makes `==` work:

  * F_p          -- an int in [0, p),
  * GF(p^m)      -- a tuple of m ints in [0, p), coefficients of the
                    generator powers s^0 .. s^(m-1),
  * F_p(t)       -- a pair (numerator, denominator) of univariate
                    polynomials in lowest terms with monic denominator.
                    Univariate polynomials over F_2 are stored as int
                    bitmasks (bit i = coefficient of t^i); over other
                    base fields as dense low-to-high coefficient tuples.

Calling a field, K(value), is the one rule that turns an outside value
into a coefficient: an int maps through from_int, a string is parsed,
an element of K is returned as it is, and an element of another field
raises StructuralError.  FieldElement operators, polynomial scalars and
fiber values all go through it; an int literal inside a parsed string
becomes a coefficient in Field._parse_atom.

Field objects expose raw-level methods (add, mul, inv, ...) used by the
polynomial engine's hot loops; FieldElement is a thin immutable wrapper
with operator overloading for everything user-facing, all binary
operators built by one helper over those methods.  Two fields are equal
when their `_key()` tuples are, and hash by that key.

A GF(p^m) of at most _TABLE_MAX_SIZE elements multiplies, inverts and
raises to powers by discrete-log (log/antilog) table lookup, with tables
built from the powers of its first primitive element; its raw elements
are the same m-tuples.  Larger extensions multiply by `_mulmod`, the one
product modulo the modulus (also the product of the irreducibility test
and of the table build), and invert by extended Euclid; both are the
reference the table path is tested against.
"""

from __future__ import annotations

from ._expr import Evaluator, writes_as_variable
from .errors import StructuralError, ValidationError

MAX_CHARACTERISTIC = 1 << 31
_TABLE_MAX_SIZE = 1 << 12  # larger GF(p^m) multiply by convolution, without tables


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are < 2**31."""
    return _prime_divisors(n) == [n]


def _prime_divisors(n: int) -> list:
    """The distinct primes dividing n, ascending ([] for n < 2), by trial
    division by 2 and then by odd numbers only."""
    out = []
    if n > 0 and not n & 1:
        out.append(2)
        n //= n & -n  # every factor 2
    for d in range(3, n, 2):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    if n > 1:
        out.append(n)
    return out


def _digit_vectors(p: int, m: int):
    """The base-p digit m-tuples of 0, 1, ..., p^m - 1, lowest digit first."""
    return (tuple(v // p**i % p for i in range(m)) for v in range(p**m))


# ---------------------------------------------------------------------------
# Univariate polynomial helpers.
#
# _BinaryPolys: polynomials over F_2 as int bitmasks (fast XOR arithmetic).
# _DensePolys:  polynomials over an arbitrary coefficient field as tuples.
# Both expose the same method surface so RationalFunctionField can treat
# them interchangeably, and share one Euclid.
# ---------------------------------------------------------------------------


class _UnivariatePolys:
    def gcd_monic(self, a, b):
        while b:  # the zero polynomial, 0 or (), is false in both
            a, b = b, self.divmod(a, b)[1]
        return self.make_monic(a)


class _BinaryPolys(_UnivariatePolys):
    zero = 0
    one = 1

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def deg(a):
        return a.bit_length() - 1

    @staticmethod
    def add(a, b):
        return a ^ b

    sub = add

    @staticmethod
    def neg(a):
        return a

    @staticmethod
    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r

    @staticmethod
    def divmod(a, b):
        if b == 0:
            raise ZeroDivisionError("univariate division by zero")
        db = b.bit_length()
        q = 0
        while (shift := a.bit_length() - db) >= 0:
            q |= 1 << shift
            a ^= b << shift
        return q, a

    @staticmethod
    def make_monic(a):
        return a  # over F_2 every nonzero polynomial is monic

    @staticmethod
    def frobenius_step(a):
        # (sum a_i t^i)^2 = sum a_i t^(2i) in characteristic 2
        r = 0
        while a:
            low = a & -a
            r |= 1 << (2 * (low.bit_length() - 1))
            a ^= low
        return r

    @staticmethod
    def coeffs(a):
        return tuple((a >> i) & 1 for i in range(a.bit_length()))

    @staticmethod
    def from_coeffs(cs):
        r = 0
        for i, c in enumerate(cs):
            if c:
                r |= 1 << i
        return r


class _DensePolys(_UnivariatePolys):
    """Dense univariate arithmetic over a coefficient field `K` (raw level)."""

    def __init__(self, K):
        self.K = K
        self.zero = ()
        self.one = (K.one,)

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def deg(a):
        return len(a) - 1

    def _trim(self, cs):
        n = len(cs)
        while n and self.K.is_zero(cs[n - 1]):
            n -= 1
        return tuple(cs[:n])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.K.add(out[i], c)
        return self._trim(out)

    def neg(self, a):
        return tuple(self.K.neg(c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.K.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if self.K.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = self.K.add(out[i + j], self.K.mul(ca, cb))
        return self._trim(out)

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("univariate division by zero")
        inv_lead = self.K.inv(b[-1])
        rem = list(a)
        q = [self.K.zero] * max(len(a) - len(b) + 1, 0)
        while len(rem) >= len(b):
            while rem and self.K.is_zero(rem[-1]):
                rem.pop()
            if len(rem) < len(b):
                break
            factor = self.K.mul(rem[-1], inv_lead)
            shift = len(rem) - len(b)
            q[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] = self.K.sub(rem[shift + i], self.K.mul(factor, c))
            rem.pop()
        return self._trim(q), self._trim(rem)

    def make_monic(self, a):
        if not a or a[-1] == self.K.one:
            return a
        inv_lead = self.K.inv(a[-1])
        return tuple(self.K.mul(c, inv_lead) for c in a)

    def frobenius_step(self, a):
        p = self.K.characteristic
        if not a:
            return ()
        out = [self.K.zero] * ((len(a) - 1) * p + 1)
        for i, c in enumerate(a):
            out[i * p] = self.K.frobenius_raw(c, 1)
        return self._trim(out)

    @staticmethod
    def coeffs(a):
        return a

    def from_coeffs(self, cs):
        return self._trim(tuple(cs))


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def power(mul, one, a, n):
    """a^n for n >= 0 by square-and-multiply with the product `mul`; no
    square is formed past the top bit of n."""
    r = one
    while n:
        if n & 1:
            r = mul(r, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return r


class Field:
    """Common raw-level interface; concrete classes fill in the arithmetic."""

    kind = None  # "prime" | "extension" | "rational_function"
    characteristic = None
    size = None  # number of elements, or None when infinite

    def is_zero(self, a):
        return a == self.zero

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return power(self.mul, self.one, a, n)

    def frobenius_raw(self, a, e):
        return self.pow(a, self.characteristic**e)

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise StructuralError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, self.from_int(value))
        if isinstance(value, str):
            return self.parse(value)
        raise StructuralError(f"cannot coerce {value!r} into {self}")

    def element(self, raw) -> "FieldElement":
        return FieldElement(self, raw)

    def parse(self, text: str) -> "FieldElement":
        raw = Evaluator(
            atom=self._parse_atom,
            add=self.add,
            mul=self.mul,
            neg=self.neg,
            pow_int=self.pow,
        ).evaluate(text)
        return FieldElement(self, raw)

    def _parse_atom(self, tok):
        if isinstance(tok, int):
            return self.from_int(tok)
        raise ValidationError(f"unknown symbol {tok!r} for {self}")

    def elements(self):
        """Iterate all elements (finite fields only), in a fixed order."""
        raise ValidationError(f"{self} is not a finite field")

    def __eq__(self, other):
        return isinstance(other, Field) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())


class PrimeField(Field):
    """The prime field F_p; raw elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_CHARACTERISTIC:
            raise ValidationError(f"characteristic must be an integer in [2, 2^31): {p!r}")
        if not is_prime(p):
            raise ValidationError(f"characteristic {p} is not prime")
        self.p = p
        self.characteristic = p
        self.size = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inversion of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def frobenius_raw(self, a, e):
        return a  # Fermat: a^p = a on the prime field

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def format_raw(self, a):
        return str(a)

    def _key(self):
        return ("prime", self.p)

    def __repr__(self):
        return f"GF({self.p})"


def _mulmod(a, b, modulus, p):
    """The product of the m-coordinate tuples a and b modulo the monic
    `modulus` (m + 1 coefficients, low to high) over F_p: an integer
    convolution, then coefficients 2m - 2 down to m cleared with the
    modulus, then one reduction mod p."""
    m = len(modulus) - 1
    conv = [0] * (2 * m - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                conv[i + j] += ca * cb
    for i in range(2 * m - 2, m - 1, -1):
        c = conv[i] % p
        if c:
            for j in range(m):
                conv[i - m + j] -= c * modulus[j]
    return tuple(c % p for c in conv[:m])


def _format_powers(texts, name: str) -> str:
    """The univariate polynomial in `name` whose coefficients, low to high,
    print as `texts`, highest power first; a coefficient printed with a
    sign or a sum is parenthesized before a power."""
    parts = []
    for i in range(len(texts) - 1, -1, -1):
        text = texts[i]
        if text == "0":
            continue
        if i == 0:
            parts.append(text)
            continue
        if "+" in text or "-" in text:
            text = f"({text})"
        head = "" if text == "1" else f"{text}*"
        parts.append(f"{head}{name}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts) if parts else "0"


def _validate_irreducible(p: int, modulus: tuple) -> None:
    """Check a monic modulus over F_p for irreducibility.

    Uses gcd(f, x^(p^i) - x) == 1 for i <= deg(f)/2; the i = 1 step is the
    root (linear factor) check.
    """
    ops = _DensePolys(PrimeField(p))
    m = ops.deg(modulus)
    t = x = (0, 1) + (0,) * (m - 2)
    for _ in range(m // 2):
        # t = x^(p^i) mod f after i steps, as m coordinates
        t = power(lambda a, b: _mulmod(a, b, modulus, p), (1,) + (0,) * (m - 1), t, p)
        g = ops.gcd_monic(modulus, ops.sub(t, x))
        if ops.deg(g) > 0:
            raise ValidationError(f"modulus {modulus} is reducible over GF({p})")


class ExtensionField(Field):
    """GF(p^m) presented as F_p[s]/(modulus); raw elements are m-tuples.

    Up to _TABLE_MAX_SIZE elements, `_exp[k]` is g^k for g the first
    primitive element in `elements()` order (listed twice, so a sum of two
    logarithms needs no modulo) and `_log` maps each nonzero m-tuple to its
    exponent; above the cap both are None, products go through `_mulmod`
    and inverses through extended Euclid.
    In characteristic 2 up to the same cap, `_mask` maps each m-tuple to
    the integer whose bit i is its coordinate i and `_from_mask` inverts
    it, so a sum or difference is one XOR of two masks; otherwise both
    are None and coordinates add modulo p.
    """

    kind = "extension"
    generator = "s"  # the name of the class of s in F_p[s]/(modulus)

    def __init__(self, p: int, modulus):
        prime = PrimeField(p)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) < 3 or modulus[-1] != 1:
            raise ValidationError("extension modulus must be monic of degree >= 2")
        _validate_irreducible(p, modulus)
        self.p = p
        self.characteristic = p
        self.prime = prime
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.size = p**self.degree
        self.zero = (0,) * self.degree
        self.one = (1,) + (0,) * (self.degree - 1)
        self._ops = _DensePolys(prime)
        self._log = self._exp = None
        self._mask = self._from_mask = None
        if self.size <= _TABLE_MAX_SIZE:
            self._build_tables()
            if p == 2:
                self._from_mask = list(self.elements())  # v -> the bits of v
                self._mask = {a: v for v, a in enumerate(self._from_mask)}

    def _build_tables(self):
        """Fill the log/antilog tables from the powers of g, the first element
        in `elements()` order of multiplicative order q - 1: g^((q-1)/r) != 1
        for every prime r dividing q - 1 (the generator s need not be one).
        The powers must be q - 1 distinct nonzero elements; a StructuralError
        otherwise, with the tables left as they were."""
        order = self.size - 1
        cofactors = [order // r for r in _prime_divisors(order)]
        for g in self.elements():
            if g != self.zero and all(
                power(self._mul_conv, self.one, g, c) != self.one for c in cofactors
            ):
                break
        exp = [self.one]
        for _ in range(order - 1):
            exp.append(self._mul_conv(exp[-1], g))
        log = {a: k for k, a in enumerate(exp)}
        if len(log) != order or self.zero in log:
            raise StructuralError(f"{g} is not a primitive element of {self}")
        self._exp = exp + exp
        self._log = log

    def add(self, a, b):
        mask = self._mask
        if mask is not None:
            return self._from_mask[mask[a] ^ mask[b]]
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        mask = self._mask
        if mask is not None:  # characteristic 2: a - b = a + b
            return self._from_mask[mask[a] ^ mask[b]]
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._mul_conv(a, b)
        zero = self.zero
        if a == zero or b == zero:
            return zero
        return self._exp[log[a] + log[b]]

    def _mul_conv(self, a, b):
        return _mulmod(a, b, self.modulus, self.p)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero")
        if self._log is not None:
            return self._exp[-self._log[a] % (self.size - 1)]
        ops = self._ops
        # extended Euclid in F_p[s]
        r0, r1 = self.modulus, ops._trim(a)
        s0, s1 = ops.zero, ops.one
        while r1:
            q, r = ops.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, ops.sub(s0, ops.mul(q, s1))
        scale = self.prime.inv(r0[0])  # r0 is a nonzero constant
        inv = tuple(self.prime.mul(c, scale) for c in s0)
        return inv + (0,) * (self.degree - len(inv))

    def pow(self, a, n):
        if self._log is None or a == self.zero:
            return Field.pow(self, a, n)
        return self._exp[n * self._log[a] % (self.size - 1)]

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.degree - 1)

    def elements(self):
        return _digit_vectors(self.p, self.degree)

    def _parse_atom(self, tok):
        if tok == self.generator:
            return (0, 1) + (0,) * (self.degree - 2)
        return super()._parse_atom(tok)

    def format_raw(self, a):
        return _format_powers([str(c) for c in a], self.generator)

    def _key(self):
        return ("extension", self.p, self.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"


class RationalFunctionField(Field):
    """F_q(t): reduced fractions of univariate polynomials over the base."""

    kind = "rational_function"

    def __init__(self, base: Field, var: str = "t"):
        if base.kind not in ("prime", "extension"):
            raise ValidationError("rational-function base must be a finite field")
        if not writes_as_variable(var, base._parse_atom):
            raise ValidationError(f"{var!r} cannot be written as a variable over {base!r}")
        self.base = base
        self.var = var
        self.characteristic = base.characteristic
        self.size = None
        if base.kind == "prime" and base.p == 2:
            self._ops = _BinaryPolys()
        else:
            self._ops = _DensePolys(base)
        self.zero = (self._ops.zero, self._ops.one)
        self.one = (self._ops.one, self._ops.one)
        self.t = (self._ops.from_coeffs((base.zero, base.one)), self._ops.one)

    def _canon(self, num, den):
        ops = self._ops
        if ops.is_zero(den):
            raise ZeroDivisionError("zero denominator")
        if ops.is_zero(num):
            return (ops.zero, ops.one)
        g = ops.gcd_monic(num, den)
        if ops.deg(g) > 0:
            num = ops.divmod(num, g)[0]
            den = ops.divmod(den, g)[0]
        if isinstance(ops, _DensePolys):
            lead = den[-1]
            if lead != self.base.one:
                inv = self.base.inv(lead)
                num = tuple(self.base.mul(c, inv) for c in num)
                den = tuple(self.base.mul(c, inv) for c in den)
        return (num, den)

    def add(self, a, b):
        ops = self._ops
        one = ops.one
        if a[1] == one and b[1] == one:  # polynomials: nothing to cancel
            return (ops.add(a[0], b[0]), one)
        n = ops.add(ops.mul(a[0], b[1]), ops.mul(b[0], a[1]))
        return self._canon(n, ops.mul(a[1], b[1]))

    def neg(self, a):
        return (self._ops.neg(a[0]), a[1])

    def mul(self, a, b):
        ops = self._ops
        one = ops.one
        if a[1] == one and b[1] == one:
            return (ops.mul(a[0], b[0]), one)
        return self._canon(ops.mul(a[0], b[0]), ops.mul(a[1], b[1]))

    def inv(self, a):
        if self._ops.is_zero(a[0]):
            raise ZeroDivisionError("inversion of zero")
        return self._canon(a[1], a[0])

    def frobenius_raw(self, a, e):
        num, den = a
        for _ in range(e):
            num = self._ops.frobenius_step(num)
            den = self._ops.frobenius_step(den)
        return (num, den)

    def from_int(self, n):
        ops = self._ops
        return (ops.from_coeffs((self.base.from_int(n),)), ops.one)

    def _parse_atom(self, tok):
        if tok == self.var:
            return self.t
        if self.base.kind == "extension" and tok == self.base.generator:
            gen = self.base._parse_atom(tok)
            return (self._ops.from_coeffs((gen,)), self._ops.one)
        return super()._parse_atom(tok)

    def _format_upoly(self, a):
        return _format_powers([self.base.format_raw(c) for c in self._ops.coeffs(a)], self.var)

    def format_raw(self, a):
        num, den = a
        num_s = self._format_upoly(num)
        if den == self._ops.one:
            return num_s
        den_s = self._format_upoly(den)
        if " " in num_s:
            num_s = f"({num_s})"
        if " " in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def _key(self):
        return ("ratfunc", self.base, self.var)

    def __repr__(self):
        return f"{self.base!r}({self.var})"


def _operator(name):
    """The FieldElement operator applying the raw field method `name` to
    self and K(other); NotImplemented unless other is an int or a FieldElement."""

    def apply(self, other):
        if not isinstance(other, (FieldElement, int)):
            return NotImplemented
        field = self.field
        return FieldElement(field, getattr(field, name)(self.raw, field(other).raw))

    return apply


class FieldElement:
    """Immutable element wrapper; arithmetic delegates to the field."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    __add__ = __radd__ = _operator("add")
    __sub__ = _operator("sub")
    __mul__ = __rmul__ = _operator("mul")
    __truediv__ = _operator("div")

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.raw))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.raw, n))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.field == self.field and other.raw == self.raw
        if isinstance(other, int):
            return self.raw == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return not self.field.is_zero(self.raw)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.raw))

    def __repr__(self):
        return self.field.format_raw(self.raw)


def frobenius(a: FieldElement, e: int) -> FieldElement:
    """Apply the e-th Frobenius a -> a^(p^e)."""
    if e < 0:
        raise ValidationError("Frobenius exponent must be nonnegative")
    return FieldElement(a.field, a.field.frobenius_raw(a.raw, e))


def make_extension(p: int, m: int) -> Field:
    """GF(p^m) with the canonical (lexicographically smallest) modulus.

    The degree-1 "extension" is the prime field itself.  Candidate moduli
    x^m + a_(m-1) x^(m-1) + ... + a_0 are scanned in lexicographic order of
    (a_(m-1), ..., a_0), so a fixed (p, m) always yields the same field.
    """
    if m < 1:
        raise ValidationError(f"extension degree must be >= 1: {m}")
    if m == 1:
        return PrimeField(p)
    PrimeField(p)  # validates that p is prime before the scan
    for coeffs in _digit_vectors(p, m):
        try:
            return ExtensionField(p, coeffs + (1,))
        except ValidationError:  # a reducible candidate
            pass
    raise ValidationError(f"no irreducible modulus found for GF({p}^{m})")  # unreachable

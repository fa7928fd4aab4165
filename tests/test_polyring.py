"""Polynomials, term orders, and ideal powers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab import (
    FiberSpec,
    IdealPresentation,
    IntegerDomain,
    PolynomialRing,
    PrimeField,
    StructuralError,
    TermOrder,
    ValidationError,
    buchberger,
    frobenius_power,
    make_extension,
    ordinary_power,
)
from hklab.errors import ExponentOverflow

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

R2 = PolynomialRing(F2, ("x", "y", "z"))
R5 = PolynomialRing(F5, ("x", "y"))

exponents = st.tuples(*(st.integers(0, 9) for _ in range(3)))


@pytest.mark.parametrize(
    "order",
    [TermOrder("degrevlex"), TermOrder("lex"), TermOrder("degrevlex", (2, 0, 1)),
     TermOrder("lex", (1, 2, 0))],
    ids=str,
)
def test_term_order_is_total_multiplicative_with_1_minimal(order):
    ring = PolynomialRing(F2, ("x", "y", "z"), order)

    @settings(max_examples=150, deadline=None)
    @given(exponents, exponents, exponents)
    def run(u, v, w):
        ku, kv = ring.encode(u), ring.encode(v)
        assert (ku == kv) == (u == v)  # total order separates monomials
        if ku < kv:  # multiplicative: u < v implies uw < vw
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert ring.encode(uw) < ring.encode(vw)
        assert ring.encode((0, 0, 0)) <= ku  # 1 is minimal
        assert ring.decode(ku) == u
        # the exponent fields of the keys give divisibility and lcms
        guard = ring.guard
        assert (((kv | guard) - ku) & guard == guard) == all(a <= b for a, b in zip(u, v))
        lcm = tuple(max(a, b) for a, b in zip(u, v))
        fields = ring.lcm_fields(ku, kv)
        assert fields == ring.encode(lcm) & ring.exp_mask
        assert ring.key_of_fields(fields) == ring.encode(lcm)

    run()


def reference_less(u, v):
    """u < v in degrevlex with x_0 > x_1 > ..."""
    if sum(u) != sum(v):
        return sum(u) < sum(v)
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a > b
    return False


def test_degrevlex_reference_comparator():
    ring = PolynomialRing(F2, ("x", "y", "z"))
    rng = random.Random(7)
    for _ in range(500):
        u = tuple(rng.randrange(8) for _ in range(3))
        v = tuple(rng.randrange(8) for _ in range(3))
        assert (ring.encode(u) < ring.encode(v)) == reference_less(u, v)


def test_degrevlex_wide_ring_with_largest_exponents():
    # 300 variables with exponents near 2^31: every order field of a key,
    # and of a sum of two keys, must hold its value without carrying
    n = 300
    ring = PolynomialRing(F2, tuple(f"x{i}" for i in range(n)))
    rng = random.Random(11)
    top = (1 << 31) - 1
    for _ in range(100):
        u = [top - rng.randrange(4) for _ in range(n)]
        v = [top - rng.randrange(4) for _ in range(n)] if rng.randrange(2) else rng.sample(u, n)
        ku, kv = ring.encode(u), ring.encode(v)
        assert (ku < kv) == reference_less(u, v)
        assert ring.decode(ku) == tuple(u)
        assert ring.polynomial([(ku, 1)]).degree() == sum(u)
        w = [top - rng.randrange(4) for _ in range(n)]
        kw = ring.encode(w)
        uw = [a + b for a, b in zip(u, w)]
        vw = [a + b for a, b in zip(v, w)]
        assert (ku + kw < kv + kw) == reference_less(uw, vw)
        assert ring.decode(ku + kw) == tuple(uw)
        assert ring.polynomial([(ku + kw, 1)]).degree() == sum(uw)


def test_poly_arithmetic_examples():
    x, y, z = R2.gens()
    assert (x + y) ** 2 == x**2 + y**2  # freshman's dream in char 2
    assert (x * 0).is_zero()
    a, b = R5.gens()
    assert (a + 1) * (a - 1) == a**2 + 4


def test_canonical_form():
    x, y, _ = R2.gens()
    f = x + y + x  # duplicate monomial cancels in char 2
    assert f == y
    keys = [k for k, _ in (x**2 + x + 1)._terms]
    assert keys == sorted(keys, reverse=True)


def test_ring_mismatch_is_structural():
    x, _, _ = R2.gens()
    a, _ = R5.gens()
    with pytest.raises(StructuralError):
        x + a


def test_parser():
    f = R2.parse("z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2")
    assert f.degree() == 4 and len(f) == 5
    assert R2.parse("x**2") == R2.var("x") ** 2
    with pytest.raises(ValidationError):
        R2.parse("x + w")
    with pytest.raises(ValidationError):
        R2.parse("x + ")
    for text, message in [("x $ y", "cannot tokenize '\\$ y'"), ("x y", "unexpected 'y'"),
                          ("x^y", "nonnegative integer literal"),
                          ("(x + y", "unbalanced parentheses")]:
        with pytest.raises(ValidationError, match=message):
            R2.parse(text)


def test_frobenius_power_examples():
    x, y, z = R2.gens()
    I = IdealPresentation(R2, (x, y))
    I4 = frobenius_power(I, 4)
    assert set(I4.generators) == {x**4, y**4}
    assert frobenius_power(IdealPresentation(R2, (x + y,)), 2).generators[0] == x**2 + y**2
    a, b = R5.gens()  # wrong characteristic
    with pytest.raises(ValidationError):
        frobenius_power(IdealPresentation(R5, (a,)), 4)
    R3xy = PolynomialRing(F3, ("x", "y"))
    u, v = R3xy.gens()
    I3 = frobenius_power(IdealPresentation(R3xy, (u**2, u * v)), 3)
    assert set(I3.generators) == {u**6, u**3 * v**3}


def test_frobenius_power_composition_law():
    x, y, z = R2.gens()
    g = R2.parse("z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2")
    I = IdealPresentation(R2, (g, x + y * z))
    twice = frobenius_power(frobenius_power(I, 2), 2)
    once = frobenius_power(I, 4)
    assert buchberger(twice).elements == buchberger(once).elements


def test_frobenius_power_identity_at_q_one():
    x, y, _ = R2.gens()
    I = IdealPresentation(R2, (x + y,))
    assert frobenius_power(I, 1).generators == I.generators


def test_ordinary_power_examples():
    x, y, z = R2.gens()
    sq = ordinary_power(IdealPresentation(R2, (x, y)), 2)
    assert set(sq.generators) == {x**2, x * y, y**2}
    cube = ordinary_power(IdealPresentation(R2, (x, y, z)), 3)
    assert len(cube.generators) == 10  # C(3+3-1, 3) degree-3 monomials
    principal = ordinary_power(IdealPresentation(R2, (x + y,)), 5)
    assert principal.generators == ((x + y) ** 5,)


def test_monomial_ideal_powers_have_predictable_exponents():
    x, y, _ = R2.gens()
    I = IdealPresentation(R2, (x**2, y**3))
    for n in (2, 3):
        gens = ordinary_power(I, n).generators
        expected = {
            tuple((2 * i, 3 * (n - i), 0)) for i in range(n + 1)
        }
        got = {g.leading_monomial().exponents for g in gens}
        assert got == expected
    for q in (2, 4):
        gens = frobenius_power(I, q).generators
        assert {g.leading_monomial().exponents for g in gens} == {
            (2 * q, 0, 0), (0, 3 * q, 0)
        }


def test_exponent_overflow_is_fatal():
    x, _, _ = R2.gens()
    with pytest.raises(OverflowError):
        R2.encode((1 << 31, 0, 0))
    huge = R2.polynomial([(R2.encode((1 << 25, 0, 0)), 1)])
    with pytest.raises(OverflowError):
        frobenius_power(IdealPresentation(R2, (huge,)), 2**7)
    with pytest.raises(OverflowError):
        huge_sq = R2.polynomial([(R2.encode(((1 << 30) + 5, 0, 0)), 1)])
        huge_sq * huge_sq
    # the bound is per exponent: x^(2^30) * y^(2^30) is representable
    half = 1 << 30
    xh, yh = (R2.polynomial([(R2.encode(e), 1)]) for e in ((half, 0, 0), (0, half, 0)))
    assert (xh * yh).leading_monomial().exponents == (half, half, 0)
    assert (xh + 1) * (yh + 1) == xh * yh + xh + yh + 1
    with pytest.raises(ExponentOverflow, match="^monomial exponent overflow in product$"):
        xh * (xh + yh)
    # a bracket power takes each exponent up to (2^31 - 1) // q, and no further
    R3 = PolynomialRing(F3, ("x", "y"))
    for ring, q, gen in ((R2, 2**7, "z^{e}"), (R3, 3**3, "x + x*y^{e} + 1")):
        top = ((1 << 31) - 1) // q
        fits = frobenius_power(IdealPresentation(ring, (ring.parse(gen.format(e=top)),)), q)
        assert fits.generators[0].leading_monomial().exponents[-1] == top * q
        over = IdealPresentation(ring, (ring.parse(gen.format(e=top + 1)),))
        with pytest.raises(ExponentOverflow, match="^monomial exponent overflow in bracket power$"):
            frobenius_power(over, q)


def test_ideal_presentation_validation():
    x, y, _ = R2.gens()
    with pytest.raises(ValidationError):
        IdealPresentation(R2, ())
    with pytest.raises(ValidationError):
        IdealPresentation(R2, (x, R2.zero))
    a, _ = R5.gens()
    with pytest.raises(StructuralError):
        IdealPresentation(R2, (x, a))


def test_terms_view_round_trip():
    f = R2.parse("x^2*y + z + 1")
    rebuilt = R2.polynomial((mono.key, coeff.raw) for coeff, mono in f.terms)
    assert rebuilt == f
    degrees = [mono.degree for _, mono in f.terms]
    assert degrees == [3, 1, 0]


def test_repr_parses_back():
    import random

    from hklab import RationalFunctionField, make_extension

    rng = random.Random(99)
    rings = [
        R2,
        R5,
        PolynomialRing(make_extension(2, 2), ("x", "y")),
        PolynomialRing(RationalFunctionField(F2), ("x", "y")),
    ]
    for ring in rings:
        field = ring.domain
        pool = (
            list(field.elements())[: field.size]
            if field.size
            else [field.from_int(1), field.t, field.add(field.t, field.one)]
        )
        for _ in range(10):
            terms = []
            for _ in range(rng.randrange(1, 5)):
                exps = tuple(rng.randrange(4) for _ in range(ring.nvars))
                raw = pool[rng.randrange(len(pool))]
                if field.is_zero(raw):
                    continue
                terms.append((ring.encode(exps), raw))
            f = ring.polynomial(terms)
            assert ring.parse(repr(f)) == f, repr(f)


def test_a_name_that_an_expression_cannot_write_is_rejected():
    from hklab import RationalFunctionField

    gf4 = make_extension(2, 2)
    # over GF(4), "s" reads as the field generator, so x*s would print and parse wrongly
    for domain, variables in [
        (gf4, ("s", "x")),
        (RationalFunctionField(F2, "u"), ("x", "u")),
        (F2, ("x", "x^2")),
        (F2, ("x", "2")),
        (F2, ("x", " y")),
        (F2, ("x", "")),
    ]:
        with pytest.raises(ValidationError, match="cannot be written as a variable"):
            PolynomialRing(domain, variables)
    for base, var in [(gf4, "s"), (F2, "2"), (F2, "t^2"), (F2, "t t")]:
        with pytest.raises(ValidationError, match="cannot be written as a variable"):
            RationalFunctionField(base, var)
    ring = PolynomialRing(gf4, ("x", "y_1", "_z"))
    x = ring.gens()[0]
    f = x * gf4.parse("s")
    assert ring.parse(repr(f)) == f


def test_values_are_immutable():
    x, y, _ = R2.gens()
    f = x + y
    with pytest.raises(AttributeError):
        f._terms = ()
    ideal = IdealPresentation(R2, (x, y))
    with pytest.raises(AttributeError):
        ideal.generators = ()
    with pytest.raises(AttributeError):
        buchberger(ideal).elements = ()


@pytest.mark.parametrize("value", [6, -3, 0, 10, F5(3), F5(0)], ids=repr)
def test_scalars_agree_with_field_call(value):
    x, _ = R5.gens()
    c = F5(value).raw  # the one coercion rule
    const = R5.polynomial([(0, c)])
    assert R5.constant(value) == const
    assert x * value == value * x == R5.polynomial((k, F5.mul(r, c)) for k, r in x._terms)
    assert x + value == value + x == x + const
    assert x - value == x + (-const)
    assert value - x == const + (-x)
    a = F5(2)
    assert (a + value, a - value, a * value) == (F5(2 + c), F5(2 - c), F5(2 * c))
    assert (value + a, value - a, value * a) == (F5(c + 2), F5(c - 2), F5(c * 2))
    if c:
        assert a / value == F5.element(F5.div(2, c))


ALIEN = PrimeField(7)(6)
X5 = R5.var("x")
ZX = PolynomialRing(IntegerDomain(), ("x",)).var("x")


@pytest.mark.parametrize("call", [
    lambda: F5(1) + ALIEN, lambda: ALIEN + F5(1), lambda: F5(1) - ALIEN,
    lambda: ALIEN - F5(1), lambda: F5(1) * ALIEN, lambda: ALIEN * F5(1),
    lambda: F5(1) / ALIEN,
    lambda: X5 + ALIEN, lambda: ALIEN + X5, lambda: X5 - ALIEN, lambda: ALIEN - X5,
    lambda: X5 * ALIEN, lambda: ALIEN * X5, lambda: X5**2 + ALIEN,
    lambda: R5.constant(ALIEN), lambda: R2.constant(make_extension(2, 2)(1)),
    lambda: ZX.ring.constant(F5(1)), lambda: ZX + F5(6), lambda: F5(6) * ZX,
    lambda: FiberSpec.special(t=F5(1), u=ALIEN),
])
def test_an_element_of_another_field_is_structural_at_every_scalar_entry_point(call):
    with pytest.raises(StructuralError):
        call()

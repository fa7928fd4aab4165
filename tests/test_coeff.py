"""Field arithmetic: laws, Frobenius, canonical forms, construction."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab import (
    ExtensionField,
    PolynomialRing,
    PrimeField,
    RationalFunctionField,
    StructuralError,
    ValidationError,
    coeff,
    config,
    frobenius,
    make_extension,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
GF4 = make_extension(2, 2)
GF9 = make_extension(3, 2)
F2T = RationalFunctionField(PrimeField(2))
F3T = RationalFunctionField(PrimeField(3))
GF4T = RationalFunctionField(GF4)
# above the table cap: convolution multiply and extended-Euclid inverse
GF67_2 = make_extension(67, 2)
GF2_13 = make_extension(2, 13)

ALL_FIELDS = [F2, F5, GF4, GF9, GF67_2, GF2_13, F2T, F3T, GF4T]


def element_strategy(field):
    if field.size is not None:
        pool = [field.element(raw) for raw in field.elements()]
        return st.sampled_from(pool)
    # rational functions: quotient of small random polynomials
    base_size = field.base.size
    base_pool = list(field.base.elements())
    coeff = st.integers(0, base_size - 1)
    polys = st.lists(coeff, min_size=1, max_size=4)
    binary = field.base.kind == "prime" and field.base.p == 2

    def build(num, den):
        ops = field._ops
        if binary:
            n, d = ops.from_coeffs([c % 2 for c in num]), ops.from_coeffs([c % 2 for c in den])
        else:
            n = ops.from_coeffs([base_pool[c] for c in num])
            d = ops.from_coeffs([base_pool[c] for c in den])
        if ops.is_zero(d):
            d = ops.one
        return field.element(field._canon(n, d))

    return st.builds(build, polys, polys)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_laws(field):
    @settings(max_examples=60, deadline=None)
    @given(element_strategy(field), element_strategy(field), element_strategy(field))
    def run(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field(0) == a
        assert a * field(1) == a
        assert a - a == field(0)
        assert a + (-a) == field(0)
        if a != field(0):
            assert a * a.inverse() == field(1)

    run()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_frobenius_additive(field):
    @settings(max_examples=40, deadline=None)
    @given(element_strategy(field), element_strategy(field), st.integers(0, 3))
    def run(a, b, e):
        assert frobenius(a + b, e) == frobenius(a, e) + frobenius(b, e)
        assert frobenius(a * b, e) == frobenius(a, e) * frobenius(b, e)

    run()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_frobenius_fixes_prime_subfield(field):
    for n in range(field.characteristic):
        a = field(n)
        for e in range(4):
            assert frobenius(a, e) == a


def test_frobenius_examples():
    s = GF4.element((0, 1))
    assert frobenius(s, 1) == s * s  # s^2 = s + 1 under the canonical modulus
    assert frobenius(s, 1) == GF4.element((1, 1))
    assert frobenius(F5(3), 7) == F5(3)
    t = F2T.parse("t")
    assert frobenius(t + 1, 2) == F2T.parse("t^4 + 1")


def test_inversion_examples():
    assert F5(2).inverse() == F5(3)
    t1 = F3T.parse("t + 1")
    assert t1 * t1.inverse() == F3T(1)
    with pytest.raises(ZeroDivisionError):
        F5(0).inverse()
    with pytest.raises(ZeroDivisionError):
        F2T(0).inverse()


def test_canonical_form_idempotent():
    # re-normalizing a rational function changes nothing
    a = F3T.parse("(t^2 + 2*t + 1)")
    b = F3T.parse("t + 1")
    q = a / b
    num, den = q.raw
    assert F3T._canon(num, den) == q.raw
    assert q == b  # (t+1)^2/(t+1) reduces
    # denominators are monic
    c = F3T.parse("1") / F3T.parse("2*t + 1")
    assert c.raw[1][-1] == 1


def test_make_extension_examples():
    assert make_extension(2, 1).kind == "prime"
    assert GF4.modulus == (1, 1, 1)  # s^2 + s + 1
    assert GF9.modulus == (1, 0, 1)  # s^2 + 1, found by lexicographic scan
    again = make_extension(2, 2)
    assert again == GF4


def test_extension_modulus_validation():
    with pytest.raises(ValidationError):
        ExtensionField(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValidationError):
        ExtensionField(2, (1, 1))  # degree too small
    ExtensionField(2, (1, 1, 0, 0, 1))  # x^4 + x + 1 is irreducible


def test_characteristic_validation():
    with pytest.raises(ValidationError):
        PrimeField(6)
    with pytest.raises(ValidationError):
        PrimeField(1)
    with pytest.raises(ValidationError):
        PrimeField(2**31 + 11)
    with pytest.raises(ValidationError):
        make_extension(4, 2)


def test_descriptor_mismatch_is_structural():
    with pytest.raises(StructuralError):
        F2(1) + F3(1)
    with pytest.raises(StructuralError):
        GF4(1) * F2(1)


def test_field_config_round_trip():
    for spec, field in [
        ({"kind": "prime", "p": 2}, F2),
        ({"kind": "extension", "p": 2, "m": 2}, GF4),
        ({"kind": "rational_function", "p": 2, "var": "t"}, F2T),
        ({"kind": "rational_function", "p": 2, "m": 2, "var": "t"},
         RationalFunctionField(GF4, "t")),
    ]:
        assert config.field(spec) == field
    assert config.field({"kind": "prime", "p": 7}) == PrimeField(7)
    with pytest.raises(ValidationError):
        config.field({"kind": "octonion"})
    with pytest.raises(ValidationError):
        config.field({})


def test_element_parsing():
    assert GF4.parse("s^2") == GF4.element((1, 1))
    assert F2T.parse("(t+1)*(t+1)") == F2T.parse("t^2 + 1")
    assert F5.parse("-1") == F5(4)
    with pytest.raises(ValidationError):
        F5.parse("w + 1")
    with pytest.raises(ValidationError):
        F2T.parse("t +")


def test_extension_field_enumeration_is_deterministic():
    els = list(GF4.elements())
    assert els == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert len(set(list(GF9.elements()))) == 9


def test_rational_functions_over_an_extension_base():
    t = GF4T.parse("t")
    s = GF4T.parse("s")
    u = (t + s) * (t + s)
    assert u == GF4T.parse("t^2 + s^2")  # freshman's dream with s^2 = s + 1
    assert u == GF4T.parse("t^2 + s + 1")
    assert (t + s).inverse() * (t + s) == GF4T(1)
    assert frobenius(t + s, 1) == u


def test_dense_rational_functions_print_and_parse_back():
    a = F3T.parse("2*t^2 + t + 1")
    assert repr(a) == "2*t^2 + t + 1"
    assert repr(a / F3T.parse("t + 2")) == "(2*t^2 + t + 1)/(t + 2)"
    b = GF4T.parse("s*t^2 + (s + 1)*t + 1")
    assert repr(b) == "s*t^2 + (s + 1)*t + 1"
    ring = PolynomialRing(F3T, ("x", "y"))
    f = ring.parse("(2*t + 1)*x^2 + t*y + 2")
    assert repr(f) == "(2*t + 1)*x^2 + t*y + 2"
    assert (F3T.parse(repr(a)), GF4T.parse(repr(b)), ring.parse(repr(f))) == (a, b, f)


def _printed_fractions(base, count, rng):
    """`count` reduced fractions over base(t): a numerator of degree <= 4
    over a monic denominator of degree <= 3, as printed."""
    field = RationalFunctionField(base)
    coeffs = [repr(base.element(c)) for c in base.elements()]

    def upoly(cs):
        return field.parse(" + ".join(f"({c})*t^{i}" for i, c in enumerate(cs)))

    texts = []
    for _ in range(count):
        num = upoly([rng.choice(coeffs) for _ in range(5)])
        den = upoly([rng.choice(coeffs) for _ in range(rng.randrange(4))] + ["1"])
        texts.append(repr(num / den))
    return texts


def test_univariate_printer_is_pinned():
    # the one printer of GF(p^m) elements and of F_q(t) numerators and
    # denominators; pinned on every element of eight extension fields and on
    # 3,000 seeded fractions over F_2, F_3, GF(4) and GF(9)
    elements = [
        repr(field.element(a))
        for p, m in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6))
        for field in (make_extension(p, m),)
        for a in field.elements()
    ]
    rng = random.Random(20)
    fractions = [text for base in (F2, F3, GF4, GF9)
                 for text in _printed_fractions(base, 750, rng)]
    digest = {
        name: hashlib.sha256("\n".join(texts).encode()).hexdigest()
        for name, texts in (("elements", elements), ("fractions", fractions))
    }
    assert digest == {
        "elements": "114d8d045d1f288c57ea7865086d655aa866c5c2f75ffc889009444de15ceb9b",
        "fractions": "ad1e7076b2326e73d26bc8b1885c96f6ac869b197046b3b94c9f09d6c26053b2",
    }


def test_field_elements_are_immutable():
    a = F5(2)
    with pytest.raises(AttributeError):
        a.raw = 3


def test_make_extension_checks_each_candidate_modulus_once(monkeypatch):
    checked = []
    validate = coeff._validate_irreducible

    def counting(p, modulus):
        checked.append(modulus)
        validate(p, modulus)

    monkeypatch.setattr(coeff, "_validate_irreducible", counting)
    field = make_extension(2, 4)
    assert checked[-1] == field.modulus
    assert len(checked) == len(set(checked))


def test_table_cap_decides_which_fields_get_tables():
    for field in (GF4, GF9, make_extension(2, 12)):
        q = field.size
        assert q <= coeff._TABLE_MAX_SIZE
        assert len(field._exp) == 2 * (q - 1) and len(field._log) == q - 1
        assert (field._mask is None) == (field.p != 2)  # XOR masks in characteristic 2
    for field in (GF67_2, GF2_13):
        assert field.size > coeff._TABLE_MAX_SIZE
        assert field._log is None and field._exp is None and field._mask is None


@pytest.mark.parametrize("field", [make_extension(2, 4), GF9, GF2_13], ids=repr)
def test_extension_add_sub_match_coordinatewise_formula(field):
    p = field.p
    pool = list(field.elements())
    if field.size > 256:
        pool = pool[::97]  # above the table cap: a sample of 85 elements
    for a, b in product(pool, repeat=2):
        assert field.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
        assert field.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))


def _irreducible_moduli(p, m):
    for v in range(p**m):
        tail = tuple((v // p**j) % p for j in range(m))
        try:
            ExtensionField(p, tail + (1,))
        except ValidationError:
            continue
        yield tail + (1,)


SMALL_EXTENSIONS = [(p, m) for p in (2, 3, 5, 7) for m in range(2, 7) if p**m <= 64]


@pytest.mark.parametrize("p,m", SMALL_EXTENSIONS, ids=lambda v: str(v))
def test_table_arithmetic_agrees_with_convolution_on_every_modulus(p, m, monkeypatch):
    moduli = list(_irreducible_moduli(p, m))
    assert moduli
    for modulus in moduli:
        table = ExtensionField(p, modulus)
        with monkeypatch.context() as patch:
            patch.setattr(coeff, "_TABLE_MAX_SIZE", 0)
            reference = ExtensionField(p, modulus)
        assert table._log is not None and reference._log is None
        q = table.size
        elements = list(table.elements())
        for a in elements:
            for b in elements:
                assert table.mul(a, b) == reference.mul(a, b)
            if a != table.zero:
                assert table.inv(a) == reference.inv(a)
            for n in (-3, -2, -1, 0, 1, 2, 3, q - 2, q - 1, q, 2 * q - 1, 5 * q + 3):
                if a == table.zero and n < 0:
                    continue
                assert table.pow(a, n) == reference.pow(a, n)
            for e in range(m + 2):
                assert table.frobenius_raw(a, e) == reference.frobenius_raw(a, e)
        with pytest.raises(ZeroDivisionError):
            table.inv(table.zero)
        with pytest.raises(ZeroDivisionError):
            table.pow(table.zero, -1)


def _moebius(n):
    divisors = coeff._prime_divisors(n)
    if any(n % (r * r) == 0 for r in divisors):
        return 0
    return (-1) ** len(divisors)


GAUSS_CASES = [(2, m) for m in range(2, 11)] + [(3, m) for m in range(2, 7)] + [
    (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (13, 2)
]


@pytest.mark.parametrize("p,m", GAUSS_CASES, ids=lambda v: str(v))
def test_irreducibility_test_accepts_gauss_count_of_moduli(p, m):
    # monic irreducibles of degree m over F_p: (1/m) sum_{d | m} mu(d) p^(m/d)
    want = sum(_moebius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    accepted = 0
    for tail in coeff._digit_vectors(p, m):
        try:
            coeff._validate_irreducible(p, tail + (1,))
        except ValidationError:
            continue
        accepted += 1
    assert accepted == want


@pytest.mark.parametrize("p,m", [(2, 13), (2, 20), (3, 9), (67, 2)], ids=lambda v: str(v))
def test_products_above_the_table_cap_match_polynomial_division(p, m):
    field = make_extension(p, m)
    assert field.size > coeff._TABLE_MAX_SIZE
    ops = coeff._DensePolys(PrimeField(p))
    rng = random.Random(p * 100 + m)
    for _ in range(200):
        a, b = (tuple(rng.randrange(p) for _ in range(m)) for _ in range(2))
        rem = ops.divmod(ops.mul(ops._trim(a), ops._trim(b)), field.modulus)[1]
        assert field.mul(a, b) == rem + (0,) * (m - len(rem))
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_tables_do_not_need_a_primitive_generator():
    # s is a root of x^4 + x^3 + x^2 + x + 1, which divides x^5 - 1
    field = ExtensionField(2, (1, 1, 1, 1, 1))
    s = (0, 1, 0, 0)
    assert field.pow(s, 5) == field.one
    assert field._exp[1] != s
    assert len(set(field._exp[:15])) == 15
    assert (1, 1, 1, 1, 1) in _irreducible_moduli(2, 4)


def test_table_build_rejects_a_non_primitive_element(monkeypatch):
    field = ExtensionField(2, (1, 1, 1, 1, 1))
    exp, log = field._exp, field._log
    # with no prime divisors the order test accepts 1, whose powers repeat at once
    monkeypatch.setattr(coeff, "_prime_divisors", lambda n: [])
    with pytest.raises(StructuralError):
        field._build_tables()
    with pytest.raises(StructuralError):
        GF9._build_tables()
    assert field._exp is exp and field._log is log


def _polynomial_or_fraction(field):
    ops = field._ops
    return st.builds(
        lambda x, poly: field.element((x.raw[0], ops.one)) if poly else x,
        element_strategy(field),
        st.booleans(),
    )


@pytest.mark.parametrize("field", [F2T, GF4T], ids=repr)
def test_rational_function_fast_path_matches_canon(field):
    ops = field._ops

    @settings(max_examples=200, deadline=None)
    @given(_polynomial_or_fraction(field), _polynomial_or_fraction(field))
    def run(x, y):
        (an, ad), (bn, bd) = x.raw, y.raw
        sum_num = ops.add(ops.mul(an, bd), ops.mul(bn, ad))
        assert field.add(x.raw, y.raw) == field._canon(sum_num, ops.mul(ad, bd))
        assert field.mul(x.raw, y.raw) == field._canon(ops.mul(an, bn), ops.mul(ad, bd))

    run()


def test_rational_function_polynomials_skip_the_gcd(monkeypatch):
    calls = []
    monkeypatch.setattr(F2T, "_canon", lambda n, d: calls.append((n, d)))
    t, t1 = F2T.t, (0b11, 1)
    assert F2T.add(t, t1) == (1, 1)
    assert F2T.mul(t, t1) == (0b110, 1)
    assert calls == []

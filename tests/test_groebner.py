"""Buchberger, normal forms, colengths, colon ideals, matrices, discriminants."""

import math
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hklab import (
    INFINITE,
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    QuotientRingSpec,
    RationalFunctionField,
    TermOrder,
    ValidationError,
    buchberger,
    frobenius_power,
    hk_function,
    ideal_colon_m,
    is_primary_to_origin,
    make_extension,
    multiplication_matrix,
    multiplicity,
    trace_discriminant,
)
from hklab import groebner
from hklab.coeff import FieldElement
from hklab.groebner import BuchbergerStats, GroebnerBasis
from hklab.polyring import EXP_BITS
from hklab.rows import RowItem, tables

from .oracles import (
    classic_buchberger,
    gm_update_full_scan,
    macaulay_colength,
    mat_mul,
    pivot_split_colength,
    poly_dict,
    random_zero_dim_ideals,
    reduce_by_positions,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
GF4 = make_extension(2, 2)
GF4489 = make_extension(67, 2)  # above the table cap: multiplies by convolution
F2T = RationalFunctionField(F2)
F3T = RationalFunctionField(F3)  # dense univariate polynomials, not bitmasks
MONSKY_T1 = "z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2"


def in_order(ideal, order):
    """The same ideal in a ring that differs from its own only in the term order."""
    ring = PolynomialRing(ideal.ring.domain, ideal.ring.variables, order)
    return IdealPresentation(ring, tuple(ring.convert(g) for g in ideal.generators))


def test_buchberger_monomial_ideal_is_its_own_basis():
    for order in (TermOrder("degrevlex"), TermOrder("lex")):
        R = PolynomialRing(F5, ("x", "y"), order)
        x, y = R.gens()
        G = buchberger(IdealPresentation(R, (x**2, y**3)))
        assert set(G.elements) == {x**2, y**3}


def test_buchberger_lex_example():
    R = PolynomialRing(F5, ("x", "y"), TermOrder("lex"))
    x, y = R.gens()
    G = buchberger(IdealPresentation(R, (x - y**2, y**3)))
    assert set(G.elements) == {x - y**2, y**3}
    assert G.normal_form(x * y).is_zero()  # x*y = y^3 = 0 after x -> y^2
    assert G.normal_form(R.one) == R.one
    for g in G.elements:  # basis elements reduce to zero against their basis
        assert G.normal_form(g).is_zero()


def test_buchberger_principal_ideal_made_monic():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    G = buchberger(IdealPresentation(R, (3 * x**2 + y,)))
    assert G.elements == (x**2 + 2 * y,)


def test_buchberger_is_deterministic_and_order_dependent_input_invariant():
    R = PolynomialRing(F3, ("x", "y", "z"))
    gens = tuple(R.parse(s) for s in ("x^2 + y*z", "y^2 + x*z", "z^2 + x*y"))
    G1 = buchberger(IdealPresentation(R, gens))
    G2 = buchberger(IdealPresentation(R, gens))
    assert G1.elements == G2.elements


def small_poly(ring, seed_terms):
    return ring.polynomial(
        (ring.encode(e), c % ring.domain.p or 1) for e, c in seed_terms
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(1, 4),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(1, 4),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_normal_form_is_idempotent_and_linear(terms_f, terms_g):
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    G = buchberger(IdealPresentation(R, (x**3 - y, y**2 + x)))
    f = small_poly(R, terms_f)
    g = small_poly(R, terms_g)
    nf = G.normal_form
    assert nf(nf(f)) == nf(f)
    a, b = F5(2), F5(3)
    assert nf(f * a + g * b) == nf(f) * a + nf(g) * b
    assert nf(f * g) == nf(nf(f) * nf(g))


def test_colength_examples():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    assert buchberger(IdealPresentation(R, (x**4, y**7))).colength() == 28
    R3 = PolynomialRing(F3, ("x", "y", "z"))
    gens = tuple(v**3 for v in R3.gens())
    assert buchberger(IdealPresentation(R3, gens)).colength() == 27
    assert buchberger(IdealPresentation(R, (x,))).colength() is INFINITE
    assert buchberger(IdealPresentation(R, (x + 1, x))).colength() == 0  # unit ideal


def test_colength_monsky_e1():
    R3 = PolynomialRing(F2, ("x", "y", "z"))
    g0 = R3.parse("z^4 + x*y*z^2 + (x^3+y^3)*z")
    gens = (g0,) + tuple(v**2 for v in R3.gens())
    assert buchberger(IdealPresentation(R3, gens)).colength() == 8


def test_colength_is_term_order_independent():
    for field, ring, ideal, gb in random_zero_dim_ideals(99, 6):
        lex_gb = buchberger(in_order(ideal, TermOrder("lex")))
        assert lex_gb.colength() == gb.colength()


def test_normal_form_converts_across_orders():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    lex_gb = buchberger(in_order(IdealPresentation(R, (x - y**2, y**3)), TermOrder("lex")))
    f = x * y + y  # built in the degrevlex ring, reduced against a lex basis
    nf = lex_gb.normal_form(f)
    assert nf == lex_gb.ring.var("y")
    with pytest.raises(Exception):
        other = PolynomialRing(F5, ("u", "v"))
        lex_gb.normal_form(other.var("u"))


def test_colength_agrees_with_macaulay_oracle_small():
    for field, ring, ideal, gb in random_zero_dim_ideals(4242, 6):
        bounds = gb.staircase_bounds()
        gens_raw = [poly_dict(ring, g) for g in ideal.generators]
        assert macaulay_colength(field, ring.nvars, gens_raw, bounds) == gb.colength()


def test_normal_form_is_constant_on_cosets():
    import random

    rng = random.Random(5)
    for field, ring, ideal, gb in random_zero_dim_ideals(909, 4):
        monos = [ring.encode(e) for e in [(0,) * ring.nvars]]
        f = ring.polynomial(
            [(ring.encode(tuple(rng.randrange(3) for _ in range(ring.nvars))),
              rng.randrange(1, field.p)) for _ in range(4)]
        )
        shift = ideal.generators[rng.randrange(len(ideal.generators))]
        multiplier = ring.polynomial(
            [(ring.encode(tuple(rng.randrange(2) for _ in range(ring.nvars))),
              rng.randrange(1, field.p))]
        )
        assert gb.normal_form(f + shift * multiplier) == gb.normal_form(f)


def test_standard_monomials_closed_under_division():
    R = PolynomialRing(F3, ("x", "y"))
    x, y = R.gens()
    G = buchberger(IdealPresentation(R, (x**2 + y, y**3)))
    smb = {m.exponents for m in G.standard_monomials()}
    assert len(smb) == G.colength()
    for e in smb:
        for i in range(2):
            if e[i]:
                lower = tuple(v - (1 if j == i else 0) for j, v in enumerate(e))
                assert lower in smb


def monomial_basis(field, exps_list):
    """A GroebnerBasis holding the given monomials as they are: no
    minimalization, so repeated and non-minimal generators reach G.colength()."""
    ring = PolynomialRing(field, tuple("xyzw"[: len(exps_list[0])]))
    return GroebnerBasis(ring, [ring.polynomial([(ring.encode(e), field.one)]) for e in exps_list])


def box_count(exps_list):
    """Brute-force standard-monomial count over the pure-power box."""
    n = len(exps_list[0])
    bounds = [min(g[i] for g in exps_list if not any(g[:i] + g[i + 1 :])) for i in range(n)]
    return sum(
        1
        for point in product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(g, point)) for g in exps_list)
    )


@st.composite
def monomial_ideals(draw):
    """Exponent vectors in 1..4 variables with a pure power of each variable,
    plus mixed generators, their multiples (non-minimal), repeats, and
    sometimes the zero vector (the unit ideal)."""
    n = draw(st.integers(1, 4))
    top = 7 if n <= 3 else 5
    vec = st.tuples(*[st.integers(0, top - 1)] * n)
    gens = [
        tuple(draw(st.integers(1, top)) if j == i else 0 for j in range(n)) for i in range(n)
    ]
    gens += draw(st.lists(vec, max_size=6))
    for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
        gens.append(tuple(a + b for a, b in zip(g, draw(vec))))  # a multiple
    gens += draw(st.lists(st.sampled_from(gens), max_size=3))  # repeats
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * n)
    return draw(st.permutations(gens))


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_slice_count_matches_box_count_and_pivot_split(gens):
    G = monomial_basis(F2, gens)
    expected = box_count(gens)
    assert G.colength() == expected
    assert pivot_split_colength(gens) == expected
    smb = G.standard_monomials()
    assert len(smb) == expected
    assert [m.key for m in smb] == sorted({m.key for m in smb})
    assert buchberger(IdealPresentation(G.ring, G.elements)).colength() == expected


def test_slice_count_on_deep_staircases():
    N = 900
    start = time.perf_counter()
    assert monomial_basis(F2, [(i, N - i) for i in range(N + 1)]).colength() == N * (N + 1) // 2
    assert time.perf_counter() - start < 5
    # the pivot split recursed once per exponent here and hit RecursionError
    R = PolynomialRing(F2, ("x", "y"))
    gens = tuple(map(R.parse, ("x^2048", "y^2048", "x^1024*y^1024")))
    assert buchberger(IdealPresentation(R, gens)).colength() == 3 * 1024**2


def test_standard_monomials_walk_the_staircase():
    R = PolynomialRing(F2, ("x", "y", "z"))
    gens = tuple(map(R.parse, ("x^80", "y^80", "z^80", "x*y", "y*z", "x*z")))
    smb = buchberger(IdealPresentation(R, gens)).standard_monomials()
    assert len(smb) == 1 + 3 * 79
    assert [m.key for m in smb] == sorted(m.key for m in smb)
    assert all(sum(1 for e in m.exponents if e) <= 1 for m in smb)
    assert buchberger(IdealPresentation(R, (R.one,))).standard_monomials() == ()


def test_is_primary_to_origin():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    assert is_primary_to_origin(buchberger(IdealPresentation(R, (x**2, y**2))))
    G = buchberger(IdealPresentation(R, (x * y, x - 1)))
    assert G.colength() == 1
    assert not is_primary_to_origin(G)
    R3 = PolynomialRing(F2, ("x", "y", "z"))
    gens = tuple(v**4 for v in R3.gens()) + (R3.parse("x*y + z^2"),)
    assert is_primary_to_origin(buchberger(IdealPresentation(R3, gens)))
    with pytest.raises(ValidationError):
        is_primary_to_origin(buchberger(IdealPresentation(R, (x,))))


def test_ideal_colon_m_examples():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    C = ideal_colon_m(IdealPresentation(R, (x**2, y**2)))
    expected = buchberger(IdealPresentation(R, (x**2, y**2, x * y)))
    assert buchberger(C).elements == expected.elements
    assert buchberger(ideal_colon_m(IdealPresentation(R, (x, y)))).is_unit_ideal()
    R1 = PolynomialRing(F5, ("x",))
    x1 = R1.var("x")
    C1 = buchberger(ideal_colon_m(IdealPresentation(R1, (x1**3,))))
    assert set(C1.elements) == {x1**2}


def test_colon_contains_and_shrinks():
    for field, ring, ideal, gb in random_zero_dim_ideals(555, 6):
        if not is_primary_to_origin(gb) or gb.colength() <= 1:
            continue
        C = ideal_colon_m(ideal)
        gc = buchberger(C)
        for g in ideal.generators:
            assert gc.normal_form(g).is_zero()  # (J : m) contains J
        assert gc.colength() < gb.colength()


def test_multiplication_matrix_examples():
    R1 = PolynomialRing(F5, ("x",))
    x = R1.var("x")
    G = buchberger(IdealPresentation(R1, (x**2,)))
    M = multiplication_matrix(G, x)
    assert [[v.raw for v in row] for row in M] == [[0, 0], [1, 0]]
    a = F5(3)
    Ga = buchberger(IdealPresentation(R1, (x**2 - a,)))
    Ma = multiplication_matrix(Ga, x)
    assert [[v.raw for v in row] for row in Ma] == [[0, 3], [1, 0]]
    zero = multiplication_matrix(G, x**2)  # f in the ideal -> zero matrix
    assert all(v.raw == 0 for row in zero for v in row)


def test_multiplication_matrices_commute():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    G = buchberger(IdealPresentation(R, (x**2 + y, y**2 + 3 * x)))
    f = x + 2 * y
    g = x * y + 1
    Mf = [[v.raw for v in row] for row in multiplication_matrix(G, f)]
    Mg = [[v.raw for v in row] for row in multiplication_matrix(G, g)]
    Mfg = [[v.raw for v in row] for row in multiplication_matrix(G, f * g)]
    assert mat_mul(F5, Mf, Mg) == Mfg
    assert mat_mul(F5, Mf, Mg) == mat_mul(F5, Mg, Mf)


def test_trace_discriminant_examples():
    R1 = PolynomialRing(F5, ("x",))
    x = R1.var("x")
    d = trace_discriminant(buchberger(IdealPresentation(R1, (x**2 - 1,))))
    assert d == F5(4)  # Gram [[2,0],[0,2]]
    assert trace_discriminant(buchberger(IdealPresentation(R1, (x,)))) == F5(1)
    # characteristic 2: the inseparable presentations x^2 - a have all-even
    # traces, hence discriminant 0; the separable x^2 + x + 1 does not
    R2 = PolynomialRing(F2, ("x",))
    x2 = R2.var("x")
    for mod in (x2**2, x2**2 + 1):
        assert trace_discriminant(buchberger(IdealPresentation(R2, (mod,)))) == F2(0)
    assert trace_discriminant(
        buchberger(IdealPresentation(R2, (x2**2 + x2 + 1,)))
    ) == F2(1)
    R4 = PolynomialRing(GF4, ("x",))
    x4 = R4.var("x")
    s = GF4.element((0, 1))
    val = trace_discriminant(buchberger(IdealPresentation(R4, (x4**2 - s,))))
    assert val == GF4(0)
    Rxy = PolynomialRing(F5, ("x", "y"))
    with pytest.raises(ValidationError):
        trace_discriminant(buchberger(IdealPresentation(Rxy, (Rxy.var("x"),))))


def test_infinite_marker_is_math_inf():
    R = PolynomialRing(F2, ("x", "y"))
    G = buchberger(IdealPresentation(R, (R.var("x"),)))
    assert G.colength() is INFINITE and G.colength() == math.inf


def _spair(ring, f, g):
    lf = ring.decode(f._terms[0][0])
    lg = ring.decode(g._terms[0][0])
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = ring.polynomial([(ring.encode(tuple(a - b for a, b in zip(lcm, lf))), ring.domain.one)])
    mg = ring.polynomial([(ring.encode(tuple(a - b for a, b in zip(lcm, lg))), ring.domain.one)])
    cf = ring.domain.inv(f._terms[0][1])
    cg = ring.domain.inv(g._terms[0][1])
    return f * mf * cf - g * mg * cg


def test_reduced_basis_invariants_on_random_corpus():
    # the defining properties of a reduced basis: monic elements, no leading
    # monomial dividing another, every S-polynomial reducing to zero
    for field, ring, ideal, gb in random_zero_dim_ideals(1234, 8):
        elements = gb.elements
        for g in elements:
            assert g._terms[0][1] == field.one
        leads = [ring.decode(g._terms[0][0]) for g in elements]
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                s = _spair(ring, elements[i], elements[j])
                assert gb.normal_form(s).is_zero()


def test_reduced_basis_is_generator_order_invariant():
    # the reduced basis is a canonical object: shuffling generators cannot move it
    for field, ring, ideal, gb in random_zero_dim_ideals(777, 5):
        reversed_ideal = IdealPresentation(ring, tuple(reversed(ideal.generators)))
        assert buchberger(reversed_ideal).elements == gb.elements


def test_colength_invariant_under_priority_permutation():
    for field, ring, ideal, gb in random_zero_dim_ideals(31337, 5):
        n = ring.nvars
        perm = tuple(reversed(range(n)))
        permuted = buchberger(in_order(ideal, TermOrder("degrevlex", perm)))
        assert permuted.colength() == gb.colength()


def test_extension_field_colength_matches_prime_field_model():
    # GF(4)[x, y]/I is an F_2-algebra of twice the GF(4)-dimension: model
    # GF(4) = F_2[s]/(s^2 + s + 1) and compare colengths over both fields
    import random

    R4 = PolynomialRing(GF4, ("x", "y"))
    R2s = PolynomialRing(F2, ("s", "x", "y"))
    s_rel = R2s.parse("s^2 + s + 1")
    rng = random.Random(424242)
    produced = 0
    while produced < 5:
        gens4 = []
        gens2 = []
        for _ in range(2):
            terms4 = []
            terms2 = []
            for ex in range(4):
                for ey in range(4):
                    if ex + ey > 4 or rng.random() >= 0.35:
                        continue
                    a, b = rng.randrange(2), rng.randrange(2)
                    if (a, b) == (0, 0):
                        continue
                    terms4.append((R4.encode((ex, ey)), (a, b)))
                    if a:
                        terms2.append((R2s.encode((0, ex, ey)), 1))
                    if b:
                        terms2.append((R2s.encode((1, ex, ey)), 1))
            if terms4:
                gens4.append(R4.polynomial(terms4))
                gens2.append(R2s.polynomial(terms2))
        if len(gens4) < 2:
            continue
        gb4 = buchberger(IdealPresentation(R4, gens4))
        n4 = gb4.colength()
        if n4 is INFINITE:
            continue
        produced += 1
        gb2 = buchberger(IdealPresentation(R2s, gens2 + [s_rel]))
        assert gb2.colength() == 2 * n4


def assert_matches_sympy(sympy, ideal, gb):
    """The reduced basis equals sympy's degrevlex basis over the same F_p."""
    ring = ideal.ring
    field = ring.domain
    symbols = sympy.symbols(" ".join(ring.variables))
    if ring.nvars == 1:
        symbols = (symbols,)

    def expr(g):
        acc = 0
        for k, c in g._terms:
            mono = 1
            for s, e in zip(symbols, ring.decode(k)):
                mono *= s**e
            acc += int(c) * mono
        return acc

    domain = sympy.GF(field.p)
    reference = sympy.groebner(
        [expr(g) for g in ideal.generators], *symbols, order="grevlex", domain=domain
    )
    ours = {sympy.Poly(expr(g), *symbols, domain=domain) for g in gb.elements}
    assert ours == {sympy.Poly(e, *symbols, domain=domain) for e in reference.exprs}


def test_reduced_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for field, ring, ideal, gb in random_zero_dim_ideals(2718, 5):
        assert_matches_sympy(sympy, ideal, gb)


@pytest.mark.parametrize("p, q", [(2, 32), (3, 27), (5, 25)])
def test_box_truncated_basis_matches_sympy(p, q):
    # f + m^[q] puts every x_i^q in the input; for (x+y, y^2, z)^[q] only y
    # and z start with a pure power, and x^(2q) is found during the run
    sympy = pytest.importorskip("sympy")
    R = PolynomialRing(PrimeField(p), ("x", "y", "z"))
    f = R.parse(MONSKY_T1)
    for ideal in (R.gens(), tuple(map(R.parse, ("x + y", "y^2", "z")))):
        bracket = frobenius_power(IdealPresentation(R, ideal), q).generators
        I = IdealPresentation(R, (f,) + bracket)
        gb = buchberger(I)
        assert gb.stats.box_drops > 0
        assert_matches_sympy(sympy, I, gb)


def test_buchberger_exponent_overflow_stays_loud():
    # reducing x*y^N by x - y^N gives y^(2^31); that term sets a guard bit
    # of its key and must raise, not be dropped as outside the box of the
    # pure power x^2
    R = PolynomialRing(F3, ("x", "y"), TermOrder("lex"))
    x, y = R.gens()
    with pytest.raises(OverflowError):
        buchberger(IdealPresentation(R, (x**2, x - y ** (2**30))))


def test_pure_power_found_mid_run():
    # lex with y > x: the pure power x^12 is a remainder, not an input
    R = PolynomialRing(F3, ("x", "y"), TermOrder("lex", (1, 0)))
    x, y = R.gens()
    I = IdealPresentation(R, (x**3 - y, y**4))
    assert buchberger(I).elements == classic_buchberger(I).elements == (x**12, y - x**3)


ORACLE_FIELDS = (
    (F2, ("1",)),
    (F3, ("1", "2")),
    (F5, ("1", "2", "3", "4")),
    (GF4, ("1", "s", "s + 1")),
    (F2T, ("1", "t", "t + 1")),
    (F3T, ("1", "2*t", "t + 2")),
    (GF4489, ("1", "s", "66*s + 3")),
)


@st.composite
def oracle_ideals(draw):
    """Ideals in 1-3 variables over F_2, F_3, F_5, GF(4) and GF(67^2), and
    in 1-2 over F_2(t) and F_3(t), in degrevlex or lex under any variable
    priority:
    inhomogeneous generators, pure powers of a random subset of the
    variables, and sometimes a pair (x_j - x_i^a, x_j^b) that yields
    x_i^(ab) during the run under lex."""
    field, coeffs = draw(st.sampled_from(ORACLE_FIELDS))
    # F_p(t) in 3 variables can take seconds
    n = draw(st.integers(1, 2 if field.kind == "rational_function" else 3))
    order = TermOrder(draw(st.sampled_from(("degrevlex", "lex"))), draw(st.permutations(range(n))))
    ring = PolynomialRing(field, tuple("xyz"[:n]), order)
    raws = [field.parse(c).raw for c in coeffs]
    top = 3 if n < 3 else 2  # keeps lex bases in 3 variables small
    monomial = st.tuples(*[st.integers(0, top)] * n).filter(any)  # no constants: not the unit ideal
    gens = []
    for terms in draw(st.lists(st.lists(st.tuples(monomial, st.sampled_from(raws)),
                                        min_size=1, max_size=4), min_size=1, max_size=3)):
        g = ring.polynomial((ring.encode(e), c) for e, c in terms)
        if g:
            gens.append(g)
    v = ring.gens()
    for i in draw(st.lists(st.integers(0, n - 1), unique=True)):
        gens.append(v[i] ** draw(st.integers(1, 6)))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        gens += [v[j] - v[i] ** draw(st.integers(2, 3)), v[j] ** draw(st.integers(2, 3))]
    if not gens:
        gens.append(v[0])
    return IdealPresentation(ring, draw(st.permutations(gens)))


@settings(max_examples=210, deadline=None)
@given(oracle_ideals())
def test_buchberger_matches_classic_loop(ideal):
    G = buchberger(ideal)
    assert G.elements == classic_buchberger(ideal).elements
    s = G.stats
    assert s.pairs_formed == s.by_product + s.by_b_k + s.by_m_f + s.pairs_reduced


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=120, deadline=None)
@given(oracle_ideals())
def test_buchberger_returns_a_reduced_basis(ideal):
    # the definition, checked on the elements: monic, no lead divisible by
    # another lead, no tail term divisible by any lead
    G = buchberger(ideal)
    ring = ideal.ring
    leads = [ring.decode(g._terms[0][0]) for g in G]
    for i, g in enumerate(G):
        assert g._terms[0][1] == ring.domain.one
        assert not any(divides(lead, leads[i]) for j, lead in enumerate(leads) if j != i)
        for k, _ in g._terms[1:]:
            assert not any(divides(lead, ring.decode(k)) for lead in leads)


@pytest.mark.parametrize("kind", ["degrevlex", "lex"])
def test_input_tail_reducible_by_an_older_input_is_reduced(kind):
    # inputs enter the working set unreduced: with y^2 first, the tail of
    # the quartic holds x*y^2 and y^3, which reading the elements removes
    R = PolynomialRing(F5, ("x", "y"), TermOrder(kind))
    gens = (R.parse("y^2"), R.parse("x^3 + x^2*y + x*y^2 + y^3"))
    expected = (R.parse("y^2"), R.parse("x^3 + x^2*y"))
    for order in (gens, gens[::-1]):
        I = IdealPresentation(R, order)
        assert buchberger(I).elements == classic_buchberger(I).elements == expected


SPAIR_FIELDS = (
    pytest.param(F5, ("1", "2", "3", "4"), id="F5"),
    pytest.param(F2T, ("1", "t", "t + 1"), id="F2(t)"),
    pytest.param(GF4, ("1", "s", "s + 1"), id="GF4"),
)


@pytest.mark.parametrize("field, coeffs", SPAIR_FIELDS)
def test_spair_is_the_tail_of_the_s_polynomial(field, coeffs):
    # against m_f*f - m_g*g by Polynomial arithmetic; small supports make
    # the shifted tails meet, and a term that cancels must be absent
    import random

    rng = random.Random(2022)
    ring = PolynomialRing(field, ("x", "y"))
    raws = [field.parse(c).raw for c in coeffs]

    def monomial(exps):
        return ring.polynomial([(ring.encode(exps), field.one)])

    def monic(h):
        return h * FieldElement(field, field.inv(h._terms[0][1]))

    cancelled = 0
    for _ in range(300):
        f, g = (ring.polynomial([(ring.encode((rng.randrange(3), rng.randrange(3))),
                                  rng.choice(raws)) for _ in range(rng.randint(1, 5))])
                for _ in range(2))
        if not f or not g:
            continue
        item_f, item_g = groebner._make_item(ring, f._terms), groebner._make_item(ring, g._terms)
        lcm = tuple(map(max, item_f.exps, item_g.exps))
        m_f = tuple(a - b for a, b in zip(lcm, item_f.exps))
        m_g = tuple(a - b for a, b in zip(lcm, item_g.exps))
        s = monomial(m_f) * monic(f) - monomial(m_g) * monic(g)
        work = groebner._spair(item_f, item_g, ring.encode(lcm), field, ring.guard)
        assert work == dict(s._terms)
        shifted_f = {k + ring.encode(m_f): c for k, c in groebner._pairs(item_f.tail)}
        for k, c in groebner._pairs(item_g.tail):
            kk = k + ring.encode(m_g)
            if shifted_f.get(kk) == c:  # the two terms cancel
                cancelled += 1
                assert kk not in work
    assert cancelled > 0


def test_spair_overflow_stays_loud():
    # lex with x > y: shifting the tail term y^(2^30 + 5) of x + y^(2^30 + 5)
    # by y^(2^30) passes 2^31
    R = PolynomialRing(F3, ("x", "y"), TermOrder("lex"))
    x, y = R.gens()
    f, g = x + y ** (2**30 + 5), x * y ** (2**30)
    item_f, item_g = groebner._make_item(R, f._terms), groebner._make_item(R, g._terms)
    with pytest.raises(OverflowError):
        groebner._spair(item_f, item_g, item_g.key, F3, R.guard)
    with pytest.raises(OverflowError):
        buchberger(IdealPresentation(R, (f, g)))


def test_buchberger_stats_repeat_and_count_box_drops():
    R = PolynomialRing(F5, ("x", "y", "z"))
    bracket = frobenius_power(IdealPresentation(R, R.gens()), 125).generators
    I = IdealPresentation(R, (R.parse(MONSKY_T1),) + bracket)
    first, second = buchberger(I), buchberger(I)
    s = first.stats
    assert isinstance(s, BuchbergerStats) and s == second.stats
    assert s.box_drops > 0 and s.zero_reductions <= s.pairs_reduced
    assert s.pairs_formed == s.by_product + s.by_b_k + s.by_m_f + s.pairs_reduced
    assert s.max_basis >= len(first) == 153 and s.reduction_steps > 0
    assert s == (11628, 3, 144, 11175, 306, 157, 91674, 15032, 153)
    G = buchberger(IdealPresentation(R, (R.parse("x^2 - y"), R.parse("x*y - z"))))
    assert len(G) == 3 and all(len(g._terms) == 2 for g in G)  # no monomial element
    assert G.stats.box_drops == 0 and G.stats.pairs_reduced > 0
    assert GroebnerBasis(R, G.elements).stats is None


COLENGTH_ORDER = TermOrder("degrevlex", (2, 0, 1))  # the Monsky quartic leads with z^4


def monsky_bracket(field, q, order=None, pure=3, t="1"):
    """(f, x^q, y^q, z^q) for the Monsky quartic f at t (the element of
    `field` written as `t`, 1 by default), or (f, x^q, y^q) for pure=2."""
    R = PolynomialRing(field, ("x", "y", "z"), order)
    powers = frobenius_power(IdealPresentation(R, R.gens()[:pure]), q).generators
    f = R.parse(f"z^4 + x*y*z^2 + (x^3+y^3)*z + {t}*x^2*y^2")
    return IdealPresentation(R, (f,) + powers)


def twisted_cubic_bracket(q, order):
    """The twisted-cubic cone plus (x, y, z, w)^[q] over GF(4)."""
    R = PolynomialRing(GF4, ("x", "y", "z", "w"), order)
    cubic = tuple(map(R.parse, ("x*z - y^2", "x*w - y*z", "y*w - z^2")))
    return IdealPresentation(R, cubic + frobenius_power(IdealPresentation(R, R.gens()), q).generators)


def index_rejects(index, items, key):
    """Whether `index`, up to date with `items`, sends the term with this
    key to the remainder without a scan: no point of its staircase divides
    the term's (u, v) fields."""
    entry = index.table.get(key & index.keep)
    if entry is None or entry[0] != len(items):
        return False
    _, us, vs = entry
    return vs[bisect_right(us, key & index.ufield) - 1] > key & index.vfield


@pytest.mark.parametrize("make", [
    # over F_2 in the user order the working set first passes the cutoff at q = 64
    pytest.param(lambda: monsky_bracket(F2, 64), id="F2-q64"),
    pytest.param(lambda: monsky_bracket(F3, 27), id="F3-q27"),
    pytest.param(lambda: monsky_bracket(F5, 25), id="F5-q25"),
    pytest.param(lambda: monsky_bracket(F2, 32, COLENGTH_ORDER), id="F2-q32-colength-order"),
    pytest.param(lambda: monsky_bracket(F3, 27, COLENGTH_ORDER), id="F3-q27-colength-order"),
    pytest.param(lambda: monsky_bracket(F5, 25, COLENGTH_ORDER), id="F5-q25-colength-order"),
    pytest.param(lambda: monsky_bracket(F3, 9, TermOrder("lex")), id="F3-q9-lex"),
    pytest.param(lambda: monsky_bracket(F5, 25, pure=2), id="F5-q25-no-pure-power-of-z"),
    # in degrevlex this working set stays at 13 elements, below the cutoff
    pytest.param(lambda: twisted_cubic_bracket(8, TermOrder("lex")), id="GF4-cubic-q8-lex"),
])
def test_indexed_reducer_matches_classic_loop(monkeypatch, make):
    rejected, missed = [], []
    reduce_terms = groebner._reduce_terms

    def spy(work, reducers, dom, guard, box, tally, index=None, zfield=0):
        terms = reduce_terms(work, reducers, dom, guard, box, tally, index, zfield)
        items = reducers[0]  # the ideal loop's one list
        if index is not None and len(items) > groebner._INDEX_MIN_ITEMS:
            for k in terms[::2]:
                (rejected if index_rejects(index, items, k) else missed).append(k)
        return terms

    monkeypatch.setattr(groebner, "_reduce_terms", spy)
    I = make()
    G = buchberger(I)
    assert G.elements == classic_buchberger(I).elements
    assert G.stats.max_basis > groebner._INDEX_MIN_ITEMS and rejected and not missed


@st.composite
def divisor_index_runs(draw):
    """A ring in 1-4 variables with a random order and priority, and a
    sequence of (append, exponents): append a reducer with that lead, or
    query the term."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("lex", "degrevlex")))
    order = TermOrder(kind, tuple(draw(st.permutations(range(n)))))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return n, order, draw(st.lists(st.tuples(st.booleans(), exps), min_size=1, max_size=40))


def staircase_run(*leads):
    """A run in x, y, where every reducer enters the one staircase, that
    queries the term x^9 y^9 after each lead."""
    return 2, TermOrder("degrevlex"), [op for e in leads for op in ((True, e), (False, (9, 9)))]


@settings(max_examples=200, deadline=None)
@given(divisor_index_runs())
# an equal u replaces (3, 3); (4, 4) is dominated; (2, 1) removes (3, 2) and
# (5, 1); (0, 0) removes every point
@example(staircase_run((3, 3), (1, 5), (5, 1), (3, 2), (4, 4), (2, 1), (0, 6), (0, 0)))
def test_divisor_index_matches_brute_force_divisibility(run):
    n, order, ops = run
    R = PolynomialRing(F5, tuple("xyzw"[:n]), order)
    index = groebner._DivisorIndex(R)
    prio = order.resolved_priority(n)
    kept, (u, v) = prio[:-2], (prio * 2)[-2:]  # in one variable u is v
    items = []
    for append, e in ops:
        key = R.encode(e)
        if append:
            items.append(groebner._Item(key, e, ()))
            continue
        below = [it.exps for it in items if all(it.exps[i] <= e[i] for i in kept)]
        points = {(a[u] << EXP_BITS * u, a[v] << EXP_BITS * v) for a in below}
        minimal = sorted(p for p in points
                         if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in points))
        divides = any(all(a <= b for a, b in zip(it.exps, e)) for it in items)
        masked = key & index.keep
        entry = index.table[masked]
        index.update(items, masked, entry)
        assert entry[0] == len(items)
        # between the points (-1, vfield) and (ufield, -1), which divide no term
        ends = [(-1, index.vfield)], [(index.ufield, -1)]
        assert list(zip(entry[1], entry[2])) == ends[0] + minimal + ends[1]
        assert index_rejects(index, items, key) == (not divides)


@pytest.mark.parametrize("field, t, q, length, stats", [
    pytest.param(F5, "1", 125, 46870, (15576, 5, 175, 15043, 353, 180, 6357, 2311, 177),
                 id="F5-q125"),
    pytest.param(F3, "1", 243, 177142, (19701, 4, 202, 19100, 395, 200, 13116, 21599, 199),
                 id="F3-q243"),
    pytest.param(F2T, "t", 64, 12284, (5671, 4, 118, 5338, 211, 108, 1264, 478, 107),
                 id="F2(t)-generic-q64"),
    pytest.param(GF4, "s", 32, 3076, (1035, 4, 49, 896, 86, 44, 323, 186, 46),
                 id="GF4-t=s-q32"),
    pytest.param(F7, "1", 343, 352942,
                 (193131, 4, 626, 191260, 1241, 623, 46916, 5721, 622), id="F7-q343"),
])
def test_colength_order_counters_are_pinned(field, t, q, length, stats):
    # values measured with the plain scan: choosing another reducer for any
    # term, or another pair order, would move a counter or the basis
    G = buchberger(monsky_bracket(field, q, COLENGTH_ORDER, t=t))
    assert G.colength() == length
    assert G.stats == stats


def assert_minimal_basis_of(G, reduced):
    """G is a minimal Groebner basis of the ideal whose reduced basis is
    `reduced`: the same leads, each reducing the other to zero, and G
    reads as `reduced`.  Reading G's elements leaves its counters, leads
    and colength as they were."""
    before = G.stats, G.leading_exponents(), G.colength()
    assert G.leading_exponents() == reduced.leading_exponents()
    assert not any(G.normal_form(g) for g in reduced)
    assert G.elements == reduced.elements
    assert not any(reduced.normal_form(g) for g in G)
    assert (G.stats, G.leading_exponents(), G.colength()) == before


@contextmanager
def row_dispatch(rows=True):
    """Yields a list that records, per run by positions, whether it took
    dense rows; rows=False forces the sparse path by patching the dispatch."""
    taken = []
    dispatch = groebner._row_kernel

    def spy(*args):
        kernel = dispatch(*args) if rows else None
        taken.append(kernel is not None)
        return kernel

    with patch.object(groebner, "_row_kernel", spy):
        yield taken


def run_by_positions(I, f, rows=True):
    """buchberger(I, f) and whether it ran on dense rows."""
    with row_dispatch(rows) as taken:
        G = buchberger(I, f)
    return G, taken == [True]


@pytest.mark.parametrize("field, t, q, length, stats, dense", [
    pytest.param(F5, "1", 125, 46870, (368, 0, 180, 2, 186, 8, 2262, 1298, 191), True,
                 id="F5-q125"),
    pytest.param(F7, "1", 343, 352942, (1254, 0, 625, 0, 629, 8, 16366, 2530, 634), True,
                 id="F7-q343"),
    pytest.param(F2T, "t", 64, 12284, (258, 0, 127, 0, 131, 8, 675, 239, 136), False,
                 id="F2(t)-generic-q64"),
    pytest.param(GF4, "s", 32, 3076, (108, 0, 50, 2, 56, 8, 167, 95, 61), False,
                 id="GF4-t=s-q32"),
])
def test_position_run_counters_are_pinned(field, t, q, length, stats, dense):
    # the same cells by positions, f named: pairs only within one z-exponent,
    # formed with staircase neighbours only and no product criterion;
    # reduction_steps include the f-steps that make the inputs z^i * g,
    # and zero reductions fall to 8 in every cell.  The F_p cells
    # run on dense rows, the others sparse, with the same counters
    I = monsky_bracket(field, q, COLENGTH_ORDER, t=t)
    G, rows = run_by_positions(I, I.generators[0])
    assert rows == dense
    assert G.colength() == length
    assert G.stats == stats
    s = G.stats
    assert s.by_product == 0
    assert s.pairs_formed == s.by_product + s.by_b_k + s.by_m_f + s.pairs_reduced
    if q < 343:  # the classic loop takes seconds at q = 125; at q = 343 the colength is pinned
        assert_minimal_basis_of(G, classic_buchberger(I))


POSITION_FIELDS = (F2, F3, F5, F7, GF4, make_extension(3, 2))
F127 = PrimeField(127)  # the largest prime whose residues a byte row holds
ROW_FIELDS = (F2, F3, F5, F7, F127)


@st.composite
def hypersurface_ideals(draw, fields=POSITION_FIELDS, homogeneous=False):
    """(I, f) in x, y, z over F_2, F_3, F_5, F_7, GF(4) or GF(9), in
    degrevlex or lex under any priority in which f = z^d + lower terms
    (d = 1..4) leads with z^d: f, up to two random generators, x^a, y^b
    and maybe z^c.  With `homogeneous`, over `fields`, every generator is
    homogeneous, z leads a degrevlex priority (z, u, v), and maybe
    u^A*v^m + c*u^(A-1)*v^(m+1) joins, its lead outside the box."""
    field = draw(st.sampled_from(fields))
    raws = [c for c in field.elements() if c != field.zero]
    # z first (the colength order's choice) in most runs
    z_first = st.permutations((0, 1)).map(lambda p: (2, *p))
    priority = draw(z_first if homogeneous else st.one_of(z_first, st.permutations(range(3))))
    order = TermOrder("degrevlex" if homogeneous else draw(st.sampled_from(("degrevlex", "lex"))),
                      priority)
    ring = PolynomialRing(field, ("x", "y", "z"), order)
    d = draw(st.integers(1, 4))
    lower = []
    for _ in range(draw(st.integers(0, 4))):  # terms of degree <= d with z-exponent < d
        c = draw(st.integers(0, d - 1))
        a = draw(st.integers(0, d - c))
        b = d - c - a if homogeneous else draw(st.integers(0, d - c - a))
        lower.append(((a, b, c), draw(st.sampled_from(raws))))
    f = ring.polynomial([(ring.encode((0, 0, d)), field.one)]
                        + [(ring.encode(e), c) for e, c in lower])
    assume(f.leading_monomial().exponents == (0, 0, d))
    gens = [f]
    for _ in range(draw(st.integers(0, 2))):
        if homogeneous:  # all terms of one degree n
            n = draw(st.integers(1, 5))
            monomial = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
                lambda e: sum(e) <= n).map(lambda e: (*e, n - sum(e)))
        else:
            monomial = st.tuples(*[st.integers(0, 3)] * 3).filter(any)
        terms = draw(st.lists(st.tuples(monomial, st.sampled_from(raws)), min_size=1, max_size=3))
        g = ring.polynomial((ring.encode(e), c) for e, c in terms)
        if g:
            gens.append(g)
    x, y, z = ring.gens()
    bounds = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    gens += [x ** bounds[0], y ** bounds[1]]
    if draw(st.booleans()):
        gens.append(z ** draw(st.integers(1, 6)))
    if homogeneous and draw(st.booleans()):  # u^A*v^m leads: u, v after z in the priority
        i, k = priority[1:]
        u, v = ring.gens()[i], ring.gens()[k]
        big, m = bounds[i] + draw(st.integers(0, 2)), draw(st.integers(1, 2))
        gens.append(u**big * v**m + draw(st.sampled_from(raws)) * u**(big - 1) * v**(m + 1))
    return IdealPresentation(ring, draw(st.permutations(gens))), f


def named_case(field, order, *gens):
    ring = PolynomialRing(field, ("x", "y", "z"), order)
    gens = tuple(map(ring.parse, gens))
    return IdealPresentation(ring, gens), gens[0]


@settings(max_examples=150, deadline=None)
@given(hypersurface_ideals())
# a box that grows in the loop lets a one-term element of one position cut
# terms at every position: ROADMAP "The box and positions" records colength
# 128 for 96 on the first case, and this loop with such a box gives 4 for 3
# on the second
@example(named_case(F2, COLENGTH_ORDER, "z^4 + x^4 + x^2", "x^7", "y^8", "z^6"))
@example(named_case(F2, COLENGTH_ORDER, "z^3 + x*z^2 + z^2 + x", "x^3", "y", "z^3"))
# z is last in the priority, so not a kept field of the divisor index
@example(named_case(F3, TermOrder("degrevlex"), "z^2 + x + y", "x^3", "y^3", "x*z + y^2"))
def test_position_run_matches_ideal_run_and_classic_loop(case):
    I, f = case
    G, H, C = buchberger(I, f), buchberger(I), classic_buchberger(I)
    assert_minimal_basis_of(H, C)
    assert_minimal_basis_of(G, C)
    s = G.stats
    assert s.pairs_formed == s.by_product + s.by_b_k + s.by_m_f + s.pairs_reduced
    if I.ring.order.resolved_priority(3).index(2) < 1:  # z is kept: positions
        assert s.by_product == 0
    else:  # the ideal loop, counter for counter
        assert s == H.stats


@settings(max_examples=150, deadline=None)
@given(hypersurface_ideals(ROW_FIELDS, homogeneous=True))
# leads outside the box with tails: x^9*y, and y^9*z^2 whose tail holds
# x*y^8*z^2 in the box
@example(named_case(F5, COLENGTH_ORDER, MONSKY_T1, "x^9*y + 2*x^8*y^2", "x^8", "y^8", "z^8"))
@example(named_case(F127, COLENGTH_ORDER, "z^2 + 100*x*z + 3*y^2", "y^9*z^2 + 126*x*y^8*z^2",
                    "x^5", "y^7", "x^2*y + 5*x*y*z"))
def test_dense_rows_match_the_sparse_run(case):
    # homogeneous generators over F_p, p <= 127, z first in degrevlex and
    # both x and y bounded: the run takes dense rows, every counter, lead
    # and tail is the sparse run's, and both read as the reduced basis
    I, f = case
    G, rows = run_by_positions(I, f)
    H, sparse = run_by_positions(I, f, rows=False)
    assert rows and not sparse
    assert G.stats == H.stats
    assert [(it.key, it.tail) for it in G._items] == [(it.key, it.tail) for it in H._items]
    C = classic_buchberger(I)
    assert_minimal_basis_of(G, C)
    assert_minimal_basis_of(H, C)
    assert G.elements == H.elements


@pytest.mark.parametrize("field, order, gens, dense", [
    (F127, COLENGTH_ORDER, (MONSKY_T1, "x^9", "y^9", "z^9"), True),
    # 130 + 130 carries out of a byte
    (PrimeField(131), COLENGTH_ORDER, (MONSKY_T1, "x^9", "y^9", "z^9"), False),
    (F5, COLENGTH_ORDER, (MONSKY_T1, "x^9 + y", "y^9", "z^9"), False),  # not homogeneous
    (F5, COLENGTH_ORDER, (MONSKY_T1, "x^9", "z^9"), False),  # the box does not bound y
    (F5, TermOrder("lex", (2, 0, 1)), (MONSKY_T1, "x^9", "y^9", "z^9"), False),
], ids=["F127", "F131", "inhomogeneous", "open-box", "lex"])
def test_rows_are_chosen_by_the_structure_of_the_input(field, order, gens, dense):
    I, f = named_case(field, order, *gens)
    G, rows = run_by_positions(I, f)
    H, _ = run_by_positions(I, f, rows=False)
    assert rows == dense and G.stats == H.stats
    assert G.stats.by_product == 0  # by positions in every case


def test_row_tables_are_built_once_per_prime():
    for p in (2, 5, 127):
        neg, mul, mod, nz, inv = tables(p)
        assert tables(p)[1] is mul
        for c, y in product(range(p), repeat=2):
            assert (neg[c][y], mul[c][y]) == (-c * y % p, c * y % p)
        assert all(mod[y] == y % p for y in range(2 * p - 1))  # a sum of two residues
        assert all(nz[y] == (y != 0) for y in range(256))
        assert all(c * inv[c] % p == 1 for c in range(1, p))


def test_dense_bases_make_their_tails_only_when_read(monkeypatch):
    # colengths read only leads, so the bases of e >= 2 never make flat
    # tails; at e = 1 the primality check reads normal forms, which do
    bases = []
    sample = multiplicity.hk_sample_gb

    def spy(*args):
        bases.append(sample(*args))
        return bases[-1]

    monkeypatch.setattr(multiplicity, "hk_sample_gb", spy)
    R = PolynomialRing(F5, ("x", "y", "z"))
    spec = QuotientRingSpec(R, (R.parse(MONSKY_T1),))
    assert [s.length for s in hk_function(spec, IdealPresentation(R, R.gens()), 3)] == [
        70, 1870, 46870]
    rows = [[it for it in G._items if isinstance(it, RowItem)] for G in bases]
    assert all(rows) and len(rows) == 3
    assert any(it._tail is not None for it in rows[0])
    assert all(it._tail is None for items in rows[1:] for it in items)


def test_dense_basis_reads_as_the_sparse_basis():
    I = monsky_bracket(F5, 25, COLENGTH_ORDER)
    G, rows = run_by_positions(I, I.generators[0])
    H, sparse = run_by_positions(I, I.generators[0], rows=False)
    assert rows and not sparse
    assert G.elements == H.elements
    x, y, z = I.ring.gens()
    for g in (x**24 * y**3, z**7 + x * y * z**5, (x + 2 * y + 3 * z) ** 30, I.ring.one):
        assert G.normal_form(g) == H.normal_form(g)
    assert is_primary_to_origin(G)


def test_hk_primality_check_at_e1_passes_and_fails_as_before():
    # at e = 1 the check reads a dense basis and passes; a homogeneous ideal
    # of finite colength is primary to the origin, so the failing ideal has
    # a generator that is not homogeneous, and its run stays sparse
    R = PolynomialRing(F5, ("x", "y", "z"))
    x, y, z = R.gens()
    spec = QuotientRingSpec(R, (R.parse(MONSKY_T1),))
    with row_dispatch() as taken:
        assert hk_function(spec, IdealPresentation(R, (x, y, z)), 1)[0].length == 70
        with pytest.raises(ValidationError,
                           match="^ideal is not primary to the origin: variable 'x'"):
            hk_function(spec, IdealPresentation(R, (x - 1, y, z)), 1)
    assert taken == [True, False]


@pytest.mark.parametrize("gens", [
    ("w^3 + x*y*w + x^3 + y*z^2", "x^4", "y^4", "z^4"),
    ("w^2 + x*z + y^2", "x^3 + y*w", "y^3", "z^3"),
    ("w^3 + x*y*z + z^2*w", "x^3", "y^3", "z^3 + x*w"),
])
def test_position_run_in_four_variables_scans_every_active_lead(gens):
    # w and x are kept fields: the leads of one position are not a plane
    # staircase, so every active lead is a candidate (staircase neighbours
    # in (y, z) alone give colength infinity on each of these)
    R = PolynomialRing(F3, ("x", "y", "z", "w"), TermOrder("degrevlex", (3, 0, 1, 2)))
    I = IdealPresentation(R, tuple(map(R.parse, gens)))
    G = buchberger(I, I.generators[0])
    assert G.stats.by_product == 0  # by positions
    assert_minimal_basis_of(G, classic_buchberger(I))


def test_position_run_pairs_and_divisors_stay_within_one_position(monkeypatch):
    # over the ideal, lead(h) = x*y divides the lcm x^2*y^2*z of the queued
    # pair of x^2*y*z and x*y^2*z, so criterion B_k drops the pair; by
    # positions h sits at z^0 and the pair at z^1, so it stays, and no lead
    # at z^0 reduces a term at z^1, with the divisor index or without
    monkeypatch.setattr(groebner, "_INDEX_MIN_ITEMS", 0)
    R = PolynomialRing(F5, ("x", "y", "z"), COLENGTH_ORDER)
    zfield = groebner.FIELD_MASK << EXP_BITS * 2
    items = [groebner._Item(R.encode(e), e, ()) for e in ((2, 1, 1), (1, 2, 1), (1, 1, 0))]
    lcm = R.encode((2, 2, 1))
    for z, kept in ((0, []), (zfield, [(lcm, 0, 1)])):
        tally = [0, 0, 0, 0]
        _, pairs = groebner._gm_update(items, [], [(lcm, 0, 1)], 2, R, tally, z)
        assert pairs == kept and tally[2] == 1 - len(kept)
        for index in (None, groebner._DivisorIndex(R)):
            for e in ((3, 3, 1), (3, 3, 0)):
                work = {R.encode(e): 1}
                reducers = defaultdict(list, {0: items[2:]})  # by position, as buchberger's
                left = groebner._reduce_terms(dict(work), reducers, F5, R.guard, 0, [0, 0],
                                              index, z)
                assert left == (() if e[2] == 0 or not z else (R.encode(e), 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1)),
                min_size=1, max_size=30))
# (1, 1) is divided by (1, 0) and (0, 1), the first lead dividing it, and
# (1, 0) again replaces its equal lead
@example([(3, 0, 0), (0, 3, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0), (1, 0, 0)])
def test_staircase_neighbours_match_the_full_scan(leads):
    # elements with these leads at z^0 or z^1 enter one by one, as the
    # inputs of a run by positions do (one may have a lead another divides):
    # the neighbours form the new pairs of the full scan and keep its queue;
    # the staircase holds the active leads no other active lead divides,
    # which are the only ones that can win a pair
    R = PolynomialRing(F5, ("x", "y", "z"), COLENGTH_ORDER)
    zfield = groebner.FIELD_MASK << EXP_BITS * 2
    index = groebner._DivisorIndex(R)
    assert index.keep == zfield
    items = [groebner._Item(R.encode(e), e, ()) for e in leads]
    stairs = defaultdict(lambda: ([-1, index.ufield], [index.vfield, -1], []))
    actives = defaultdict(list)
    pairs, expected = [], []
    tally, full = [0, 0, 0, 0], [0, 0, 0, 0]
    for h, it in enumerate(items):
        pos = it.key & zfield
        actives[pos], expected = gm_update_full_scan(items, actives[pos], expected, h, R, full,
                                                     zfield)
        stairs[pos], pairs = groebner._gm_update(items, stairs[pos], pairs, h, R, tally, zfield)
        assert pairs == expected
        assert tally[1:3] == full[1:3] and tally[0] - tally[3] == full[0] - full[3]
        us, vs, gs = stairs[pos]
        assert [(it.key & index.ufield, it.key & index.vfield) for it in map(items.__getitem__, gs)
                ] == list(zip(us, vs))[1:-1]
        minimal = [g for g in actives[pos] if not any(
            k != g and divides(items[k].exps, items[g].exps) for k in actives[pos])]
        assert sorted(gs) == sorted(minimal)


@st.composite
def position_reductions(draw):
    """Monic items at z^0 .. z^3 in x, y, z over F_2, F_5 or GF(4) in the
    colength order, a work dict, and bounds on x and y for the box."""
    field = draw(st.sampled_from((F2, F5, GF4)))
    R = PolynomialRing(field, ("x", "y", "z"), COLENGTH_ORDER)
    raws = [c for c in field.elements() if c != field.zero]
    exps = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3))
    terms = st.lists(st.tuples(exps, st.sampled_from(raws)), min_size=1, max_size=4)
    polys = [R.polynomial((R.encode(e), c) for e, c in t)
             for t in draw(st.lists(terms, min_size=1, max_size=24))]
    items = [groebner._make_item(R, g._terms) for g in polys if g]
    work = {R.encode(e): c for e, c in draw(terms)}
    bounds = draw(st.dictionaries(st.integers(0, 1), st.integers(1, 8)))
    return R, items, work, bounds


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(position_reductions())
def test_reducer_by_positions_matches_a_plain_scan(case):
    # one reducer list per position, with the divisor index keeping
    # irreducible terms out of the heap or without it, reduces like a scan
    # of every item for a divisor at the term's own z-exponent
    R, items, work, bounds = case
    zfield = groebner.FIELD_MASK << EXP_BITS * 2
    reducers = defaultdict(list)
    for it in items:
        reducers[it.key & zfield].append(it)
    box = groebner._box_mask([groebner._Item(0, (b if i == 0 else 0, b if i == 1 else 0, 0), ())
                              for i, b in bounds.items()])
    remainder, steps, drops = reduce_by_positions(
        work, [(it.exps, groebner._pairs(it.tail)) for it in items], R, 2, bounds)
    for index in (None, groebner._DivisorIndex(R)):
        tally = [0, 0]
        with patch.object(groebner, "_INDEX_MIN_ITEMS", 0):
            left = groebner._reduce_terms(dict(work), reducers, R.domain, R.guard, box, tally,
                                          index, zfield)
        assert groebner._pairs(left) == remainder and tally == [steps, drops]


def test_divisor_index_keeps_one_staircase_per_kept_exponent(monkeypatch):
    # in the colength order only the field of z is kept, and z stays below 4
    # on the terms the reducer meets; keyed on every field but y's, the pair
    # loop's index held 652 entries and both indexes examined 100,650 reducers
    indexes, examined = [], [0]
    update = groebner._DivisorIndex.update

    def spy(self, items, masked, entry):
        if self not in indexes:
            indexes.append(self)
        examined[0] += len(items) - entry[0]
        return update(self, items, masked, entry)

    monkeypatch.setattr(groebner._DivisorIndex, "update", spy)
    G = buchberger(monsky_bracket(F5, 125, COLENGTH_ORDER))
    assert G.stats == (15576, 5, 175, 15043, 353, 180, 6357, 2311, 177)
    assert len(indexes) == 2 and len(indexes[0].table) <= 8 and examined[0] < 5000


def test_reducer_pushes_each_key_once(monkeypatch):
    # a cancelled term keeps its zero in the work dict, so a key created
    # again is updated in place and not pushed a second time
    pushed = []
    heappush = groebner.heapq.heappush
    reduce_terms = groebner._reduce_terms

    def push(heap, item):
        if isinstance(item, int):  # a term key; the pair queue holds tuples
            pushed[-1].append(item)
        heappush(heap, item)

    def spy(*args):
        pushed.append([])
        return reduce_terms(*args)

    monkeypatch.setattr(groebner.heapq, "heappush", push)
    monkeypatch.setattr(groebner, "_reduce_terms", spy)
    G = buchberger(monsky_bracket(F5, 125, COLENGTH_ORDER))
    assert G.stats == (15576, 5, 175, 15043, 353, 180, 6357, 2311, 177)
    G.elements  # reading the elements reduces tails too
    assert all(len(set(keys)) == len(keys) for keys in pushed)
    assert sum(map(len, pushed)) > 0


@pytest.mark.parametrize("field, q, stats, final", [
    pytest.param(F5, 125, (15576, 5, 175, 15043, 353, 180, 6357, 2311, 177), 24, id="F5-q125"),
    pytest.param(F3, 243, (19701, 4, 202, 19100, 395, 200, 13116, 21599, 199), 4, id="F3-q243"),
])
def test_reading_elements_reduces_only_tails_a_lower_lead_divides(
        monkeypatch, field, q, stats, final):
    # buchberger reduces each S-pair once and stops at the minimal basis;
    # reading the elements reduces the few tails in which a lower kept lead
    # divides a term, not all 177 (F_5) or 199 (F_3) of them
    calls = []
    reduce_terms = groebner._reduce_terms

    def spy(*args):
        calls.append(len(args[1][0]))  # the reducers: one list over the ideal
        return reduce_terms(*args)

    monkeypatch.setattr(groebner, "_reduce_terms", spy)
    G = buchberger(monsky_bracket(field, q, COLENGTH_ORDER))
    assert G.stats == stats and len(calls) == G.stats.pairs_reduced
    calls.clear()
    G.colength(), G.leading_exponents()
    assert not calls  # a basis only counted on reduces no tail
    G.elements
    items, guard = G._items, G.ring.guard  # ((k | guard) - m) & guard == guard: m divides k
    expected = [i for i, it in enumerate(items)
                if any(((k | guard) - lower.key) & guard == guard
                       for k in it.tail[::2] for lower in items[:i])]
    assert calls == expected and len(expected) == final < len(G)
    assert G.stats == stats


def test_trace_discriminant_is_the_discriminant_of_a_univariate_modulus():
    # the trace form of F_p[x]/(g) on 1, x, ..., x^(n-1) has determinant disc(g)
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(2024)
    X = sympy.Symbol("x")
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7, 11))
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]  # monic
        R = PolynomialRing(PrimeField(p), ("x",))
        g = R.polynomial([(R.encode((i,)), c) for i, c in enumerate(coeffs)])
        expected = sympy.discriminant(sum(c * X**i for i, c in enumerate(coeffs)), X) % p
        assert trace_discriminant(buchberger(IdealPresentation(R, (g,)))).raw == expected


def test_finite_quotient_maps_reject_bad_ideals():
    R = PolynomialRing(F5, ("x", "y"))
    x, y = R.gens()
    with pytest.raises(ValidationError, match="infinite"):
        multiplication_matrix(buchberger(IdealPresentation(R, (x,))), y)
    with pytest.raises(ValidationError, match="^ideal is not zero-dimensional"):
        ideal_colon_m(IdealPresentation(R, (x, x * y)))
    with pytest.raises(ValidationError, match="^ideal is not primary to the origin: variable 'x'"):
        ideal_colon_m(IdealPresentation(R, (x - 1, y)))

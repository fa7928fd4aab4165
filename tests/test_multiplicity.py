"""Hilbert-Kunz / Hilbert-Samuel functions, estimates, and signature searches."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hklab import (
    HKSample,
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    QuotientRingSpec,
    RationalFunctionField,
    TermOrder,
    ValidationError,
    buchberger,
    colength,
    csig_search,
    hk_estimate,
    hk_function,
    hs_function,
    hs_multiplicity,
    krull_dimension,
    make_extension,
    multiplicity,
    normal_form,
    rsig_search,
    socle_basis,
)
from hklab.groebner import INFINITE, _primary_witness, colength_below_degree
from hklab.multiplicity import hk_sample_gb
from hklab.polyring import frobenius_power, ordinary_power

from .oracles import (
    bracket_colength_hypersurface,
    hs_lengths_by_powers,
    monomials_below,
    poly_dict,
    rsig_rows_per_vector,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

R3 = PolynomialRing(F2, ("x", "y", "z"))
MONSKY0 = R3.parse("z^4 + x*y*z^2 + (x^3+y^3)*z")


def test_krull_dimension_examples():
    assert QuotientRingSpec(R3).dimension == 3
    assert QuotientRingSpec(R3, (MONSKY0,)).dimension == 2  # hypersurface
    R2xy = PolynomialRing(F2, ("x", "y"))
    x, y = R2xy.gens()
    assert QuotientRingSpec(R2xy, (x, y)).dimension == 0
    assert QuotientRingSpec(R2xy, (x * y,)).dimension == 1
    assert krull_dimension(QuotientRingSpec(R2xy, (x**2,))) == 1


def test_quotient_ring_rejects_unit_defining_ideal():
    R2xy = PolynomialRing(F2, ("x", "y"))
    x, _ = R2xy.gens()
    with pytest.raises(ValidationError):
        QuotientRingSpec(R2xy, (x + 1, x))


def test_quotient_ring_rejects_foreign_and_zero_generators():
    R2xy = PolynomialRing(F2, ("x", "y"))
    with pytest.raises(ValidationError, match="from a different ring"):
        QuotientRingSpec(R2xy, (R3.parse("x*y"),))
    with pytest.raises(ValidationError, match="zero generator in defining ideal"):
        QuotientRingSpec(R2xy, (R2xy.parse("x - x"),))


def test_hk_regular_ring_baseline():
    R = QuotientRingSpec(R3)
    m = IdealPresentation(R3, R3.gens())
    samples = hk_function(R, m, 3)
    assert [s.length for s in samples] == [8, 64, 512]
    assert all(s.normalized == 1 for s in samples)
    est = hk_estimate(samples)
    assert (est.value, est.d_hat, est.error_bound) == (1, 0, 0)


def test_hk_deep_staircases_have_no_recursion_cliff(f2_plane):
    # (x^2, xy, y^2)^[q] has colength 3q^2; the count used to recurse about
    # q levels deep and raised RecursionError from e = 10 on
    ring, x, y = f2_plane
    samples = hk_function(QuotientRingSpec(ring), IdealPresentation(ring, (x**2, x * y, y**2)), 11)
    assert [s.length for s in samples] == [3 * 4**e for e in range(1, 12)]


def test_hk_monsky_fiber_e1():
    R = QuotientRingSpec(R3, (MONSKY0,))
    m = IdealPresentation(R3, R3.gens())
    s = hk_function(R, m, 1)[0]
    assert (s.length, s.normalized) == (8, Fraction(2))


def test_hk_monomial_staircase_f3():
    Rxy = PolynomialRing(F3, ("x", "y"))
    x, y = Rxy.gens()
    s = hk_function(QuotientRingSpec(Rxy), IdealPresentation(Rxy, (x**2, y**3)), 1)[0]
    assert (s.length, s.normalized) == (54, Fraction(6))


def test_hk_validates_primality_with_witness():
    Rxy = PolynomialRing(F3, ("x", "y"))
    x, y = Rxy.gens()
    bad = IdealPresentation(Rxy, (x - 1, y))  # zero-dim but supported off origin
    with pytest.raises(ValidationError, match="primary to the origin"):
        hk_function(QuotientRingSpec(Rxy), bad, 2)
    not_zero_dim = IdealPresentation(Rxy, (x,))
    with pytest.raises(ValidationError, match="zero-dimensional"):
        hk_function(QuotientRingSpec(Rxy), not_zero_dim, 1)
    with pytest.raises(ValidationError):
        hk_function(QuotientRingSpec(Rxy), bad, 0)


def test_hk_estimate_arithmetic():
    fake = [
        HKSample(1, 2, 8, Fraction(2)),
        HKSample(2, 4, 44, Fraction(11, 4)),
    ]
    est = hk_estimate(fake)
    assert est.value == Fraction(11, 4)
    assert est.d_hat == Fraction(3, 2)  # 2 * |2.75 - 2|
    assert est.error_bound == Fraction(3, 4)  # 2 * 1.5 / 4
    with pytest.raises(ValidationError):
        hk_estimate(fake[:1])


def test_hk_monotone_in_the_ideal():
    # I contained in I' forces lengths(I') <= lengths(I) at every e
    Rxy = PolynomialRing(F5, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    inner = IdealPresentation(Rxy, (x**2, y**2))
    outer = IdealPresentation(Rxy, (x**2, y**2, x * y))
    gb_outer = buchberger(outer)
    assert all(normal_form(g, gb_outer).is_zero() for g in inner.generators)
    for a, b in zip(hk_function(R, inner, 3), hk_function(R, outer, 3)):
        assert b.length <= a.length


def test_parameter_monomial_ideal_has_constant_normalized_samples():
    # for monomial systems of parameters the normalized HK function is
    # constant and equals the Hilbert-Samuel multiplicity (= colength)
    Rxy = PolynomialRing(F3, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    sop = IdealPresentation(Rxy, (x**2, y**3))
    samples = hk_function(R, sop, 3)
    assert len({s.normalized for s in samples}) == 1
    hs = hs_function(R, sop, 6)
    est = hs_multiplicity(hs, 2)
    assert est.multiplicity == samples[0].normalized == colength(buchberger(sop))


def test_hs_examples():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    assert [s.length for s in hs_function(R, IdealPresentation(Rxy, (x, y)), 4)] == [1, 3, 6, 10]
    R1 = PolynomialRing(F2, ("x",))
    x1 = R1.var("x")
    Rt = QuotientRingSpec(R1, (x1**3,))
    assert [s.length for s in hs_function(Rt, IdealPresentation(R1, (x1,)), 5)] == [1, 2, 3, 3, 3]
    got = [s.length for s in hs_function(R, IdealPresentation(Rxy, (x**2, y**2)), 3)]
    assert got == [4, 12, 24]  # 2n(n+1): leading term 2n^2, e(I) = 4


def test_hs_lengths_nondecreasing():
    R = QuotientRingSpec(R3, (MONSKY0,))
    m = IdealPresentation(R3, R3.gens())
    lengths = [s.length for s in hs_function(R, m, 5)]
    assert lengths == sorted(lengths)


def test_hs_multiplicity_examples():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    est = hs_multiplicity(hs_function(R, IdealPresentation(Rxy, (x, y)), 5), 2)
    assert est.multiplicity == 1
    est4 = hs_multiplicity(hs_function(R, IdealPresentation(Rxy, (x**2, y**2)), 5), 2)
    assert est4.multiplicity == 4
    monsky = QuotientRingSpec(R3, (MONSKY0,))
    m = IdealPresentation(R3, R3.gens())
    est_m = hs_multiplicity(hs_function(monsky, m, 6), 2)
    assert est_m.multiplicity == 4  # homogeneous degree-4 hypersurface


def test_hs_multiplicity_diagnostics():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    samples = hs_function(R, IdealPresentation(Rxy, (x, y)), 5)
    with pytest.raises(ValidationError, match="at least"):
        hs_multiplicity(samples[:4], 2)
    with pytest.raises(ValidationError, match="increase n_max"):
        # second differences of a cubic-growth sequence never stabilize
        R3reg = QuotientRingSpec(R3)
        m3 = IdealPresentation(R3, R3.gens())
        hs_multiplicity(hs_function(R3reg, m3, 5), 2)


def test_socle_basis_examples():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    assert socle_basis(R, IdealPresentation(Rxy, (x, y))) == [Rxy.one]
    assert socle_basis(R, IdealPresentation(Rxy, (x**2, y**2))) == [x * y]
    Rq = PolynomialRing(F5, ("x", "y", "z"))
    xx, yy, zz = Rq.gens()
    hyp = QuotientRingSpec(Rq, (xx * yy - zz**2,))
    assert socle_basis(hyp, IdealPresentation(Rq, (xx, yy))) == [zz]
    with pytest.raises(ValidationError, match="system of parameters"):
        socle_basis(R, IdealPresentation(Rxy, (x,)))
    # right generator count but the unit ideal: the socle is empty
    with pytest.raises(ValidationError, match="unit ideal"):
        socle_basis(R, IdealPresentation(Rxy, (x, x + 1)))


def test_rsig_regular_ring_is_exactly_one():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    result = rsig_search(R, IdealPresentation(Rxy, (x, y)), e_max=2)
    assert result.minimum == 1
    assert len(result.rows) == 1
    assert result.rows[0].ehk_x.value == 1
    assert result.rows[0].ehk_xu.value == 0  # (x, y, 1) is the unit ideal


def test_rsig_rows_and_grid_on_non_f_rational_ring():
    Rxy = PolynomialRing(F3, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy, (x * y,))
    result = rsig_search(R, IdealPresentation(Rxy, (x + y,)), e_max=2)
    assert result.rows
    assert result.minimum >= 0
    for row in result.rows:
        assert row.difference >= -(row.ehk_x.error_bound + row.ehk_xu.error_bound)
    # cross-check one bracket colength against the rank oracle
    xu = IdealPresentation(Rxy, (x + y, result.argmin.u))
    gb = buchberger(IdealPresentation(Rxy, (x * y,) + tuple(xu.generators)))
    direct = colength(gb)
    # oracle: lengths of ((x+y)^q, u^q) mod xy at q=3 computed independently
    assert direct >= 1


def test_complete_intersections_have_one_dimensional_socle():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    assert socle_basis(R, IdealPresentation(Rxy, (x**2, y**3))) == [x * y**2]
    assert len(socle_basis(R, IdealPresentation(Rxy, (x**3, y**3)))) == 1


def coordinate_axes_ring():
    """k[x,y,z]/(xy, xz, yz): three coordinate lines; not Gorenstein, so the
    socle modulo the parameter x + y + z is 2-dimensional."""
    Rq = PolynomialRing(F2, ("x", "y", "z"))
    xx, yy, zz = Rq.gens()
    ring = QuotientRingSpec(Rq, (xx * yy, xx * zz, yy * zz))
    sop = IdealPresentation(Rq, (xx + yy + zz,))
    return ring, sop


def test_rsig_two_dimensional_socle_uses_both_charts():
    ring, sop = coordinate_axes_ring()
    assert ring.dimension == 1
    socle = socle_basis(ring, sop)
    assert len(socle) == 2
    res = rsig_search(ring, sop, e_max=3)
    # charts over F_2: (0,1), (1,1) then (1,0); the duplicate (1,1) collapses
    assert len(res.rows) == 3
    coeff_vectors = {tuple(c.raw for c in row.coefficients) for row in res.rows}
    assert coeff_vectors == {(0, 1), (1, 1), (1, 0)}
    assert res.minimum >= 0
    # three lines are not F-rational: the sampled minimum shrinks like 1/q
    assert res.minimum <= Fraction(1, 4)


def test_rsig_three_dimensional_socle_reaches_every_projective_point():
    # four coordinate lines: the socle modulo x + y + z + w is w, z, y
    ring = PolynomialRing(F2, ("x", "y", "z", "w"))
    R = QuotientRingSpec(ring, [ring.parse(t) for t in ("x*y", "x*z", "x*w", "y*z", "y*w", "z*w")])
    res = rsig_search(R, IdealPresentation(ring, (ring.parse("x + y + z + w"),)), e_max=2)
    assert res.socle == tuple(ring.parse(t) for t in ("w", "z", "y"))
    coeff_vectors = [tuple(c.raw for c in row.coefficients) for row in res.rows]
    # the charts (c, 1) and (1, c) give six points of P^2(F_2); (0, 1, 0) is the seventh
    assert len(coeff_vectors) == 7 and coeff_vectors[-1] == (0, 1, 0)
    assert set(coeff_vectors) == set(product((0, 1), repeat=3)) - {(0, 0, 0)}


def test_rsig_empty_grid_validation():
    ring, sop = coordinate_axes_ring()
    with pytest.raises(ValidationError, match="empty coefficient grid"):
        rsig_search(ring, sop, coefficient_grid=[], e_max=2)


# one-dimensional, with coefficients in F_2; over GF(4) and GF(8) the rows
# of each take two distinct HK functions
RSIG_F2_RINGS = (
    "x*y^2, y^2, x*z, z^3+y*z",
    "x*y, x^2*y, y*z, x^2",
    "x*y, x^2*y, y*z^2, x*z",
    "z^2, y^3+x*z^2, x*y, y*z",
)
# a coefficient outside F_2: Frobenius-conjugate rows differ here
RSIG_S_RING = "x*z, y*z, x^3, x^2 + s*y^2"


def rsig_ring(m, defining):
    """k[x,y,z]/defining over GF(2^m), with the parameter x + y + z."""
    ring = PolynomialRing(make_extension(2, m), ("x", "y", "z"))
    R = QuotientRingSpec(ring, [ring.parse(t) for t in defining.split(",")])
    return R, IdealPresentation(ring, (ring.parse("x + y + z"),))


def count_hk_calls(monkeypatch):
    """A list that grows by one entry per multiplicity.hk_function call."""
    calls = []
    real = multiplicity.hk_function

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(multiplicity, "hk_function", counted)
    return calls


@pytest.mark.parametrize(
    "defining", RSIG_F2_RINGS + (RSIG_S_RING,), ids=lambda d: d.replace(" ", "")
)
@pytest.mark.parametrize("m, e_max", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_rsig_shared_estimates_match_per_vector_oracle(m, e_max, defining):
    R, sop = rsig_ring(m, defining)
    got = rsig_search(R, sop, e_max=e_max)
    want = rsig_rows_per_vector(R, sop, e_max=e_max)
    assert got == want  # rows (coefficients, u, both estimates), differences, argmin
    functions = {tuple(s.length for s in row.ehk_xu.samples) for row in got.rows}
    assert len(functions) == 2


def test_rsig_hk_calls_per_frobenius_orbit(monkeypatch):
    calls = count_hk_calls(monkeypatch)
    F16 = make_extension(2, 4)
    ring = PolynomialRing(F16, ("x", "y", "z", "w"))
    cubic = QuotientRingSpec(ring, [ring.parse(t) for t in ("x*z - y^2", "x*w - y*z", "y*w - z^2")])
    res = rsig_search(cubic, IdealPresentation(ring, (ring.var("x"), ring.var("w"))), e_max=2)
    # x, then 3 F_2-points, 1 GF(4) orbit and 3 orbits of size 4 in P^1(GF(16))
    assert (len(res.rows), len(calls)) == (31, 8)

    calls.clear()
    R, sop = rsig_ring(2, RSIG_F2_RINGS[0])
    assert (len(rsig_search(R, sop, e_max=2).rows), len(calls)) == (7, 5)

    calls.clear()
    R, sop = coordinate_axes_ring()
    rsig_search(R, sop, e_max=2)
    assert len(calls) == 4  # over F_2 every projective point is its own orbit

    # Galois sharing is off: one call per point of P^1(GF(4)), plus x
    calls.clear()
    R, sop = rsig_ring(2, RSIG_S_RING)
    res = rsig_search(R, sop, e_max=2)
    assert (len(res.rows), len(calls)) == (7, 1 + 5)
    s = R.ring.domain("s")
    by_vector = {row.coefficients: row.ehk_xu.samples for row in res.rows}
    one = R.ring.domain(1)
    assert by_vector[(one, s)] != by_vector[(one, s * s)]  # s^2 = sigma(s)


def test_csig_examples():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    sop = IdealPresentation(Rxy, (x**2, y**2))
    mid = IdealPresentation(Rxy, (x**2, y**2, x * y))
    result = csig_search(R, sop, [mid], e_max=3)
    assert result.minimum == 1  # (4 - 3) / (4 - 3)
    row = result.rows[0]
    assert (row.colength_x, row.colength_candidate) == (4, 3)
    # e_HK(x^2, y^2, xy) = 3 exactly: cross-check lengths 3q^2 via the oracle
    for q in (2, 4):
        gens = {(2 * q, 0): F2.one, (0, 2 * q): F2.one, (q, q): F2.one}
        # direct staircase count: box 2q x 2q minus the [q,2q) x [q,2q) corner
        assert 4 * q * q - q * q == 3 * q * q
        gb = buchberger(
            IdealPresentation(Rxy, (x ** (2 * q), y ** (2 * q), (x * y) ** q))
        )
        assert colength(gb) == 3 * q * q


def test_csig_skips_zero_denominator():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    m = IdealPresentation(Rxy, (x, y))
    result = csig_search(R, m, [m], e_max=2)
    assert result.rows[0].skipped
    assert result.minimum is None
    assert result.warnings


def test_csig_validates_containment():
    Rxy = PolynomialRing(F2, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    sop = IdealPresentation(Rxy, (x**2, y**2))
    disjoint = IdealPresentation(Rxy, (x, y**3))
    with pytest.raises(ValidationError, match="does not contain"):
        csig_search(R, sop, [disjoint], e_max=2)


def test_csig_counts_in_the_colength_ring():
    # over F_2 the Monsky quartic's colength ring moves z to the front
    R = QuotientRingSpec(R3, (MONSKY0,))
    assert R.colength_ring() != R3
    x, y, z = R3.gens()
    sop = IdealPresentation(R3, (x, y))
    candidates = [IdealPresentation(R3, (x, y, g)) for g in (z**3, z**2, z, x * z)]

    def own_order_colength(I):
        return colength(buchberger(IdealPresentation(R3, R.defining + I.generators)))

    result = csig_search(R, sop, candidates, e_max=2)
    assert [row.colength_x for row in result.rows] == [own_order_colength(sop)] * 4
    assert [row.colength_candidate for row in result.rows] == [
        own_order_colength(c) for c in candidates
    ] == [3, 2, 1, 4]
    outside = IdealPresentation(R3, (x, y**2, z))
    with pytest.raises(ValidationError, match=r"^candidate #1 does not contain the parameter "
                       r"ideal \(generator y has nonzero normal form\)$"):
        csig_search(R, sop, [candidates[0], outside], e_max=2)


def test_determinism_same_inputs_bitwise():
    R = QuotientRingSpec(R3, (MONSKY0,))
    m = IdealPresentation(R3, R3.gens())
    a = hk_function(R, m, 4)
    b = hk_function(R, m, 4)
    assert a == b


def test_hk_against_hypersurface_rank_oracle():
    m = IdealPresentation(R3, R3.gens())
    monsky1 = R3.parse("z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2")
    for quartic in (MONSKY0, monsky1):
        R = QuotientRingSpec(R3, (quartic,))
        samples = hk_function(R, m, 3)
        raw = poly_dict(R3, quartic)
        for s in samples:
            assert s.length == bracket_colength_hypersurface(F2, 3, raw, s.q)


def test_degenerate_quartic_fiber_closed_form():
    # at the degenerate point the quartic is a union of four planes over
    # GF(4); inclusion-exclusion of 4 planes and 6 lines gives exactly
    # length(q) = 4q^2 - 6q + 4, so the multiplicity is 4
    R = QuotientRingSpec(R3, (MONSKY0,))
    m = IdealPresentation(R3, R3.gens())
    for s in hk_function(R, m, 5):
        assert s.length == 4 * s.q**2 - 6 * s.q + 4


def test_generic_fiber_against_rank_oracle_over_f2t():
    F2t = RationalFunctionField(F2)
    Rt = PolynomialRing(F2t, ("x", "y", "z"))
    quartic = Rt.parse("z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2")
    R = QuotientRingSpec(Rt, (quartic,))
    m = IdealPresentation(Rt, Rt.gens())
    samples = hk_function(R, m, 2)
    raw = poly_dict(Rt, quartic)
    for s in samples:  # exact rational-function elimination, q <= 4
        assert s.length == bracket_colength_hypersurface(F2t, 3, raw, s.q)


def test_generic_fiber_at_e6():
    # the e = 6 value of the generic-fiber gate, 3q^2 - 4 at q = 64
    Rt = PolynomialRing(RationalFunctionField(F2), ("x", "y", "z"))
    R = QuotientRingSpec(Rt, (Rt.parse("z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2"),))
    samples = hk_function(R, IdealPresentation(Rt, Rt.gens()), 6)
    assert [s.length for s in samples] == [8, 44, 188, 764, 3068, 12284]


def test_colength_ring_is_chosen_once_and_used_only_for_colengths():
    R = QuotientRingSpec(R3, (MONSKY0,))
    ring = R.colength_ring()
    assert ring is R.colength_ring()
    assert ring.order == TermOrder("degrevlex", (2, 0, 1))
    assert ring.convert(MONSKY0).leading_monomial().exponents == (0, 0, 4)
    m = IdealPresentation(R3, R3.gens())
    assert hk_sample_gb(R, m, 4).ring is ring
    # bases a caller sees stay in the ring's own order
    assert R.defining_gb().ring is R3
    assert R.defining_gb().elements == (MONSKY0,)
    assert all(s.ring is R3 for s in socle_basis(R, IdealPresentation(R3, R3.gens()[:2])))

    # ties keep the ring itself: the twisted cubic's leads y^2, yz, z^2
    # give two pure powers in its own order, and no defining ideal none
    R4 = PolynomialRing(F2, ("x", "y", "z", "w"))
    x, y, z, w = R4.gens()
    cubic = QuotientRingSpec(R4, (x * z - y**2, x * w - y * z, y * w - z**2))
    regular = QuotientRingSpec(R3)
    for _ in range(2):
        assert cubic.colength_ring() is R4
        assert regular.colength_ring() is R3

    # a lex ring counts in degrevlex over the same variables, and keeps its
    # own order for the bases a caller sees
    L4 = PolynomialRing(F2, R4.variables, TermOrder("lex"))
    x, y, z, w = L4.gens()
    lex_cubic = QuotientRingSpec(L4, (x * z - y**2, x * w - y * z, y * w - z**2))
    ring = lex_cubic.colength_ring()
    assert ring.order.kind == "degrevlex" and ring.variables == L4.variables
    assert lex_cubic.defining_gb().ring is L4


def test_lex_ring_counts_on_degrevlex_bases():
    # lex bases of the t = 1 Monsky quartic's bracket powers take minutes
    # at q = 125; its lengths come from the degrevlex bases of a degrevlex
    # ring, with the counters of test_colength_order_counters_are_pinned
    specs = {}
    for field in (F3, F5):
        ring = PolynomialRing(field, ("x", "y", "z"), TermOrder("lex"))
        R = QuotientRingSpec(ring, (ring.parse("z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2"),))
        assert R.colength_ring().order == TermOrder("degrevlex", (2, 0, 1))
        specs[field] = R, IdealPresentation(ring, ring.gens())
    G = hk_sample_gb(*specs[F5], 125)
    assert G.colength() == 46870
    assert G.stats == (15576, 5, 175, 15043, 353, 180, 6381, 2311, 177)
    assert [s.length for s in hk_function(*specs[F3], 4)] == [22, 238, 2182, 19678]


GF4 = make_extension(2, 2)
SPEC_FIELDS = ((F2, ("1",)), (F3, ("1", "2")), (GF4, ("1", "s", "s + 1")))


@st.composite
def quotient_cases(draw):
    """(R, I) over F_2, F_3 or GF(4) in 2-3 variables, in degrevlex or lex
    under any priority.  R has 1-3 defining generators; some carry a pure
    power x_i^a as a term, often with x_i not first in the priority and a
    the top degree of the other terms, so that moving x_i to the front can
    make it the leading term.  I is the maximal
    ideal, or (x_i^a or x_i^a - x_i for each i), which is zero-dimensional
    but may have points off the origin, or 1-3 polynomials that may have
    constant terms."""
    field, coeffs = draw(st.sampled_from(SPEC_FIELDS))
    n = draw(st.integers(2, 3))
    order = TermOrder(draw(st.sampled_from(("degrevlex", "lex"))), draw(st.permutations(range(n))))
    ring = PolynomialRing(field, tuple("xyz"[:n]), order)
    v = ring.gens()
    raws = [field.parse(c).raw for c in coeffs]
    top = 3 if n < 3 else 2

    def polys(monomial):
        gens = []
        for terms in draw(st.lists(st.lists(st.tuples(monomial, st.sampled_from(raws)),
                                            min_size=1, max_size=3), min_size=1, max_size=3)):
            gens.append(ring.polynomial((ring.encode(e), c) for e, c in terms))
        return [g for g in gens if g]

    exps = st.tuples(*[st.integers(0, top)] * n)
    defining = polys(exps.filter(any))
    later = order.resolved_priority(n)[1:]  # not yet first in the priority
    for k, g in enumerate(defining):
        if draw(st.booleans()):
            if draw(st.booleans()):
                defining[k] = g + v[draw(st.sampled_from(later))] ** max(g.degree(), 1)
            else:
                defining[k] = g + v[draw(st.integers(0, n - 1))] ** draw(st.integers(1, 4))
    defining = [g for g in defining if g]
    assume(defining)
    try:
        R = QuotientRingSpec(ring, defining)
    except ValidationError:  # the unit ideal
        assume(False)
    kind = draw(st.sampled_from(("maximal", "points", "random")))
    if kind == "maximal":
        ideal = list(v)
    elif kind == "points":
        ideal = [x ** draw(st.integers(2, 3)) - (x if draw(st.booleans()) else 0) for x in v]
    else:
        ideal = polys(exps)
    assume(ideal)
    return R, IdealPresentation(ring, ideal)


def _user_order_basis(R, J):
    return buchberger(IdealPresentation(R.ring, R.defining + J.generators))


@settings(max_examples=150, deadline=None)
@given(quotient_cases())
def test_colength_ring_keeps_lengths_and_verdicts(case):
    R, I = case
    p = R.ring.domain.characteristic
    for q in (p, p * p) if p == 2 else (p,):
        chosen = hk_sample_gb(R, I, q)
        user = _user_order_basis(R, frobenius_power(I, q))
        assert chosen.ring is R.colength_ring()
        assert colength(chosen) == colength(user)
        if q == p and colength(user) is not INFINITE:
            assert _primary_witness(chosen) == _primary_witness(user)
    lengths = [colength(_user_order_basis(R, I if n == 1 else ordinary_power(I, n)))
               for n in (1, 2)]
    if INFINITE in lengths:
        with pytest.raises(ValidationError, match="zero-dimensional"):
            hs_function(R, I, 2)
    else:
        assert [s.length for s in hs_function(R, I, 2)] == lengths


HS_FIELDS = SPEC_FIELDS + ((F5, ("1", "2", "3", "4")),
                           (RationalFunctionField(F2), ("1", "t", "t + 1")))


@st.composite
def graded_cases(draw):
    """(R, I) over F_2, F_3, F_5, GF(4) or F_2(t) in 2-4 variables, in
    degrevlex or lex.  R has 1-3 homogeneous defining generators of degree
    1-4; sometimes the first is replaced by itself plus a multiple of the
    second, mostly a non-homogeneous presentation of the same ideal, like
    (x^2 + y, y).  I is the maximal ideal, given by the variables or by
    x_1 + x_2 and the others."""
    field, coeffs = draw(st.sampled_from(HS_FIELDS))
    n = draw(st.integers(2, 4))
    ring = PolynomialRing(field, tuple("xyzw"[:n]), TermOrder(draw(st.sampled_from(
        ("degrevlex", "lex")))))
    v = ring.gens()
    raws = [field.parse(c).raw for c in coeffs]
    defining = []
    for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        exps = [e for e in monomials_below(n, d) if sum(e) == d]
        chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3, unique=True))
        defining.append(ring.polynomial((ring.encode(e), draw(st.sampled_from(raws)))
                                        for e in chosen))
    if len(defining) > 1 and draw(st.booleans()):
        defining[0] = defining[0] + defining[1] * v[draw(st.integers(0, n - 1))] ** draw(
            st.integers(0, 2))
    assume(all(defining))
    ideal = list(v)
    if draw(st.booleans()):
        ideal[0] = v[0] + v[1]
    return QuotientRingSpec(ring, defining), IdealPresentation(ring, ideal)


@settings(max_examples=60, deadline=None)
@given(graded_cases())
def test_hs_lengths_of_the_maximal_ideal_match_one_basis_per_power(case):
    R, I = case
    n_max = 5 if R.ring.nvars < 4 else 4
    assert [s.length for s in hs_function(R, I, n_max)] == hs_lengths_by_powers(R, I, n_max)


def test_hs_lengths_of_a_non_reduced_homogeneous_presentation(monkeypatch):
    # homogeneity is read off the reduced basis, so no power of m is formed
    monkeypatch.setattr(multiplicity, "ordinary_power", None)
    Rxy = PolynomialRing(F3, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy, (x**2 + y, y))  # the ideal (x^2, y)
    assert [s.length for s in hs_function(R, IdealPresentation(Rxy, (x, y)), 4)] == [1, 2, 2, 2]


def _leads_alone(R, n_max):
    leads = R.defining_gb().leading_exponents()
    return [colength_below_degree(leads, R.ring.nvars, n) for n in range(1, n_max + 1)]


def test_hs_lengths_of_a_maximal_ideal_off_the_origin_keep_one_basis_per_power():
    # (x - 1, y, z) has the variables as leading terms but is not m
    Rxyz = PolynomialRing(F3, ("x", "y", "z"))
    x, y, z = Rxyz.gens()
    I = IdealPresentation(Rxyz, (x - 1, y, z))
    cone = QuotientRingSpec(Rxyz, (x * z - y**2,))
    assert [s.length for s in hs_function(cone, I, 5)] == [1, 3, 6, 10, 15]
    assert _leads_alone(cone, 5) == [1, 4, 9, 16, 25]
    double_plane = QuotientRingSpec(Rxyz, (x**2,))  # x - 1 is a unit there
    assert [s.length for s in hs_function(double_plane, I, 5)] == [0, 0, 0, 0, 0]


def test_hs_lengths_over_a_non_homogeneous_defining_ideal_keep_one_basis_per_power():
    Rxy = PolynomialRing(F3, ("x", "y"))
    x, y = Rxy.gens()
    nodal = QuotientRingSpec(Rxy, (y**2 - x**3 - x**2,))
    m = IdealPresentation(Rxy, (x, y))
    assert [s.length for s in hs_function(nodal, m, 6)] == [1, 3, 5, 7, 9, 11]
    assert _leads_alone(nodal, 6) == [1, 3, 6, 9, 12, 15]


def test_socle_basis_rejects_a_sop_that_is_not_zero_dimensional_or_not_primary():
    Rxy = PolynomialRing(F5, ("x", "y"))
    x, y = Rxy.gens()
    R = QuotientRingSpec(Rxy)
    with pytest.raises(ValidationError, match="^parameter ideal is not zero-dimensional"):
        socle_basis(R, IdealPresentation(Rxy, (x, x * y)))
    with pytest.raises(ValidationError,
                       match="^parameter ideal is not primary to the origin: variable 'x'"):
        socle_basis(R, IdealPresentation(Rxy, (x - 1, y)))

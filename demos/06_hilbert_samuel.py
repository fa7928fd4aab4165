"""Hilbert-Samuel functions: ordinary powers instead of Frobenius powers.

The classical multiplicity e(I) is d! times the leading coefficient of
n -> length(R/I^n); the d-th finite differences of the length sequence
stabilize at e(I) once n passes the postulation number.  For a parameter
ideal in a regular ring e(I) equals the colength, and the normalized
Hilbert-Kunz samples of the same ideal are constant at that value: the
two multiplicity theories agree on monomial complete intersections.

Run:  python demos/06_hilbert_samuel.py
"""

from hklab import (
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    QuotientRingSpec,
    buchberger,
    hk_function,
    hs_function,
    hs_multiplicity,
)

ring = PolynomialRing(PrimeField(3), ("x", "y"))
x, y = ring.gens()
R = QuotientRingSpec(ring)

print("== the maximal ideal of a regular ring: e = 1 ==")
m = IdealPresentation(ring, (x, y))
samples = hs_function(R, m, 6)
lengths = [s.length for s in samples]
print(f"lengths of R/m^n: {lengths}  (triangular numbers)")
est = hs_multiplicity(samples, R.dimension)
print(f"stabilized second difference: {est.multiplicity} on window n = {est.window}")

print("\n== a parameter ideal: e(I) = colength, and HK agrees ==")
I = IdealPresentation(ring, (x**2, y**3))
samples = hs_function(R, I, 6)
print(f"lengths of R/I^n: {[s.length for s in samples]}")
est = hs_multiplicity(samples, R.dimension)
print(f"e(I) = {est.multiplicity}; colength of I = {buchberger(I).colength()}")
hk = hk_function(R, I, 3)
print(f"normalized Hilbert-Kunz samples: {[str(s.normalized) for s in hk]} "
      "(constant at the same value)")

print("\n== a hypersurface: e(m) = degree of the defining form ==")
ring3 = PolynomialRing(PrimeField(2), ("x", "y", "z"))
quartic = ring3.parse("z^4 + x*y*z^2 + (x^3+y^3)*z")
Rq = QuotientRingSpec(ring3, (quartic,))
m3 = IdealPresentation(ring3, ring3.gens())
samples = hs_function(Rq, m3, 6)
print(f"lengths: {[s.length for s in samples]}")
est = hs_multiplicity(samples, Rq.dimension)
print(f"e(m) = {est.multiplicity}  (a degree-4 form cuts multiplicity 4)")

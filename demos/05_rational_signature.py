"""F-rational signature searches: regular vs non-F-rational rings.

rsig(R) is the infimum of e_HK(x) - e_HK(x, u) over socle elements u of a
system of parameters x; it is positive exactly on F-rational rings.  The
search tries the socle candidates u = sum c_i u_i whose coordinate vectors
are (c_1, ..., c_(N-1), 1) and then (1, c_2, ..., c_N), each once, with
every c_i from the grid (all of a finite field of at most 64 elements by
default).  For a socle of dimension N >= 3 it then tries (0, w, 0) for
each w of the same enumeration in N - 2 coordinates, so with the whole
field as grid every projective point is reached.

Run:  python demos/05_rational_signature.py
"""

from hklab import (
    FamilySpec,
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    QuotientRingSpec,
    csig_search,
    rsig_search,
    socle_basis,
)

print("== regular ring: rsig = 1 exactly ==")
R2 = PolynomialRing(PrimeField(2), ("x", "y"))
x, y = R2.gens()
regular = QuotientRingSpec(R2)
result = rsig_search(regular, IdealPresentation(R2, (x, y)), e_max=2)
print(f"socle of (x, y): {list(result.socle)}")
print(f"candidates tried: {len(result.rows)}; minimum difference: {result.minimum}")
print("(u = 1 makes (x, y, u) the unit ideal, so e_HK drops from 1 to 0)")

print("\n== a non-F-rational ring: the difference tends to 0 ==")
R3 = PolynomialRing(PrimeField(3), ("x", "y"))
a, b = R3.gens()
cross = QuotientRingSpec(R3, (a * b,))  # two lines crossing: not normal
sop = IdealPresentation(R3, (a + b,))
print(f"socle of (x + y) mod (x*y): {socle_basis(cross, sop)}")
for e_max in (2, 3, 4):
    res = rsig_search(cross, sop, e_max=e_max)
    print(f"  e_max = {e_max}: grid minimum = {res.minimum} "
          f"(= {float(res.minimum):.6f})")
print("the sampled minimum is 1/q -> 0: the infimum is 0, the ring is not "
      "F-rational.")

print("\n== relative signature: ratios against larger ideals ==")
sop2 = IdealPresentation(R2, (x**2, y**2))
mid = IdealPresentation(R2, (x**2, y**2, x * y))
csig = csig_search(regular, sop2, [mid], e_max=3)
row = csig.rows[0]
print(f"e_HK(x^2, y^2) = {row.ehk_x.value}, e_HK(+ xy) = {row.ehk_candidate.value}, "
      f"colengths {row.colength_x} vs {row.colength_candidate}")
print(f"ratio = {row.ratio} (regular rings attain the maximum possible value 1)")

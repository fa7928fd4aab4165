"""Groebner bases, standard monomials, colon ideals, discriminants.

Run:  python demos/02_groebner_colength.py
"""

from hklab import (
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    TermOrder,
    buchberger,
    ideal_colon_m,
    is_primary_to_origin,
    multiplication_matrix,
    trace_discriminant,
)

F5 = PrimeField(5)
R = PolynomialRing(F5, ("x", "y"), TermOrder("lex"))
x, y = R.gens()

print("== reduced basis and normal forms ==")
G = buchberger(IdealPresentation(R, (x - y**2, y**3)))
print(f"reduced basis of (x - y^2, y^3) in lex: {list(G.elements)}")
print(f"normal form of x*y: {G.normal_form(x * y)}  (x*y = y^3 = 0 in the quotient)")
print(f"colength: {G.colength()}  (basis of the quotient: 1, y, y^2)")

print("\n== staircases and zero-dimensionality ==")
Rd = PolynomialRing(F5, ("x", "y"))
xd, yd = Rd.gens()
G2 = buchberger(IdealPresentation(Rd, (xd**3, yd**4)))
print(f"colength of (x^3, y^4): {G2.colength()} (a 3 x 4 staircase box)")
G3 = buchberger(IdealPresentation(Rd, (xd * yd, xd - 1)))
print(f"(x*y, x - 1) has colength {G3.colength()} but is primary to the origin: "
      f"{is_primary_to_origin(G3)}  (it lives at x = 1)")

print("\n== socle via the colon ideal ==")
C = ideal_colon_m(IdealPresentation(Rd, (xd**2, yd**2)))
print(f"((x^2, y^2) : m) adds the socle generator: {list(buchberger(C).elements)}")

print("\n== multiplication matrices and the trace discriminant ==")
R1 = PolynomialRing(F5, ("x",))
x1 = R1.var("x")
Gq = buchberger(IdealPresentation(R1, (x1**2 - 1,)))
M = multiplication_matrix(Gq, x1)
print(f"multiplication by x on F_5[x]/(x^2 - 1), basis (1, x): "
      f"{[[v.raw for v in row] for row in M]}")
print(f"trace discriminant: {trace_discriminant(Gq)}  "
      "(Gram [[2,0],[0,2]], nonzero = separable)")
R2 = PolynomialRing(PrimeField(2), ("x",))
x2 = R2.var("x")
print(f"char 2, x^2 - 1 is inseparable: discriminant = "
      f"{trace_discriminant(buchberger(IdealPresentation(R2, (x2**2 + 1,))))}")

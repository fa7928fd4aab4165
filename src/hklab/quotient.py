"""Linear algebra on a finite quotient algebra S/I, from a Groebner basis
of I of finite colength: multiplication matrices, socles, the colon
ideal (J : m) and the trace-form discriminant.

It goes through one helper, _multiplication_maps: given a basis of
finite colength and multipliers f, it returns the standard monomials e_j
and, for each f, the matrix of multiplication by f on them, whose column
j holds the coordinates of normal_form(normal_form(f) * e_j) (Cox,
Little and O'Shea, Using Algebraic Geometry, ch. 2, sec. 4).
multiplication_matrix passes f itself, socle_lifts the variables, whose
stacked maps have the socle as kernel, and trace_discriminant the e_i.
"""

from __future__ import annotations

from . import linalg
from .coeff import FieldElement
from .errors import StructuralError
from .groebner import GroebnerBasis, buchberger, check_primary_to_origin
from .polyring import IdealPresentation, Polynomial


def _multiplication_maps(G: GroebnerBasis, multipliers):
    """The standard monomials e_0 < e_1 < ... of a finite-colength G and,
    for each f in `multipliers`, the matrix of multiplication by f on them
    as a list of columns: column j holds the coordinates of
    normal_form(normal_form(f) * e_j)."""
    ring = G.ring
    zero = ring.domain.zero
    smb = G.standard_monomials()
    index = {m.key: i for i, m in enumerate(smb)}
    maps = []
    for f in multipliers:
        terms = G.normal_form(f)._terms
        cols = []
        for m in smb:
            col = [zero] * len(smb)
            shifted = Polynomial(ring, tuple((k + m.key, c) for k, c in terms))
            for k, c in G.normal_form(shifted)._terms:
                i = index.get(k)
                if i is None:
                    raise StructuralError("normal form left the standard-monomial span")
                col[i] = c
            cols.append(col)
        maps.append(cols)
    return smb, maps


def multiplication_matrix(G: GroebnerBasis, f: Polynomial):
    """Matrix of multiplication-by-f on the standard-monomial basis;
    column j holds the coordinates of normal_form(f * e_j)."""
    smb, (cols,) = _multiplication_maps(G, (f,))
    field = G.ring.domain
    return [[FieldElement(field, col[i]) for col in cols] for i in range(len(smb))]


def socle_lifts(G: GroebnerBasis):
    """Polynomials lifting a basis of the kernel of the stacked
    multiplication-by-variable maps on the standard-monomial basis of a
    finite-colength G, i.e. of the socle of the quotient."""
    ring = G.ring
    field = ring.domain
    smb, maps = _multiplication_maps(G, ring.gens())
    n = len(smb)
    stacked = [[col[r] for col in cols] for cols in maps for r in range(n)]
    return [
        ring.polynomial([(smb[i].key, v) for i, v in enumerate(vec) if not field.is_zero(v)])
        for vec in linalg.kernel_basis(field, stacked, n)
    ]


def ideal_colon_m(J: IdealPresentation) -> IdealPresentation:
    """(J : m) for the maximal ideal m at the origin, computed as the
    kernel of the stacked multiplication-by-variable maps on the
    standard-monomial basis, lifted back to polynomial generators."""
    G = buchberger(J)
    check_primary_to_origin(G, "ideal")
    return IdealPresentation(J.ring, tuple(J.generators) + tuple(socle_lifts(G)))


def trace_discriminant(G: GroebnerBasis) -> FieldElement:
    """Determinant of the trace-pairing Gram matrix on the canonical
    standard-monomial basis (sorted by the term order, which pins the
    unit ambiguity of a basis change)."""
    ring = G.ring
    field = ring.domain
    basis = [Polynomial(ring, ((m.key, field.one),)) for m in G.standard_monomials()]
    # prods[i][j] holds the coordinates of nf(e_i * e_j)
    _, prods = _multiplication_maps(G, basis)
    n = len(basis)

    def total(values):
        acc = field.zero
        for v in values:
            acc = field.add(acc, v)
        return acc

    traces = [total(prods[c][j][j] for j in range(n)) for c in range(n)]  # of e_c
    gram = [[total(field.mul(v, t) for v, t in zip(prods[i][j], traces) if not field.is_zero(v))
             for j in range(n)] for i in range(n)]
    return FieldElement(field, linalg.det(field, gram))

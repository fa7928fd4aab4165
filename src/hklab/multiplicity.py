"""Hilbert-Kunz and Hilbert-Samuel functions and multiplicities, plus the
F-rational-signature searches built on them.

All lengths are exact integers and all normalized values exact fractions;
decimals are derived views.  The Hilbert-Kunz error bound reported here is
the empirical quantity 2*D_hat/p^e_max with

    D_hat = max_e  p^e * |normalized(e+1) - normalized(e)|,

an observable stand-in for the uniform-convergence constant whose
existence the underlying theory guarantees without giving an algorithm.
It is labeled heuristic in every output and never asserted as rigorous.
Results are immutable NamedTuples.

Lengths and the dimension do not depend on the term order: the standard
monomials of any order form a basis of the same quotient.  So every basis
that is only counted on, R.defining_gb() among them, is computed in the
order of QuotientRingSpec.colength_ring(): degrevlex whatever R.ring's
order, with the priority chosen once per spec so that as many variables
as possible have a pure power as the leading term of a defining
generator.  For the Monsky quartics this makes z^4 the leading term of f,
the quotient by f a free k[x,y]-module on 1, z, z^2, z^3 (Noether
position), and the staircase four stacked plane staircases.  csig_search
counts its colengths and tests containment of the parameter ideal on such
bases too.  socle_basis stays in R.ring, because its socle and the
elements u built from it reach the rsig artifacts.

When R.defining_gb() is one element f, _colength_basis names it to
buchberger, which runs the pair loop by positions, over the free
k[x, y]-module R (see groebner), when f is among the generators up to a
unit and its lead is a pure power z^d.  The callers that pass R.defining
first are such: hk_sample_gb, csig_search's bases and hs_function's basis
per n.  _graded_leads passes I alone, which may hold f.  Every other ring
(rsig-cubic's twisted cubic has three defining generators) and every
other buchberger call (socle_basis, the groebner and disc commands) runs
the loop over the ideal.  Every basis is minimal and reads as the reduced
one, its tails reduced only when its elements are read, so the bases
that are only counted on never interreduce.

Hilbert-Samuel lengths of the maximal ideal m need no basis per n when
the defining ideal J is homogeneous.  For d < n, (J + m^n)_d = J_d, and
for d >= n it is all of S_d; the standard monomials of degree d of any
term order are a basis of (S/J)_d.  So the length of S/(J + m^n) is the
number of monomials of degree < n that no leading monomial of J's reduced
basis divides, counted on R.defining_gb() by colength_below_degree.
hs_function takes this path only when both conditions hold exactly: the
reduced basis of I is the variables (leading terms alone do not show it:
(x - 1, y, z) is maximal at another point), and every element of
R.defining_gb() is homogeneous (the input generators do not show it:
(x^2 + y, y) is homogeneous).  Every other (R, I) keeps one basis of
J + I^n per n: counting without them would need gr_I(R) through the Rees
algebra when I != m, and the tangent cone (Mora's algorithm) when J is not
homogeneous, and neither is implemented here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import prod
from operator import mul
from typing import NamedTuple

from .coeff import Field, FieldElement, frobenius
from .errors import ValidationError
from .groebner import (
    INFINITE,
    GroebnerBasis,
    buchberger,
    check_primary_to_origin,
    colength_below_degree,
    pure_powers,
)
from .linalg import integer_kernel
from .polyring import (
    IdealPresentation,
    Polynomial,
    PolynomialRing,
    TermOrder,
    frobenius_power,
    ordinary_power,
)
from .quotient import socle_lifts

_HS_WINDOW = 3  # consecutive equal d-th differences that make hs_multiplicity stable


class QuotientRingSpec:
    """Ambient polynomial ring modulo a (possibly zero) defining ideal."""

    def __init__(self, ring: PolynomialRing, defining=()):
        self.ring = ring
        self.defining = tuple(defining)
        for g in self.defining:
            if g.ring != ring:
                raise ValidationError("defining generator from a different ring")
            if g.is_zero():
                raise ValidationError("zero generator in defining ideal")
        self._colength_ring = _noether_ring(ring, self.defining)
        self._gb = None  # so that J's own basis names no f
        self._gb = gb = _colength_basis(self, self.defining) if self.defining else None
        if gb is not None and gb.is_unit_ideal():
            raise ValidationError("defining ideal is the unit ideal")
        self.dimension = _dimension(() if gb is None else gb.leading_exponents(), ring.nvars)

    def defining_gb(self) -> GroebnerBasis | None:
        """Reduced basis of the defining ideal in colength_ring(); None when
        it is zero."""
        return self._gb

    def colength_ring(self) -> PolynomialRing:
        """The degrevlex ring in which bases used only for counting are
        computed (see the module docstring and _noether_ring); its order
        may differ from `ring`'s in kind and priority.  Chosen once, when
        the spec is built."""
        return self._colength_ring

    def __repr__(self):
        if not self.defining:
            return repr(self.ring)
        return f"{self.ring!r}/{list(self.defining)!r}"


def _noether_ring(ring: PolynomialRing, defining) -> PolynomialRing:
    """The degrevlex ring with `ring`'s priority (`ring` itself if it is
    degrevlex), or it with one variable moved to the front, whichever makes
    the most variables pure-power leading terms of the defining generators;
    the first on a tie.  It tries nvars priorities, not all nvars! of them."""
    def count(r):
        return len(pure_powers(r.convert(g).leading_monomial().exponents for g in defining))

    if ring.order.kind != "degrevlex":
        ring = PolynomialRing(ring.domain, ring.variables, TermOrder(priority=ring.order.priority))
    best, best_count = ring, count(ring)
    priority = ring.order.resolved_priority(ring.nvars)
    for v in priority[1:]:
        moved = (v,) + tuple(u for u in priority if u != v)
        cand = PolynomialRing(ring.domain, ring.variables, TermOrder("degrevlex", moved))
        if (n := count(cand)) > best_count:
            best, best_count = cand, n
    return best


def _dimension(leads, n: int) -> int:
    """Krull dimension of S/J from the leading exponents of a basis of the
    proper ideal J: the largest number of variables spanning a coordinate
    subspace that no leading monomial lies in."""
    supports = [{i for i, e in enumerate(exps) if e} for exps in leads]
    return next(size for size in range(n, -1, -1) for subset in combinations(range(n), size)
                if not any(sup <= set(subset) for sup in supports))


class HKSample(NamedTuple):
    """One row of the Hilbert-Kunz function."""

    e: int
    q: int
    length: int
    normalized: Fraction


class HKEstimate(NamedTuple):
    """Limit estimate from the last sample plus the empirical error bound."""

    value: Fraction
    d_hat: Fraction
    error_bound: Fraction
    samples: tuple


class HSSample(NamedTuple):
    n: int
    length: int


class HSEstimate(NamedTuple):
    dimension: int
    multiplicity: int
    window: tuple  # n-range of the stabilized d-th differences
    samples: tuple


def _combined_gens(R: QuotientRingSpec, I: IdealPresentation):
    if I.ring != R.ring:
        raise ValidationError("ideal and quotient ring live in different rings")
    return tuple(R.defining) + tuple(I.generators)


def _colength_basis(R: QuotientRingSpec, gens) -> GroebnerBasis:
    """Groebner basis of the ideal of `gens` in R.colength_ring(),
    whose degrevlex order may differ from R.ring's in kind and priority.
    The ideal is the same, so its colength, dimension, zero-dimensionality,
    primality to the origin and the polynomials it contains are as in
    R.ring: the standard monomials of any order are a basis of the same
    quotient.  When R.defining_gb() is one element f, buchberger is told
    f, and takes positions when f is among `gens` (see the module
    docstring)."""
    ring = R.colength_ring()
    gb = R.defining_gb()
    return buchberger(IdealPresentation(ring, tuple(ring.convert(g) for g in gens)),
                      gb.elements[0] if gb is not None and len(gb) == 1 else None)


def hk_sample_gb(R: QuotientRingSpec, I: IdealPresentation, q: int) -> GroebnerBasis:
    """Groebner basis of defining + I^[q] in R.colength_ring()."""
    return _colength_basis(R, _combined_gens(R, frobenius_power(I, q)))


def hk_function(R: QuotientRingSpec, I: IdealPresentation, e_max: int):
    """Hilbert-Kunz samples for e = 1..e_max.

    Lengths are colengths of defining + I^[p^e], counted on the bases of
    hk_sample_gb in R.colength_ring(); the e = 1 stage also
    validates zero-dimensionality and primality to the origin (trusted for
    larger e afterwards).  Samples normalize by q^d with d the dimension
    of the quotient ring itself.
    """
    if e_max < 1:
        raise ValidationError(f"e_max must be >= 1: {e_max}")
    p = R.ring.domain.characteristic
    if not p:
        raise ValidationError("Hilbert-Kunz functions need positive characteristic")
    _combined_gens(R, I)
    d = R.dimension

    def sample(e: int) -> HKSample:
        q = p**e
        gb = hk_sample_gb(R, I, q)
        length = gb.colength()
        if length is INFINITE:
            raise ValidationError(
                f"ideal is not zero-dimensional at q = {q}; Hilbert-Kunz undefined"
            )
        if e == 1:
            check_primary_to_origin(gb, "ideal")
        return HKSample(e=e, q=q, length=length, normalized=Fraction(length, q**d))

    return [sample(e) for e in range(1, e_max + 1)]


def hk_estimate(samples) -> HKEstimate:
    """Estimate the limit from a sample list (>= 2 samples required)."""
    samples = tuple(samples)
    if len(samples) < 2:
        raise ValidationError("Hilbert-Kunz estimation needs at least 2 samples")
    d_hat = Fraction(0)
    for a, b in zip(samples, samples[1:]):
        d_hat = max(d_hat, a.q * abs(b.normalized - a.normalized))
    error = Fraction(2) * d_hat / samples[-1].q
    return HKEstimate(
        value=samples[-1].normalized, d_hat=d_hat, error_bound=error, samples=samples
    )


def hs_function(R: QuotientRingSpec, I: IdealPresentation, n_max: int):
    """Hilbert-Samuel samples: lengths of defining + I^n for n = 1..n_max.

    For I = m and a homogeneous defining ideal they are counted on the
    leading monomials of R.defining_gb() (see the module docstring), with
    one small basis of I to check I = m.  Otherwise each is the colength of
    a basis of defining + I^n.  Every basis is in R.colength_ring()
    (lengths do not depend on the term order)."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1: {n_max}")
    _combined_gens(R, I)
    leads = _graded_leads(R, I)
    if leads is not None:
        nvars = R.ring.nvars
        return [HSSample(n=n, length=colength_below_degree(leads, nvars, n))
                for n in range(1, n_max + 1)]
    samples = []
    for n in range(1, n_max + 1):
        power = I if n == 1 else ordinary_power(I, n)
        length = _colength_basis(R, _combined_gens(R, power)).colength()
        if length is INFINITE:
            raise ValidationError("ideal is not zero-dimensional; Hilbert-Samuel undefined")
        samples.append(HSSample(n=n, length=length))
    return samples


def _graded_leads(R: QuotientRingSpec, I: IdealPresentation):
    """The leading exponents of R.defining_gb() when every element of it is
    homogeneous and I is the maximal ideal (colength 1, every variable in
    it); None otherwise."""
    gb = R.defining_gb()
    elements = () if gb is None else gb.elements
    for g in elements:
        if len({m.degree for _, m in g.terms}) > 1:
            return None
    G = _colength_basis(R, I.generators)
    if G.colength() != 1 or any(G.normal_form(v) for v in G.ring.gens()):
        return None
    return () if gb is None else gb.leading_exponents()


def hs_multiplicity(samples, d: int) -> HSEstimate:
    """Hilbert-Samuel multiplicity as the stabilized d-th finite difference.

    Stability means _HS_WINDOW consecutive equal d-th differences; without
    stabilization the sample range was too short (increase n_max).
    """
    samples = tuple(samples)
    if len(samples) < d + _HS_WINDOW:
        raise ValidationError(f"need at least d + {_HS_WINDOW} = {d + _HS_WINDOW} samples")
    values = [s.length for s in samples]
    for _ in range(d):
        values = [b - a for a, b in zip(values, values[1:])]
    for i in range(len(values) - _HS_WINDOW + 1):
        if all(values[i + k] == values[i] for k in range(_HS_WINDOW)):
            return HSEstimate(
                dimension=d,
                multiplicity=values[i],
                window=(samples[i].n, samples[i + _HS_WINDOW - 1].n),
                samples=samples,
            )
    raise ValidationError(
        "d-th finite differences did not stabilize; increase n_max "
        f"(differences seen: {values})"
    )


def socle_basis(R: QuotientRingSpec, x: IdealPresentation):
    """Polynomials whose residues form a basis of the socle
    ((defining + (x)) : m) / (defining + (x)), for a system of parameters x."""
    d = R.dimension
    if len(x.generators) != d:
        raise ValidationError(
            f"not a system of parameters: {len(x.generators)} generators for "
            f"dimension {d}"
        )
    ring = R.ring
    gens = _combined_gens(R, x)
    gb = buchberger(IdealPresentation(ring, gens))
    check_primary_to_origin(gb, "parameter ideal")
    if gb.colength() == 0:
        raise ValidationError("parameter ideal is the unit ideal; socle is empty")
    return socle_lifts(gb)


class RSigRow(NamedTuple):
    coefficients: tuple  # coordinates of u over the socle basis
    u: Polynomial
    ehk_x: HKEstimate
    ehk_xu: HKEstimate
    difference: Fraction


class RSigResult(NamedTuple):
    sop: IdealPresentation
    socle: tuple
    rows: tuple
    argmin: RSigRow

    @property
    def minimum(self) -> Fraction:
        return self.argmin.difference


def _grid_default(field: Field):
    if field.size is None or field.size > 64:
        raise ValidationError(
            "coefficient grid required: field is infinite or has more than 64 elements"
        )
    return [FieldElement(field, raw) for raw in field.elements()]


def _galois_degree(R: QuotientRingSpec, x: IdealPresentation, socle) -> int:
    """m = log_p |k| when k = GF(p^m) and every coefficient of the
    defining generators, the parameters and the socle basis lies in F_p
    (c^p == c); 1 otherwise.  Only with m > 1 do Frobenius-conjugate
    candidates share a Hilbert-Kunz function (see rsig_search)."""
    field = R.ring.domain
    if field.kind != "extension":  # F_p has no conjugates; F_p(t) is infinite
        return 1
    for g in (*R.defining, *x.generators, *socle):
        for _, c in g._terms:
            if field.frobenius_raw(c, 1) != c:
                return 1
    return field.degree


def _socle_degrees(R: QuotientRingSpec, x: IdealPresentation, socle) -> list:
    """The degrees of the socle basis for a Z-basis W of the integer
    weights on the variables that make every defining generator, every
    parameter and every socle element homogeneous: W is the integer kernel
    of the exponent differences within each of them."""
    decode = R.ring.decode
    rows = []
    for g in (*R.defining, *x.generators, *socle):
        first, *rest = (decode(k) for k, _ in g._terms)
        rows += [[a - b for a, b in zip(e, first)] for e in rest]
    W = integer_kernel(rows, R.ring.nvars)
    return [tuple(sum(map(mul, w, decode(u._terms[0][0]))) for w in W) for u in socle]


def _orbit_key(vec, degrees, m: int) -> tuple:
    """The support S of vec and the Frobenius conjugates sigma^i, i < m,
    of its invariants vec^a = prod_(j in S) vec_j^(a_j), for a in a Z-basis
    of A_S = {a in Z^S : sum a_j = 0, sum a_j * degrees[j] = 0}: one key
    per orbit of scaling, the grading torus and Frobenius.  A_S is a
    kernel, hence saturated, so vectors of support S share invariants
    exactly when (mu * lambda^(degrees[j]) * c_j)_j moves one onto the
    other over the algebraic closure; there v -> lambda^w v is an
    automorphism taking J + (x, u)^[q] onto J + (x, u')^[q], and base
    change keeps the length (see rsig_search).  With one socle degree and
    no weight but the standard one, A_S = {sum a_j = 0} and the key is
    the projective point."""
    support = tuple(j for j, c in enumerate(vec) if c)
    rows = [[1] * len(support), *map(list, zip(*(degrees[j] for j in support)))]
    invariants = [prod(vec[j] ** e for j, e in zip(support, a))
                  for a in integer_kernel(rows, len(support))]
    return support, frozenset(tuple(frobenius(c, i) for c in invariants) for i in range(m))


def _candidate_vectors(field: Field, grid, n: int) -> list:
    """The charts (c, 1) and (1, c) in n coordinates, then for n >= 3
    (0, w, 0) for each w of this enumeration in n - 2 coordinates; each
    vector once.  For n = 1 the only vector is (1,)."""
    one, zero = (field(1),), (field(0),)
    charts = list(product(grid, repeat=n - 1))
    vectors = [c + one for c in charts] + [one + c for c in charts]
    if n >= 3:
        vectors += [zero + w + zero for w in _candidate_vectors(field, grid, n - 2)]
    return list(dict.fromkeys(vectors))


def rsig_search(
    R: QuotientRingSpec,
    x: IdealPresentation,
    coefficient_grid=None,
    e_max: int = 2,
) -> RSigResult:
    """Search for the F-rational signature over socle candidates.

    With socle basis u_1, ..., u_N and c_i drawn from the grid, the
    candidates u = sum c_i u_i have coordinate vectors (c_1, ..., c_(N-1), 1)
    followed by (1, c_2, ..., c_N), each vector once, in that order; for
    N = 1 the only vector is (1,).  For N >= 3 they are followed by
    (0, w, 0) for each w of the same enumeration in N - 2 coordinates, so
    with the whole field as grid every projective point is reached.  The
    reported minimum is an upper bound for the true infimum (a finite grid
    cannot certify more); by the attainment result the infimum is achieved
    at some socle element.

    Every vector gets its own row, but vectors share one Hilbert-Kunz
    function when their ideals (x, u) provably have the same lengths:
      * (x, u) = (x, lambda*u) for every lambda != 0, so scaling a vector
        changes nothing;
      * when k is finite and the defining ideal J, x and the socle basis
        are defined over F_p, sigma(c) = c^p acts on k[vars] fixing J and
        x and maps (x, u)^[q] onto (x, sigma(u))^[q]; the induced map of
        k[vars]/(J + (x, u)^[q]) onto k[vars]/(J + (x, sigma(u))^[q]) is
        a sigma-semilinear bijection, so both have the same length;
      * for integer weights w on the variables that make every generator
        of J and x and every socle element u_j homogeneous, of w-degree
        deg_j, and lambda in the algebraic closure K of k, v -> lambda^w v
        is an automorphism of K[vars] that fixes J and (x) and maps u to
        sum lambda^(deg_j) c_j u_j, so it maps K[vars]/(J + (x, u)^[q])
        onto the quotient for the moved vector; base change to K keeps
        every dim_k, so both lengths are equal.
    With W a Z-basis of the weights (_socle_degrees), scaling and the
    torus move c with support S along (mu * lambda^(deg_j) c_j)_j.  Over K
    two vectors of support S lie in one such orbit exactly when their
    invariants c^a agree for every a in A_S = {a in Z^S : sum a_j = 0,
    sum a_j deg_j = 0}, the characters that vanish on the torus's image;
    A_S is a kernel, so a Z-basis of it (linalg.integer_kernel) gives the
    whole lattice, not a sublattice of finite index that would leave a
    root of unity between two vectors of different orbits.  So the
    estimates are keyed on the support and the Frobenius orbit of the
    invariants (_orbit_key), and computed once per key for its first
    vector.
    """
    field = R.ring.domain
    socle = socle_basis(R, x)
    N = len(socle)
    if coefficient_grid is None:
        grid = _grid_default(field)
    else:
        grid = [field(c) for c in coefficient_grid]
    if N > 1 and not grid:
        raise ValidationError("empty coefficient grid with more than one socle element")

    vectors = _candidate_vectors(field, grid, N)
    ehk_x = hk_estimate(hk_function(R, x, e_max))
    degrees = _socle_degrees(R, x, socle)
    m = _galois_degree(R, x, socle)
    estimates = {}

    def evaluate(vec):
        u = R.ring.zero
        for c, s in zip(vec, socle):
            u = u + s * c
        key = _orbit_key(vec, degrees, m)
        est = estimates.get(key)
        if est is None:
            xu = IdealPresentation(R.ring, tuple(x.generators) + (u,))
            est = estimates[key] = hk_estimate(hk_function(R, xu, e_max))
        return RSigRow(
            coefficients=vec,
            u=u,
            ehk_x=ehk_x,
            ehk_xu=est,
            difference=ehk_x.value - est.value,
        )

    rows = [evaluate(vec) for vec in vectors]
    best = min(range(len(rows)), key=lambda i: (rows[i].difference, i))
    return RSigResult(
        sop=x,
        socle=tuple(socle),
        rows=tuple(rows),
        argmin=rows[best],
    )


class CSigRow(NamedTuple):
    index: int
    candidate: IdealPresentation
    ehk_x: HKEstimate
    ehk_candidate: HKEstimate | None
    colength_x: int
    colength_candidate: int
    denominator: int
    ratio: Fraction | None

    @property
    def skipped(self) -> bool:
        return self.denominator == 0


class CSigResult(NamedTuple):
    sop: IdealPresentation
    rows: tuple
    minimum: Fraction | None
    warnings: tuple = ()


def csig_search(
    R: QuotientRingSpec,
    x: IdealPresentation,
    candidate_ideals,
    e_max: int = 2,
) -> CSigResult:
    """Relative-signature ratios over a list of candidate ideals containing
    the parameter ideal; exact colengths in the denominator, Hilbert-Kunz
    estimates in the numerator."""
    len_x = _colength_basis(R, _combined_gens(R, x)).colength()
    if len_x is INFINITE:
        raise ValidationError("parameter ideal is not zero-dimensional")
    ehk_x = hk_estimate(hk_function(R, x, e_max))
    rows = []
    warnings = []
    minimum = None
    for idx, cand in enumerate(candidate_ideals):
        gb_c = _colength_basis(R, _combined_gens(R, cand))
        for g in x.generators:
            if gb_c.normal_form(g):
                raise ValidationError(
                    f"candidate #{idx} does not contain the parameter ideal "
                    f"(generator {g!r} has nonzero normal form)"
                )
        len_c = gb_c.colength()
        denom = len_x - len_c
        est = ratio = None
        if denom == 0:
            warnings.append(
                f"candidate #{idx} skipped: equal colength {len_x} (zero denominator)"
            )
        else:
            est = hk_estimate(hk_function(R, cand, e_max))
            ratio = (ehk_x.value - est.value) / denom
            if minimum is None or ratio < minimum:
                minimum = ratio
        rows.append(
            CSigRow(
                index=idx,
                candidate=cand,
                ehk_x=ehk_x,
                ehk_candidate=est,
                colength_x=len_x,
                colength_candidate=len_c,
                denominator=denom,
                ratio=ratio,
            )
        )
    return CSigResult(sop=x, rows=tuple(rows), minimum=minimum, warnings=tuple(warnings))

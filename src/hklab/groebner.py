"""Buchberger's algorithm and everything built on the reduced basis:
normal forms, colengths, primality-to-origin, colon ideals by linear
algebra, multiplication matrices, and the trace-form discriminant of a
finite quotient algebra.

Colengths count the staircase of the leading monomials by slicing on one
variable at a time (Bigatti, "Computation of Hilbert-Poincare series",
JPAA 1997; Roune, "A slice algorithm for corners and Hilbert-Poincare
series of monomial ideals", ISSAC 2010), and standard_monomials() walks
the same slices.

The reducer works on the integer-key term representation of polyring.
Divisibility of monomials is tested on packed exponent integers (32 bits
per variable, one guard bit): with fields below 2^31, `all(v_i >= u_i)`
is the single int test ((vp | GUARD) - up) & GUARD == GUARD.

Pair selection is the normal strategy (smallest lcm in the order, ties by
generator index) and both classical criteria are applied: the coprime
(product) criterion and the chain criterion.  For a fixed input and order
the computation is deterministic.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations

from . import linalg
from .coeff import Field, FieldElement, PrimeField
from .errors import StructuralError, ValidationError
from .polyring import IdealPresentation, Polynomial, PolynomialRing, TermOrder

INFINITE = math.inf

_FIELD_WIDTH = 32


def _pack(exps):
    acc = 0
    for i, e in enumerate(exps):
        acc |= e << (_FIELD_WIDTH * i)
    return acc


def _guard_mask(nvars):
    g = 0
    for i in range(nvars):
        g |= 1 << (_FIELD_WIDTH * i + _FIELD_WIDTH - 1)
    return g


class _Item:
    """One monic basis element, preprocessed for the reduction loop."""

    __slots__ = ("key", "exps", "packed", "tail")

    def __init__(self, key, exps, packed, tail):
        self.key = key
        self.exps = exps
        self.packed = packed
        self.tail = tail  # ((key, raw), ...) strictly below `key`


def _make_item(ring, terms):
    """Monicize a nonzero term tuple and build its _Item."""
    lead_key, lead_coeff = terms[0]
    dom = ring.domain
    if dom.is_zero(dom.sub(lead_coeff, dom.one)):
        tail = terms[1:]
    else:
        inv = dom.inv(lead_coeff)
        tail = tuple((k, dom.mul(c, inv)) for k, c in terms[1:])
    exps = ring.decode(lead_key)
    return _Item(lead_key, exps, _pack(exps), tail)


def _reduce_terms(terms, items, ring, packed_cache, guard):
    """Full normal form of a term list against monic items (fixed scan order).

    Returns the remainder as a descending term tuple.
    """
    dom = ring.domain
    prime = isinstance(dom, PrimeField)
    p = dom.characteristic if prime else None
    work = dict(terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    out = []
    decode = ring.decode
    while heap:
        k = -heapq.heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        packed = packed_cache.get(k)
        if packed is None:
            packed = _pack(decode(k))
            packed_cache[k] = packed
        vp = packed | guard
        for item in items:
            if (vp - item.packed) & guard == guard:
                shift = k - item.key
                if prime:
                    for k2, c2 in item.tail:
                        kk = k2 + shift
                        prev = work.get(kk)
                        if prev is None:
                            v = (-c * c2) % p
                            if v:
                                work[kk] = v
                                heapq.heappush(heap, -kk)
                        else:
                            v = (prev - c * c2) % p
                            if v:
                                work[kk] = v
                            else:
                                del work[kk]
                else:
                    for k2, c2 in item.tail:
                        kk = k2 + shift
                        prev = work.get(kk)
                        if prev is None:
                            v = dom.neg(dom.mul(c, c2))
                            if not dom.is_zero(v):
                                work[kk] = v
                                heapq.heappush(heap, -kk)
                        else:
                            v = dom.sub(prev, dom.mul(c, c2))
                            if dom.is_zero(v):
                                del work[kk]
                            else:
                                work[kk] = v
                break
        else:
            out.append((k, c))
    return tuple(out)


def _spair_terms(ring, item_f, item_g):
    """S-polynomial of two monic items, as a descending term tuple."""
    dom = ring.domain
    lcm = tuple(max(a, b) for a, b in zip(item_f.exps, item_g.exps))
    lcm_key = ring.encode(lcm)
    shift_f = lcm_key - item_f.key
    shift_g = lcm_key - item_g.key
    acc = {k + shift_f: c for k, c in item_f.tail}
    for k, c in item_g.tail:
        kk = k + shift_g
        prev = acc.get(kk)
        v = dom.neg(c) if prev is None else dom.sub(prev, c)
        if dom.is_zero(v):
            acc.pop(kk, None)
        else:
            acc[kk] = v
    return tuple(sorted(acc.items(), reverse=True))


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading
    monomial ascending.  Carries cached staircase data for colengths."""

    __slots__ = ("ring", "elements", "_items", "_guard", "_packed_cache",
                 "_colength", "_bounds")

    def __init__(self, ring: PolynomialRing, elements):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "elements", tuple(elements))
        items = [
            _make_item(ring, g._terms) for g in self.elements
        ]
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_guard", _guard_mask(ring.nvars))
        object.__setattr__(self, "_packed_cache", {})
        object.__setattr__(self, "_colength", None)
        object.__setattr__(self, "_bounds", None)

    def __setattr__(self, *_):
        raise AttributeError("GroebnerBasis is immutable")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def leading_exponents(self):
        return tuple(item.exps for item in self._items)

    def is_unit_ideal(self) -> bool:
        return len(self._items) == 1 and self._items[0].key == 0

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            if (f.ring.domain, f.ring.variables) == (self.ring.domain, self.ring.variables):
                f = self.ring.convert(f)
            else:
                raise StructuralError("polynomial from a different ring/order")
        terms = _reduce_terms(f._terms, self._items, self.ring, self._packed_cache, self._guard)
        return Polynomial(self.ring, terms)

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not self.normal_form(f)

    def staircase_bounds(self):
        """Per-variable minimal pure-power exponents of the leading-term
        ideal, or None if some variable has no pure power (infinite
        colength).  The unit ideal yields all-zero bounds."""
        cached = self._bounds
        if cached is not None:
            return cached if cached is not False else None
        n = self.ring.nvars
        bounds = [None] * n
        for item in self._items:
            support = [i for i, e in enumerate(item.exps) if e]
            if not support:  # the unit ideal
                bounds = [0] * n
                break
            if len(support) == 1:
                i = support[0]
                e = item.exps[i]
                if bounds[i] is None or e < bounds[i]:
                    bounds[i] = e
        if any(b is None for b in bounds):
            object.__setattr__(self, "_bounds", False)
            return None
        bounds = tuple(bounds)
        object.__setattr__(self, "_bounds", bounds)
        return bounds

    def colength(self):
        """Number of standard monomials (the slice count), or INFINITE."""
        cached = self._colength
        if cached is not None:
            return cached
        bounds = self.staircase_bounds()
        if bounds is None:
            result = INFINITE
        else:
            result = _slice_count(self.leading_exponents())
        object.__setattr__(self, "_colength", result)
        return result

    def standard_monomials(self):
        """The standard monomial basis, ascending in the term order, walked
        slice by slice like colength().  Raises for infinite colength."""
        if self.staircase_bounds() is None:
            raise ValidationError("standard monomials are infinite for this ideal")
        found = [self.ring.monomial(e) for e in _slice_points(self.leading_exponents())]
        found.sort(key=lambda m: m.key)
        return tuple(found)

    def __repr__(self):
        return f"GroebnerBasis({list(self.elements)!r})"


def _slices(gens):
    """Cut the monomial ideal spanned by the exponent vectors `gens` on
    the first variable.  Yields (a, b, part): for a <= e < b the standard
    monomials x_1^e * m are those with m standard for `part`, the
    projections of the generators of x_1-degree <= a.  Runs start at 0 and
    end at the largest x_1-degree; `part` grows in place between runs."""
    levels = {0: []}
    for g in gens:
        levels.setdefault(g[0], []).append(g[1:])
    steps = sorted(levels)
    part = []
    for a, b in zip(steps, steps[1:]):
        part += levels[a]
        yield a, b, part


def _slice_count(gens):
    """Standard-monomial count of the monomial ideal spanned by the
    exponent vectors `gens`, which may repeat or be non-minimal and must
    hold a pure power of every variable (or the zero vector).

    Slice count of Bigatti (JPAA 1997) and Roune (ISSAC 2010): each run of
    equal slices adds its length times the count of the slice, so the
    recursion depth is the number of variables; the walk stops at the
    first slice that is the unit ideal.  Two variables take a sorted
    running-minimum staircase.
    """
    if not gens or not gens[0]:
        return 0 if gens else 1  # no variables left: unit or zero ideal
    if len(gens[0]) == 2:
        total = 0
        (prev, low), *rest = sorted(gens)  # a pure power of y comes first
        for a, b in rest:
            if b < low:
                total += (a - prev) * low
                prev, low = a, b
        return total
    total = 0
    for a, b, part in _slices(gens):
        count = _slice_count(part)
        if not count:
            break
        total += (b - a) * count
    return total


def _slice_points(gens):
    """Exponent vectors of the monomials counted by _slice_count(gens)."""
    if not gens or not gens[0]:
        return [] if gens else [()]
    points = []
    for a, b, part in _slices(gens):
        below = _slice_points(part)
        if not below:
            break
        points.extend((e,) + m for e in range(a, b) for m in below)
    return points


def buchberger(I: IdealPresentation, order: TermOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by I."""
    ring = I.ring
    if not isinstance(ring.domain, Field):
        raise ValidationError("Groebner bases require field coefficients")
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [ring.convert(g) for g in I.generators]
    else:
        gens = list(I.generators)

    guard = _guard_mask(ring.nvars)
    packed_cache: dict[int, int] = {}
    items: list[_Item] = []
    seen = set()
    for g in gens:
        item = _make_item(ring, g._terms)
        sig = (item.key, item.tail)
        if sig not in seen:
            seen.add(sig)
            items.append(item)

    def lcm_key(a: _Item, b: _Item):
        return ring.encode(tuple(max(x, y) for x, y in zip(a.exps, b.exps)))

    pairs = []
    for i, j in combinations(range(len(items)), 2):
        heapq.heappush(pairs, (lcm_key(items[i], items[j]), i, j))
    treated = set()

    while pairs:
        lk, i, j = heapq.heappop(pairs)
        treated.add((i, j))
        a, b = items[i], items[j]
        # coprime criterion: disjoint leading supports reduce to zero
        if all(x == 0 or y == 0 for x, y in zip(a.exps, b.exps)):
            continue
        # chain criterion
        lcm = tuple(max(x, y) for x, y in zip(a.exps, b.exps))
        skip = False
        for k, c in enumerate(items):
            if k == i or k == j:
                continue
            if all(ce <= le for ce, le in zip(c.exps, lcm)):
                pik = (i, k) if i < k else (k, i)
                pjk = (j, k) if j < k else (k, j)
                if pik in treated and pjk in treated:
                    skip = True
                    break
        if skip:
            continue
        s_terms = _spair_terms(ring, a, b)
        if not s_terms:
            continue
        remainder = _reduce_terms(s_terms, items, ring, packed_cache, guard)
        if not remainder:
            continue
        new = _make_item(ring, remainder)
        idx = len(items)
        items.append(new)
        for k in range(idx):
            heapq.heappush(pairs, (lcm_key(items[k], new), k, idx))

    # minimalize: drop elements whose lead is divisible by another kept lead
    order_idx = sorted(range(len(items)), key=lambda k: items[k].key)
    kept: list[_Item] = []
    for k in order_idx:
        cand = items[k]
        if any(all(a <= b for a, b in zip(it.exps, cand.exps)) for it in kept):
            continue
        kept.append(cand)
    # auto-reduce tails ascending; smaller leads are already final
    reduced_items: list[_Item] = []
    elements = []
    for it in kept:
        tail = _reduce_terms(it.tail, reduced_items, ring, packed_cache, guard)
        final = _Item(it.key, it.exps, it.packed, tail)
        reduced_items.append(final)
        elements.append(Polynomial(ring, ((it.key, ring.domain.one),) + tail))
    return GroebnerBasis(ring, elements)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo G; zero iff f lies in the ideal."""
    return G.normal_form(f)


def colength(G: GroebnerBasis):
    """Vector-space dimension of the quotient, or INFINITE."""
    return G.colength()


def _primary_witness(G: GroebnerBasis):
    """None if the ideal is primary to the origin, else an offending
    variable name; requires finite colength."""
    n = G.colength()
    if n is INFINITE:
        raise ValidationError("primality test needs finite colength")
    ring = G.ring
    for i, name in enumerate(ring.variables):
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        t = G.normal_form(Polynomial(ring, ((ring.encode(exps), ring.domain.one),)))
        k = 1
        while k < n and t:
            t = G.normal_form(t * t)
            k <<= 1
        if t:
            return name
    return None


def is_primary_to_origin(G: GroebnerBasis) -> bool:
    """True iff every variable is nilpotent modulo the ideal, i.e. the
    ideal is primary to the maximal ideal at the origin (then affine
    colength equals local length)."""
    return _primary_witness(G) is None


def _coords(G: GroebnerBasis, basis_index, f: Polynomial):
    vec = [G.ring.domain.zero] * len(basis_index)
    for k, c in f._terms:
        idx = basis_index.get(k)
        if idx is None:
            raise StructuralError("normal form left the standard-monomial span")
        vec[idx] = c
    return vec


def multiplication_matrix(G: GroebnerBasis, f: Polynomial):
    """Matrix of multiplication-by-f on the standard-monomial basis;
    column j holds the coordinates of normal_form(f * e_j)."""
    if G.colength() is INFINITE:
        raise ValidationError("multiplication matrix needs finite colength")
    smb = G.standard_monomials()
    basis_index = {m.key: i for i, m in enumerate(smb)}
    field = G.ring.domain
    n = len(smb)
    cols = []
    nf_f = G.normal_form(f)
    for m in smb:
        shifted = Polynomial(G.ring, tuple((k + m.key, c) for k, c in nf_f._terms))
        cols.append(_coords(G, basis_index, G.normal_form(shifted)))
    matrix = [[cols[j][i] for j in range(n)] for i in range(n)]
    return [[FieldElement(field, v) for v in row] for row in matrix]


def _socle_lifts(G: GroebnerBasis):
    """Polynomials lifting a basis of the kernel of the stacked
    multiplication-by-variable maps on the standard-monomial basis of a
    finite-colength G, i.e. of the socle of the quotient."""
    ring = G.ring
    field = ring.domain
    smb = G.standard_monomials()
    basis_index = {m.key: i for i, m in enumerate(smb)}
    stacked = []
    n = len(smb)
    for i in range(ring.nvars):
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        var_key = ring.encode(exps)
        cols = []
        for m in smb:
            prod = Polynomial(ring, ((m.key + var_key, field.one),))
            cols.append(_coords(G, basis_index, G.normal_form(prod)))
        for r in range(n):
            stacked.append([cols[c][r] for c in range(n)])
    kernel = linalg.kernel_basis(field, stacked, n)
    lifts = []
    for vec in kernel:
        terms = [(smb[i].key, v) for i, v in enumerate(vec) if not field.is_zero(v)]
        lifts.append(ring.polynomial(terms))
    return lifts


def ideal_colon_m(J: IdealPresentation) -> IdealPresentation:
    """(J : m) for the maximal ideal m at the origin, computed as the
    kernel of the stacked multiplication-by-variable maps on the
    standard-monomial basis, lifted back to polynomial generators."""
    G = buchberger(J)
    if G.colength() is INFINITE:
        raise ValidationError("colon ideal computation needs finite colength")
    witness = _primary_witness(G)
    if witness is not None:
        raise ValidationError(
            f"ideal is not primary to the origin: variable {witness!r} is a unit direction"
        )
    return IdealPresentation(J.ring, tuple(J.generators) + tuple(_socle_lifts(G)))


def trace_discriminant(G: GroebnerBasis) -> FieldElement:
    """Determinant of the trace-pairing Gram matrix on the canonical
    standard-monomial basis (sorted by the term order, which pins the
    unit ambiguity of a basis change)."""
    if G.colength() is INFINITE:
        raise ValidationError("trace discriminant needs finite colength")
    ring = G.ring
    field = ring.domain
    smb = G.standard_monomials()
    n = len(smb)
    basis_index = {m.key: i for i, m in enumerate(smb)}
    # coords of nf(e_i * e_j), computed once per pair
    prods = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = Polynomial(ring, ((smb[i].key + smb[j].key, field.one),))
            vec = _coords(G, basis_index, G.normal_form(prod))
            prods[i][j] = vec
            prods[j][i] = vec
    # T[c] = trace of multiplication by e_c
    traces = [None] * n
    for c in range(n):
        acc = field.zero
        for j in range(n):
            acc = field.add(acc, prods[c][j][j])
        traces[c] = acc
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for c, v in enumerate(prods[i][j]):
                if not field.is_zero(v):
                    acc = field.add(acc, field.mul(v, traces[c]))
            row.append(acc)
        gram.append(row)
    return FieldElement(field, linalg.det(field, gram))

"""Buchberger's algorithm and everything built on its basis: normal
forms, colengths and primality-to-origin; the linear algebra of a finite
quotient algebra built on them is in quotient.  check_primary_to_origin
is the one primality check of the package: it raises a ValidationError
that names the caller's object, and the witness variable when one is not
nilpotent.

Colengths count the staircase of the leading monomials by slicing on one
variable at a time (Bigatti, "Computation of Hilbert-Poincare series",
JPAA 1997; Roune, "A slice algorithm for corners and Hilbert-Poincare
series of monomial ideals", ISSAC 2010); standard_monomials() walks the
same slices, and colength_below_degree counts the monomials of degree < n
outside a monomial ideal with the same count.

The reducer works on the order keys of polyring, whose low bits are the
exponent fields of the monomial (32 bits per variable, one guard bit).
Divisibility, lcms and the box test below act on those fields of the
keys themselves: with exponents below 2^31, `all(v_i >= u_i)` is the
single int test ((v | GUARD) - u) & GUARD == GUARD, and a term created
by a reduction step gets its key, exponent fields included, by one
addition, so nothing is decoded in the loop.

The sparse reducer serves every coefficient field, with the arithmetic
of F_p inline; a run by positions over a small prime field with
homogeneous input keeps dense rows instead (the last section).  A term
that cancels keeps its zero in the work dict until the heap pops it, so
a key created again is updated in place and each key enters the heap
once; a step creates only terms below the one it reduces, so no popped
key comes back.

Bracket powers put the pure powers x_i^q into the ideal.  While the
working set holds a one-term pure power x_i^b, a term with e_i >= b is
dropped when it is created, since removing a multiple of a monomial
element is itself a reduction step; the reduced basis is unique, so the
result does not change.  With BOX holding 2^31 - b_i in the field of
every such variable, the test is (key + BOX) & GUARD, and the same test
catches an exponent that reached 2^31, which raises ExponentOverflow.

Inside buchberger the reducer finds irreducible terms through a divisor
index, after the short exponent vectors of Bachmann and Schonemann
(ISSAC 1998).  It keys a term on its exponent fields with those of u and
v, the last two variables in the ring's priority, cleared.  An entry is
the staircase (Miller and Sturmfels, Combinatorial Commutative Algebra,
ch. 3) of the (u, v) fields of the reducers whose kept fields divide the
key's: its minimal points, u ascending, v descending, so a term has a
divisor exactly when the last point with u at most its own has v at most
its own.  In three variables the kept field is that of the first, which
QuotientRingSpec.colength_ring() puts there: it stays below its pure
power (z^4 for the Monsky quartics), so entries are few.  Reducers are
only appended, and an entry takes in those appended since it was last
read.  A term enters the heap only when the index shows a divisor; the
others stay in the work dict, where a step may still update them, and
leave it sorted as the remainder, each key negated twice: a key made by
k + shift keeps a spare digit, 52 B against 48 B.  Heap terms are
scanned in list order, so the first divisor is still the reducer chosen,
and every step, counter and basis is as without the index.  The index is
used only on more than _INDEX_MIN_ITEMS reducers.

Pairs are managed by the update of Gebauer and Moller ("On an
installation of Buchberger's algorithm", JSC 1988) in the UPDATE form of
Becker and Weispfenning (Groebner Bases, 1993, p. 230), run once per new
element: new pairs are thinned by criteria M and F and by the product
criterion, queued pairs by criterion B_k, and new pairs are formed only
with elements whose leading monomial no later one divides; every element
stays a reducer.  Pair selection is the normal strategy (smallest lcm in
the order, ties by generator index).  For a fixed input and order the
computation is deterministic.  In a run by positions in three variables
(below) the active leads of a position form a staircase in (u, v), and
only a few can give a least lcm with a new lead: the last point left of
it, the first below it and the points it divides, or the points that
divide it (_neighbours); the update forms its candidates from these
alone, and every other run scans every active element.

Minimalization asks a divisor index over the kept leads, ascending,
whether one divides the next candidate, and buchberger stops there on
every path: a colength reads only the leads, and a normal form is the
same for every Groebner basis.  GroebnerBasis.elements makes the reduced
basis, which is unique (Becker and Weispfenning, Groebner Bases, 1993),
when first read.  It walks the kept items in ascending order of the lead
and reduces a tail exactly when a kept lead divides one of its terms;
such a lead is below the term, so it belongs to an element already
final, and the divisor index over those answers the question term by
term.  So a basis that is only counted on never interreduces, and every
basis shown to a user reads the same reduced elements, whichever loop
made it.

Positions (Moller and Mora, "New constructive methods in classical
ideal theory", J. Algebra 1986; Kreuzer and Robbiano, Computational
Commutative Algebra 1, ch. 2).  Let f in I have the lead z^d, so that f =
z^d + terms of z-degree < d, and write x for the other variables.  R =
S/(f) is a free k[x]-module on 1, z, ..., z^(d-1), a term x^a z^i lying
at position i, and the term order of S restricted to these terms is a
module term order.  N = I/(f) is a k[x]-submodule of R, closed under z
(N is an ideal of R), and it is generated over k[x] by the z^i * g
reduced by f, for the other generators g of I and i < d: every s in S is
congruent mod f to a k[x]-combination of the z^i.  Every lead of I is
divisible by z^d or is the lead of its remainder mod f, which lies in N
(dividing by f replaces only terms below a lead not divisible by z^d).
So a Groebner basis of the module N together with f is a Groebner basis
of I, and minimalizing it in the ideal's sense gives a minimal one, with
the leads of the reduced basis.  buchberger takes this run when told f
and z is a kept field of the divisor index: the inputs are the z^i * g,
each made from the last by one multiplication by z and a reduction by f;
pairs and criteria M, F and B_k act only between leads of one position,
and f forms no pair; a term is reduced only by leads of its own
position, which have a reducer list of their own.  There is no
product criterion: it rests on the syzygy g*h - h*g of two ring
elements, which is not a relation between two elements of a module.
The box holds the pure powers of the other variables among I's one-term
generators and stays fixed: x_i^b z^j is an input for every j < d, so a
term cut at position j is a multiple of an element of its own position,
while a one-term element found in the loop is one at its own position
only, and cutting by it at the others (as the ideal loop's growing box
would) drops terms no element of theirs reduces.  At the end f joins the
minimalization in the ideal's sense.  A tail is as the module loop left
it, and may hold a term that a lead at a lower position divides until
`elements` reduces it.

Dense rows (the rows module).  A run by positions in three variables
with z first in a degrevlex priority (index.keep == zfield), over F_p
with p <= 127, whose generators are all homogeneous and whose box bounds
both u and v, holds each element as one int: byte (a + j)*d + j of an
element of degree D is the coefficient of u^a v^(D-j-a) z^j, so byte
order is the term order within a degree.  The rows replace _spair,
_reduce_terms and _item inside the one pair loop; _gm_update, the pair
heap, the minimalization and BuchbergerStats are shared.  The reducer
takes the largest reducible term first and the first divisor in the
list order of its position, as the sparse one does, so every element,
counter and basis is the sparse run's; the inputs z^i * g fold the top
position through the tail of f.  _row_kernel chooses the path by the
structure of the input alone.  A row item makes its flat tail when it is
first read: colengths read only leads, so a counting basis never holds
tails, while normal forms and elements make them.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, combinations_with_replacement
from typing import NamedTuple

from .coeff import Field, PrimeField
from .errors import ExponentOverflow, ValidationError
from .polyring import (EXP_BITS, FIELD_MASK, MAX_EXPONENT, IdealPresentation, Polynomial,
                       PolynomialRing)

INFINITE = math.inf


def _overflow():
    return ExponentOverflow(f"exponent exceeds 2^{EXP_BITS - 1}")


class _Item:
    """One monic basis element, preprocessed for the reduction loop."""

    __slots__ = ("key", "exps", "tail")

    def __init__(self, key, exps, tail):
        self.key = key
        self.exps = exps
        self.tail = tail  # key, raw, key, raw, ... strictly below `key`, descending

    @property
    def monomial(self):
        return not self.tail


def _make_item(ring, terms):
    """The _Item of a nonzero tuple of (key, raw) terms."""
    return _item(ring, tuple(chain.from_iterable(terms)))


def _item(ring, flat):
    """Monicize a nonzero flat term tuple (key, raw, key, raw, ...,
    descending) and build its _Item.  Tails stay flat: a (key, raw) pair
    object per term would take about half the memory of a basis."""
    lead_key, lead_coeff = flat[0], flat[1]
    dom = ring.domain
    tail = flat[2:]
    if lead_coeff != dom.one:  # raws are canonical
        inv, mul = dom.inv(lead_coeff), dom.mul
        tail = list(tail)
        tail[1::2] = [mul(c, inv) for c in tail[1::2]]
        tail = tuple(tail)
    return _Item(lead_key, ring.decode(lead_key), tail)


def _pairs(tail):
    """The (key, raw) terms of a flat tail."""
    return tuple(zip(tail[::2], tail[1::2]))


def pure_powers(exponent_vectors) -> dict:
    """{i: b} for each variable x_i with a pure power x_i^a (a >= 1) among
    the exponent vectors, b the least such a."""
    bounds = {}
    for exps in exponent_vectors:
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            bounds[i] = min(bounds.get(i, exps[i]), exps[i])
    return bounds


def _box_mask(items):
    """BOX of the module docstring for the one-term pure powers among items."""
    bounds = pure_powers(item.exps for item in items if item.monomial)
    return sum((MAX_EXPONENT - b) << (EXP_BITS * i) for i, b in bounds.items())


def _staircase_bounds(items, n):
    """GroebnerBasis.staircase_bounds() of the basis of `items`."""
    if any(item.key == 0 for item in items):  # the unit ideal
        return (0,) * n
    bounds = pure_powers(item.exps for item in items)
    return tuple(bounds[i] for i in range(n)) if len(bounds) == n else None


class _DivisorIndex:
    """The divisor index of the module docstring: `table` maps a key masked
    by `keep` to [seen, us, vs], the staircase of the first `seen` items of
    the list it is read with, in a run by positions the reducers of the
    key's position."""

    def __init__(self, ring):
        # in one variable u is v, and a staircase has one point
        u, v = (ring.order.resolved_priority(ring.nvars) * 2)[-2:]
        uf = self.ufield = FIELD_MASK << EXP_BITS * u
        vf = self.vfield = FIELD_MASK << EXP_BITS * v
        self.keep = ring.exp_mask ^ (uf | vf)
        self.guard = ring.guard
        # between the points (-1, vf) and (uf, -1), which divide no term
        self.table = defaultdict(lambda: [0, [-1, uf], [vf, -1]])

    def update(self, items, masked, entry):
        """Bring the entry of `masked` up to date."""
        seen, us, vs = entry
        probe = masked | self.ufield | self.vfield | self.guard  # ignores u and v
        for item in items[seen:]:
            u, v = item.key & self.ufield, item.key & self.vfield
            if (probe - item.key) & self.guard == self.guard and vs[bisect_right(us, u) - 1] > v:
                # no point divides (u, v): it replaces the points it divides,
                # those from its u on with v at least its own
                i = bisect_left(us, u)
                while vs[i] >= v:
                    del us[i], vs[i]
                us.insert(i, u)
                vs.insert(i, v)
        entry[0] = len(items)

    def divides(self, items, keys):
        """Whether the lead of some item divides one of the terms `keys`;
        a short list is scanned, as the reducer does."""
        table, keep, uf, vf, n = self.table, self.keep, self.ufield, self.vfield, len(items)
        if n <= _INDEX_MIN_ITEMS:  # a scan is cheaper
            guard = self.guard
            return any(((k | guard) - it.key) & guard == guard for k in keys for it in items)
        for k in keys:
            entry = table[k & keep]
            if entry[0] < n:
                self.update(items, k & keep, entry)
            if entry[2][bisect_right(entry[1], k & uf) - 1] <= k & vf:
                return True
        return False


# shorter reducer lists are scanned without the index: with no cutoff
# rsig-cubic, whose bases are small, ran about 1.7x slower, and with 64
# modp-prime about 1.15x slower; 8 and 32 were within noise
_INDEX_MIN_ITEMS = 16


def _reduce_terms(work, reducers, dom, guard, box, tally, index=None, zfield=0):
    """Full normal form of the terms of `work` (key -> raw, consumed)
    against monic items: a term is reduced by the first item of
    reducers[key & zfield] whose lead divides it, so with `zfield` set
    only by items of its own position.  The exponents of the keys of
    `work` are all below 2^31; terms outside the box are dropped.
    `index`, a _DivisorIndex over the reducers, keeps the terms no item
    divides out of the heap: they stay in `work` until the end.  Returns
    the remainder flat and descending, key, raw, key, raw, ..., and adds
    the reduction steps and box drops to tally[0:2]."""
    prime = isinstance(dom, PrimeField)
    p = dom.characteristic
    zero, neg, mul, sub = dom.zero, dom.neg, dom.mul, dom.sub
    steps = dropped = 0
    if box:
        for k in [k for k in work if (k + box) & guard]:
            del work[k]
            dropped += 1
    indexed = index is not None and sum(map(len, reducers.values())) > _INDEX_MIN_ITEMS
    if indexed:
        table, update = index.table, index.update
        ufield, vfield, keep = index.ufield, index.vfield, index.keep
    heap = []
    fresh = list(work)  # keys new to the work dict, not yet in the heap
    out = []
    while True:
        for k in fresh:
            if indexed:
                masked = k & keep
                seen, us, vs = entry = table[masked]
                items = reducers[k & zfield]
                if seen < len(items):
                    update(items, masked, entry)
                if vs[bisect_right(us, k & ufield) - 1] > k & vfield:
                    continue  # no item divides k: it stays in work, out of the heap
            heapq.heappush(heap, -k)
        fresh.clear()
        if not heap:
            break
        k = -heapq.heappop(heap)
        c = work.pop(k)
        if c == zero:  # cancelled
            continue
        vk = k | guard
        for item in reducers[k & zfield]:
            if (vk - item.key) & guard == guard:
                steps += 1
                shift = k - item.key
                # the term k lies in the box and shift divides it, so kk + box
                # cannot carry across fields: its guard bits mark exactly the
                # terms outside the box and the exponents that reached 2^31
                tail = iter(item.tail)
                for k2 in tail:
                    c2 = next(tail)
                    kk = k2 + shift
                    prev = work.get(kk)
                    if prev is None:
                        if (kk + box) & guard:
                            if kk & guard:
                                raise _overflow()
                            dropped += 1
                            continue
                        work[kk] = (-c * c2) % p if prime else neg(mul(c, c2))
                        if indexed:
                            fresh.append(kk)
                        else:
                            heapq.heappush(heap, -kk)
                    else:
                        # a cancelled term keeps its zero, so kk is never pushed twice
                        work[kk] = (prev - c * c2) % p if prime else sub(prev, mul(c, c2))
                break
        else:
            out += k, c
    if indexed:  # the terms the index kept out of the heap
        for k in sorted([-k for k, c in work.items() if c != zero]):
            k = -k
            out += k, work[k]
    tally[0] += steps
    tally[1] += dropped
    return tuple(out)


def _spair(item_f, item_g, lcm_key, dom, guard):
    """S-polynomial of two monic items with the given lcm, as the
    key -> raw dict that _reduce_terms takes, with F_p arithmetic inline.
    A cancelled term is removed, not kept as zero, since box drops count
    terms; a term of the result with an exponent >= 2^31 raises."""
    p = dom.characteristic if isinstance(dom, PrimeField) else 0
    shift = lcm_key - item_f.key
    tail = iter(item_f.tail)
    work = {k + shift: c for k, c in zip(tail, tail)}
    shift = lcm_key - item_g.key
    tail = iter(item_g.tail)
    for k, c in zip(tail, tail):
        kk = k + shift
        prev = work.pop(kk, dom.zero)
        c = (prev - c) % p if p else dom.sub(prev, c)
        if c != dom.zero:
            work[kk] = c
    for k in work:
        if k & guard:
            raise _overflow()
    return work


def _neighbours(stair, h, hk):
    """The candidates for the new pairs of h, with lead key hk, in a run by
    positions in three variables, from the staircase (us, vs, gs) of h's
    position: the minimal active leads by their (u, v) fields, u
    ascending, v descending, between the points (-1, vfield) and
    (ufield, -1), gs[i - 1] the element at point i.  An active lead that
    another one divides is younger than it (else it would be gone), so it
    never forms a pair: the older one's lcm with h divides its own, and the
    older one wins a tie.  The least lcms are lead(h), when points divide
    h, or those of the last point left of h, of the points h divides and
    of the first point below h; the candidates are these points with the
    neighbours of those dividing h.  Unless another point divides h, h
    replaces the points it divides."""
    us, vs, gs = stair
    a, b = hk & us[-1], hk & vs[0]
    i = lo = bisect_right(us, a)
    while vs[lo - 1] <= b:  # points that divide h
        lo -= 1
    r = i
    while vs[r] > b:  # points right of h that h divides
        r += 1
    cands = gs[max(lo - 2, 0):r]
    start = i - 1 if us[i - 1] == a and vs[i - 1] >= b else i  # from the points h divides
    if lo >= start:  # no other point divides h: it replaces the points it divides
        end = r + 1 if vs[r] == b else r
        us[start:end] = [a]
        vs[start:end] = [b]
        gs[start - 1:end - 1] = [h]
    return cands


def _gm_update(items, active, pairs, h, ring, tally, zfield=0):
    """The Gebauer-Moller UPDATE for the new element items[h].

    `active` lists the indices that may form new pairs and `pairs` is the
    heap of queued (lcm key, i, j) with i < j.  Returns the new active
    list and pair heap, and adds to tally[0..3] the new pairs formed, the
    new pairs dropped by the product criterion, the queued pairs dropped
    by criterion B_k and the new pairs dropped by criteria M and F.  In a
    module run (`zfield` set) `active` holds h's position alone, B_k drops
    only pairs of that position and there is no product criterion; in
    three variables `active` is the staircase of _neighbours, updated in
    place, and only its candidates are formed."""
    guard = ring.guard
    exp_mask = ring.exp_mask
    lcm = ring.lcm_fields
    hk = items[h].key
    stair = isinstance(active, tuple)
    # new pairs by ascending lcm exponent fields: a proper divisor comes
    # first, and among equal lcms a coprime pair, which then removes the others
    cands = []
    for g in _neighbours(active, h, hk) if stair else active:
        gk = items[g].key
        lp = lcm(gk, hk)
        cands.append((lp, zfield != 0 or lp != (gk + hk) & exp_mask, g))
    cands.sort()
    witnesses = []
    new = []
    for lp, overlap, g in cands:
        lg = lp | guard
        for w in witnesses:
            if (lg - w) & guard == guard:
                break
        else:
            witnesses.append(lp)
            if overlap:
                new.append((ring.key_of_fields(lp), g, h))
    # criterion B_k drops the queued pairs (i, j) whose lcm lead(h) divides,
    # and equals neither lcm(i, h) nor lcm(j, h)
    kept = [(lk, i, j) for lk, i, j in pairs if ((lk | guard) - hk) & guard != guard
            or (lk ^ hk) & zfield
            or lcm(items[i].key, hk) == lk & exp_mask or lcm(items[j].key, hk) == lk & exp_mask]
    tally[0] += len(cands)
    tally[1] += len(witnesses) - len(new)
    tally[2] += len(pairs) - len(kept)
    tally[3] += len(cands) - len(witnesses)
    pairs = kept + new
    heapq.heapify(pairs)
    if not stair:
        active = [g for g in active if ((items[g].key | guard) - hk) & guard != guard]
        active.append(h)
    return active, pairs


class BuchbergerStats(NamedTuple):
    """Counters of one buchberger() run: its pair loop and, in a run by
    positions, the chains that make its inputs; reading the elements of
    the basis counts nothing.  Every pair formed is dropped by one
    criterion or reduced once: pairs_formed == by_product + by_b_k +
    by_m_f + pairs_reduced."""

    pairs_formed: int
    by_product: int  # product criterion: coprime leading monomials
    by_b_k: int  # criterion B_k, on queued pairs
    by_m_f: int  # criteria M and F, on new pairs
    pairs_reduced: int  # S-polynomials reduced
    zero_reductions: int  # of those, the ones that reduced to zero
    reduction_steps: int
    box_drops: int  # terms dropped outside the box of the pure powers
    max_basis: int  # largest size of the working set


class GroebnerBasis:
    """Minimal Groebner basis, monic and sorted by leading monomial
    ascending, that reads as the reduced basis: `elements` reduces the
    tails when first read (see the module docstring), while leads,
    colengths, standard monomials and normal forms read the minimal items.
    Carries cached staircase data for colengths, and the BuchbergerStats
    of the run that computed it (None when it was built from the given
    elements of a minimal basis)."""

    __slots__ = ("ring", "_elements", "stats", "_items", "_box", "_colength", "_bounds")

    def __init__(self, ring: PolynomialRing, elements):
        items = sorted((_make_item(ring, g._terms) for g in elements), key=lambda it: it.key)
        self._fill(ring, items, None)

    @classmethod
    def _of_items(cls, ring, items, stats):
        """The basis of minimal items, ascending by lead."""
        basis = cls.__new__(cls)
        basis._fill(ring, items, stats)
        return basis

    @property
    def elements(self):
        """The reduced basis as polynomials, made when first read: a basis
        that is only counted on never holds them."""
        if self._elements is None:
            ring = self.ring
            dom, index, final = ring.domain, _DivisorIndex(ring), []
            for it in self._items:  # smaller leads are already final
                tail = it.tail
                if index.divides(final, tail[::2]):
                    tail = _reduce_terms(dict(_pairs(tail)), {0: final}, dom, ring.guard,
                                         self._box, [0, 0], index)
                final.append(_Item(it.key, it.exps, tail))
            object.__setattr__(self, "_elements", tuple(
                Polynomial(ring, ((it.key, dom.one),) + _pairs(it.tail)) for it in final))
        return self._elements

    def _fill(self, ring, items, stats):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_elements", None)
        object.__setattr__(self, "stats", stats)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_box", _box_mask(items))
        object.__setattr__(self, "_colength", None)
        object.__setattr__(self, "_bounds", _staircase_bounds(items, ring.nvars))

    def __setattr__(self, *_):
        raise AttributeError("GroebnerBasis is immutable")

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self.elements)

    def leading_exponents(self):
        return tuple(item.exps for item in self._items)

    def is_unit_ideal(self) -> bool:
        return len(self._items) == 1 and self._items[0].key == 0

    def normal_form(self, f: Polynomial) -> Polynomial:
        f = self.ring.convert(f)  # raises unless f's ring differs at most in order
        terms = _reduce_terms(dict(f._terms), {0: self._items}, self.ring.domain,
                              self.ring.guard, self._box, [0, 0])
        return Polynomial(self.ring, _pairs(terms))

    def staircase_bounds(self):
        """Per-variable minimal pure-power exponents of the leading-term
        ideal, or None if some variable has no pure power (infinite
        colength).  The unit ideal yields all-zero bounds."""
        return self._bounds

    def colength(self):
        """Number of standard monomials (the slice count), or INFINITE."""
        cached = self._colength
        if cached is not None:
            return cached
        result = INFINITE if self._bounds is None else _slice_count(self.leading_exponents())
        object.__setattr__(self, "_colength", result)
        return result

    def standard_monomials(self):
        """The standard monomial basis, ascending in the term order, walked
        slice by slice like colength().  Raises for infinite colength."""
        if self._bounds is None:
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


def colength_below_degree(leads, nvars: int, n: int) -> int:
    """Number of monomials of degree < n (n >= 1) in `nvars` variables
    that no exponent vector of `leads` divides: the slice count of `leads`
    together with every monomial of degree n, among them the pure powers
    the count needs."""
    degree_n = []
    for combo in combinations_with_replacement(range(nvars), n):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        degree_n.append(tuple(exps))
    return _slice_count([*leads, *degree_n])


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


def _row_kernel(ring, gens, fi, index, zfield, reducers, tally):
    """The RowKernel of a run by positions with the monic items `gens` of
    the generators, f's item fi among them, when its elements can be dense
    rows (see the module docstring), else None."""
    dom = ring.domain
    if not (index.keep == zfield and ring.order.kind == "degrevlex"
            and isinstance(dom, PrimeField)):
        return None
    if any(len({sum(ring.decode(k)) for k in it.tail[::2]} | {sum(it.exps)}) > 1 for it in gens):
        return None
    bounds = pure_powers(it.exps for it in gens if not it.tail)
    u, v = ring.order.resolved_priority(3)[1:]
    if u not in bounds or v not in bounds:
        return None
    # loaded on first use: a process that never takes rows neither compiles
    # nor holds the module (about 0.1 MB of peak RSS at import)
    from .rows import MAX_PRIME, RowKernel
    if dom.characteristic > MAX_PRIME:
        return None
    return RowKernel(ring, fi, (bounds[u], bounds[v]), reducers, tally)


def buchberger(I: IdealPresentation, f: Polynomial | None = None) -> GroebnerBasis:
    """Groebner basis of the ideal generated by I, in the term order of
    I's ring: minimal, reading as the reduced basis (GroebnerBasis); its
    `stats` hold the counters of the run.

    Naming f, one of I's generators (up to a unit), runs the pair loop by
    positions when f's lead is a pure power z^d of a kept variable of the
    divisor index (see the module docstring), on dense rows when the
    input allows; otherwise, or without f, the loop runs over the
    ideal."""
    ring = I.ring
    dom = ring.domain
    if not isinstance(dom, Field):
        raise ValidationError("Groebner bases require field coefficients")

    guard = ring.guard
    unique = {}  # the first of equal monic generators
    for g in I.generators:
        item = _make_item(ring, g._terms)
        unique.setdefault((item.key, item.tail), item)
    items: list[_Item] = list(unique.values())
    box = _box_mask(items)
    tally = [0, 0]  # reduction steps, box drops
    index = _DivisorIndex(ring)
    zfield = 0  # the exponent field of z in a run by positions
    if f:
        fi = _make_item(ring, ring.convert(f)._terms)
        fi = unique.get((fi.key, fi.tail))  # None unless f is a generator
        support = [i for i, e in enumerate(fi.exps) if e] if fi else ()
        if len(support) == 1 and (FIELD_MASK << EXP_BITS * support[0]) & index.keep:
            z = support[0]
            zfield = FIELD_MASK << EXP_BITS * z
    reducers = defaultdict(list)  # by position; one list over the ideal
    kernel = zfield and _row_kernel(ring, unique.values(), fi, index, zfield, reducers, tally)
    if kernel:
        items = kernel.inputs([it for it in unique.values() if it is not fi])
    elif zfield:
        # the inputs of N = I/(f): z^i * g reduced by f for i < d, each made
        # from the last; an input whose lead lies outside the box, as the
        # pure powers that define it do, is not cut by it
        box &= ~zfield
        zkey = ring.encode([int(i == z) for i in range(ring.nvars)])
        items = []
        for it in unique.values():
            if it is fi:
                continue
            work = dict(_pairs((it.key, dom.one) + it.tail))
            for _ in range(fi.exps[z]):
                terms = _reduce_terms(work, {0: [fi]}, dom, guard,
                                      0 if (it.key + box) & guard else box, tally)
                if not terms:
                    break
                items.append(_item(ring, terms))
                work = {k + zkey: c for k, c in _pairs(terms)}

    if zfield and index.keep == zfield:  # the active leads of a position form a staircase
        uf, vf = index.ufield, index.vfield
        actives = defaultdict(lambda: ([-1, uf], [vf, -1], []))
    else:
        actives = defaultdict(list)  # active indices by position
    pairs: list = []
    crit = [0, 0, 0, 0]  # pairs formed; dropped by product, B_k, M and F
    reduced = zeros = 0
    for h, it in enumerate(items):
        pos = it.key & zfield
        reducers[pos].append(it)
        actives[pos], pairs = _gm_update(items, actives[pos], pairs, h, ring, crit, zfield)

    while pairs:
        lk, i, j = heapq.heappop(pairs)
        reduced += 1
        if kernel:  # dense rows
            terms = kernel.reduce(kernel.spair(items[i], items[j], lk))
        else:
            work = _spair(items[i], items[j], lk, dom, guard)
            terms = _reduce_terms(work, reducers, dom, guard, box, tally, index, zfield)
        if not terms:
            zeros += 1
            continue
        new = kernel.item(terms) if kernel else _item(ring, terms)
        items.append(new)
        if not zfield and not new.tail:  # a monomial element, maybe a new pure power
            box = _box_mask(items)
        pos = new.key & zfield
        reducers[pos].append(new)
        actives[pos], pairs = _gm_update(items, actives[pos], pairs, len(items) - 1, ring, crit,
                                         zfield)

    # a staircase (us, vs, gs) holds its elements in gs
    active = [k for ks in actives.values() for k in (ks[2] if isinstance(ks, tuple) else ks)]
    if zfield:  # f joins the minimalization in the ideal's sense
        items.append(fi)
        active.append(len(items) - 1)
    # minimalize: drop elements whose lead is divisible by another kept lead;
    # every minimal lead is still active
    kept: list[_Item] = []
    index = _DivisorIndex(ring)
    for k in sorted(active, key=lambda k: items[k].key):
        if not index.divides(kept, (items[k].key,)):
            kept.append(items[k])
    max_basis = len(items)
    stats = BuchbergerStats(*crit, reduced, zeros, *tally, max_basis)
    return GroebnerBasis._of_items(ring, kept, stats)


def _primary_witness(G: GroebnerBasis, what="ideal"):
    """None if the ideal is primary to the origin, else an offending
    variable name; an ideal of infinite colength is a ValidationError
    naming `what`."""
    n = G.colength()
    if n is INFINITE:
        raise ValidationError(f"{what} is not zero-dimensional")
    for name, v in zip(G.ring.variables, G.ring.gens()):
        t = G.normal_form(v)
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


def check_primary_to_origin(G: GroebnerBasis, what: str) -> None:
    """Raise a ValidationError naming `what` unless the ideal of G has
    finite colength and is primary to the origin."""
    witness = _primary_witness(G, what)
    if witness is not None:
        raise ValidationError(
            f"{what} is not primary to the origin: variable {witness!r} is not nilpotent"
        )

"""Independent oracles for cross-checking colengths.

Nothing here touches the Buchberger/staircase path under test: polynomials
are plain {exponent-tuple: raw} dicts, multiplication is its own loop, and
ranks come from a local Gaussian elimination (numpy-accelerated for prime
fields, pure Python otherwise).  Field raw arithmetic is shared with the
package since both sides need the same coefficients.

macaulay_colength: counts monomials of degree < B minus the rank of the
matrix whose rows are all multiples m*g_i of degree < B, where
B = 1 + sum of the per-variable staircase bounds.

bracket_colength_hypersurface: for a principal g plus pure powers
(x_i^q), the quotient dimension is q^n minus the rank of multiplication
by g on the monomial box below (q, ..., q).

graded_hypersurface_colength: the same length for a homogeneous g, one
degree at a time (Macaulay 1916; Lazard, EUROCAL 1983): the sum over d of
dim A_d - rank(g: A_(d - deg g) -> A_d), A = k[x]/(x_1^q, ..., x_n^q).
Each map is split into the blocks of rows that share columns (for the
Monsky quartics (a - b) mod 3 is such a grading), and only degrees up to
the middle are eliminated: with s = n(q - 1), monomials m and
(x_1...x_n)^(q-1)/m pair A_i with A_(s-i), and in these dual bases the
map of degree s + deg g - d is the transpose of the map of degree d.
Its cost grows like q^4, so it serves tests with q up to about 64.

matrix_rank and mat_mul: rank by a local elimination, and the product
of two matrices of raw field elements, for the linear-algebra checks.

_count_standard with _minimalize: the package's former staircase count,
kept verbatim as the reference for the slice count that replaced it.  It
splits on a pivot variable, len(R/I) = len(R/(I + (x))) + len(R/(I : x)),
and its recursion depth grows with the exponents, so keep inputs small.

classic_buchberger: the package's former Buchberger loop, kept verbatim as
the reference for the Gebauer-Moller loop that replaced it.  Pairs are
taken by the normal strategy and skipped by the product criterion or by a
chain scan over every basis element against the set of treated pairs; the
reducer decodes each popped term to packed exponents (through a per-call
cache) and never truncates to a box.  It shares only the ring encoding,
the coefficient arithmetic and the GroebnerBasis container with the code
under test; the container reads its elements, already reduced, through
its tail pass, which finds no tail to reduce and leaves them as they are.

reduce_by_positions: a plain normal form that scans every item for a
divisor of the term's own z-exponent, the reference for the reducer's
per-position lists and for the terms it keeps out of its heap.

gm_update_full_scan: the pair update that forms a candidate with every
active element, kept verbatim as the reference for the staircase
neighbours of a three-variable run by positions.

rsig_rows_per_vector: the package's former rsig_search loop, the
reference for the search that shares one Hilbert-Kunz function per orbit
of candidates under scaling, the grading torus and Frobenius.  It runs
one hk_function per candidate vector and shares the socle, the grid, the
candidate vectors and the estimates with the code under test.

hs_lengths_by_powers: Hilbert-Samuel lengths with one basis per n, the
colength of classic_buchberger(defining + I^n) by the pivot split, I^n
formed by its own product loop.  It shares neither the defining ideal's
basis nor the slice count with hs_function.
"""

import heapq
from itertools import combinations, combinations_with_replacement, product

from hklab.coeff import Field, PrimeField
from hklab.errors import ValidationError
from hklab.groebner import GroebnerBasis
from hklab.multiplicity import (
    RSigResult,
    RSigRow,
    _candidate_vectors,
    _grid_default,
    hk_estimate,
    hk_function,
    socle_basis,
)
from hklab.polyring import IdealPresentation, Polynomial


def poly_dict(ring, f):
    """Convert a package Polynomial to the oracle's raw-dict form."""
    return {ring.decode(k): c for k, c in f._terms}


def total_degree(g: dict) -> int:
    return max(sum(e) for e in g)


def monomials_below(nvars: int, max_deg: int):
    """All exponent tuples with total degree <= max_deg, fixed order."""
    if nvars == 0:
        return [()]
    out = []

    def rec(prefix, remaining, left):
        if remaining == 1:
            out.append(prefix + (left,))
            return
        for e in range(left + 1):
            rec(prefix + (e,), remaining - 1, left - e)

    for d in range(max_deg + 1):  # rec(d) yields all tuples summing to exactly d
        rec((), nvars, d)
    return out


def _rank_prime_numpy(rows, p):
    """Rank over F_p of a list of rows or an int array (entries below p
    after reduction).  Each pivot clears the rows below it with a nonzero
    in its column, from that column on: they are zero to its left."""
    import numpy as np

    if len(rows) == 0:
        return 0
    A = np.array(rows, dtype=np.int64) % p
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        nonzero = np.flatnonzero(A[r:, c])
        if nonzero.size == 0:
            continue
        i = r + int(nonzero[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        below = r + nonzero[1:]  # rows other than the pivot's, unmoved by the swap
        if below.size:
            A[below, c:] = (A[below, c:] * A[r, c] - np.outer(A[below, c], A[r, c:])) % p
        r += 1
        if r == nrows:
            break
    return r


def _rank_generic(rows, field):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if not field.is_zero(f):
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def matrix_rank(rows, field):
    if isinstance(field, PrimeField):
        return _rank_prime_numpy(rows, field.p)
    return _rank_generic(rows, field)


def mat_mul(field, A, B):
    """Product of two matrices of raw field elements."""
    out = []
    for row in A:
        new = [field.zero] * len(B[0])
        for a, brow in zip(row, B):
            for j, b in enumerate(brow):
                new[j] = field.add(new[j], field.mul(a, b))
        out.append(new)
    return out


def macaulay_colength(field, nvars: int, gens, bounds) -> int:
    """Colength via the truncated Macaulay matrix (see module docstring)."""
    B = 1 + sum(bounds)
    cols = monomials_below(nvars, B - 1)
    col_index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in gens:
        dg = total_degree(g)
        for m in monomials_below(nvars, B - 1 - dg):
            row = [field.zero] * len(cols)
            for e, c in g.items():
                shifted = tuple(a + b for a, b in zip(e, m))
                row[col_index[shifted]] = field.add(row[col_index[shifted]], c)
            rows.append(row)
    return len(cols) - matrix_rank(rows, field)


def bracket_colength_hypersurface(field, nvars: int, g: dict, q: int) -> int:
    """Colength of (g) + (x_1^q, ..., x_n^q) as q^n minus the rank of
    multiplication by g on the truncated monomial box."""
    box = list(product(range(q), repeat=nvars))
    index = {m: i for i, m in enumerate(box)}
    rows = []
    for m in box:
        row = [field.zero] * len(box)
        hit = False
        for e, c in g.items():
            shifted = tuple(a + b for a, b in zip(e, m))
            if all(v < q for v in shifted):
                j = index[shifted]
                row[j] = field.add(row[j], c)
                hit = True
        if hit:
            rows.append(row)
    return q**nvars - matrix_rank(rows, field)


def graded_hypersurface_colength(field, g: dict, q: int) -> int:
    """Length of k[x_1..x_n]/((g) + (x_1^q, ..., x_n^q)) for a nonzero
    homogeneous g in raw-dict form, by graded Macaulay matrices (see the
    module docstring)."""
    n = len(next(iter(g)))
    deg = total_degree(g)
    top = n * (q - 1)  # the degree of the socle monomial of A
    basis = {}
    for m in product(range(q), repeat=n):
        basis.setdefault(sum(m), []).append(m)
    ranks = {}
    for d in range(deg, (top + deg) // 2 + 1):
        index = {m: j for j, m in enumerate(basis[d])}
        rows = []  # {column: raw} of g * m for each m of degree d - deg
        for m in basis.get(d - deg, ()):
            row = {}
            for e, c in g.items():
                j = index.get(tuple(a + b for a, b in zip(e, m)))
                if j is not None:
                    row[j] = field.add(row.get(j, field.zero), c)
            rows.append({j: c for j, c in row.items() if not field.is_zero(c)})
        ranks[d] = ranks[top + deg - d] = _block_rank(field, rows, len(index))
    return sum(len(basis[d]) - ranks.get(d, 0) for d in basis)


def _block_rank(field, rows, ncols):
    """Rank of the sparse rows ({column: raw}), as the sum of the ranks of
    the blocks of rows that share columns, found by union-find."""
    parent = list(range(ncols))

    def root(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in rows:
        cols = list(row)
        for j in cols[1:]:
            parent[root(j)] = root(cols[0])
    blocks = {}
    for row in rows:
        if row:
            blocks.setdefault(root(next(iter(row))), []).append(row)
    rank = 0
    for block in blocks.values():
        cols = {j: k for k, j in enumerate(sorted({j for row in block for j in row}))}
        if isinstance(field, PrimeField):
            import numpy as np

            dense = np.zeros((len(block), len(cols)), dtype=np.int64)
        else:
            dense = [[field.zero] * len(cols) for _ in block]
        for i, row in enumerate(block):
            for j, c in row.items():
                dense[i][cols[j]] = c
        rank += matrix_rank(dense, field)
    return rank


def _minimalize(exp_vectors):
    """Minimal generators of the monomial ideal given by exponent vectors."""
    vecs = sorted(set(exp_vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vecs:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return kept


def _count_standard(gens, memo):
    """Standard-monomial count below a monomial ideal with finite colength.

    Classic splitting on a pivot variable:
        len(R/I) = len(R/(I + (x))) + len(R/(I : x)).
    Generators must be minimal; recursion keeps them so.
    """
    cached = memo.get(gens)
    if cached is not None:
        return cached
    n = len(gens[0]) if gens else 0
    pures = [None] * n
    mixed = []
    for g in gens:
        support = [i for i, e in enumerate(g) if e]
        if not support:
            memo[gens] = 0
            return 0  # unit ideal
        if len(support) == 1:
            i = support[0]
            if pures[i] is None or g[i] < pures[i]:
                pures[i] = g[i]
        else:
            mixed.append(g)
    if not mixed:
        result = 1
        for b in pures:
            result *= b  # finite colength guarantees every b is set
        memo[gens] = result
        return result
    # pivot: variable hitting the most mixed generators, lowest index on ties
    counts = [0] * n
    for g in mixed:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    pivot = max(range(n), key=lambda i: (counts[i], -i))
    unit_v = tuple(1 if i == pivot else 0 for i in range(n))
    without = [g for g in gens if g[pivot] == 0] + [unit_v]
    quotient = [tuple(e - 1 if i == pivot else e for i, e in enumerate(g)) if g[pivot] else g
                for g in gens]
    a = _count_standard(tuple(sorted(_minimalize(without))), memo)
    b = _count_standard(tuple(sorted(_minimalize(quotient))), memo)
    memo[gens] = a + b
    return a + b


def pivot_split_colength(exp_vectors) -> int:
    """Colength of the finite-colength monomial ideal spanned by any
    exponent vectors, by the kept pivot split."""
    return _count_standard(tuple(sorted(_minimalize(exp_vectors))), {})


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


def classic_buchberger(I):
    """Reduced Groebner basis of the ideal generated by I, by the kept
    classical pair loop (see module docstring)."""
    ring = I.ring
    if not isinstance(ring.domain, Field):
        raise ValidationError("Groebner bases require field coefficients")
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
    return GroebnerBasis(ring, _reduce_tails(ring, kept, packed_cache, guard))


def _reduce_tails(ring, kept, packed_cache, guard):
    """The elements of a minimal basis, given as items ascending by lead,
    with each tail reduced by the elements before it: the reduced basis."""
    reduced_items: list[_Item] = []
    elements = []
    for it in kept:  # smaller leads are already final
        tail = _reduce_terms(it.tail, reduced_items, ring, packed_cache, guard)
        final = _Item(it.key, it.exps, it.packed, tail)
        reduced_items.append(final)
        elements.append(Polynomial(ring, ((it.key, ring.domain.one),) + tail))
    return tuple(elements)


def reduce_by_positions(terms, items, ring, z, bounds):
    """Normal form of the {key: raw} dict `terms` by monic `items`, given
    as (lead exponents, ((key, raw), ...) tail) in scan order: the largest
    term left is reduced by the first item whose lead divides it and has
    its exponent of variable z.  A term with an exponent at or above its
    variable's bound in `bounds` is dropped, and so is one a step creates
    there.  Returns the remainder as descending (key, raw) pairs, the
    steps and the drops."""
    dom = ring.domain

    def outside(key):
        exps = ring.decode(key)
        return any(exps[i] >= b for i, b in bounds.items())

    work = {k: c for k, c in terms.items() if not outside(k)}
    drops = len(terms) - len(work)
    steps = 0
    out = []
    while work:
        k = max(work)
        c = work.pop(k)
        if dom.is_zero(c):
            continue
        exps = ring.decode(k)
        for lead, tail in items:
            if lead[z] == exps[z] and all(a <= b for a, b in zip(lead, exps)):
                steps += 1
                shift = k - ring.encode(lead)
                for k2, c2 in tail:
                    kk = k2 + shift
                    if kk in work:
                        work[kk] = dom.sub(work[kk], dom.mul(c, c2))
                    elif outside(kk):
                        drops += 1
                    else:
                        work[kk] = dom.neg(dom.mul(c, c2))
                break
        else:
            out.append((k, c))
    return tuple(out), steps, drops


def gm_update_full_scan(items, active, pairs, h, ring, tally, zfield=0):
    """The Gebauer-Moller update as it was before staircase neighbours,
    kept verbatim as their reference: every active element is a candidate
    for a new pair with items[h], and `active` is the list of indices."""
    guard = ring.guard
    exp_mask = ring.exp_mask
    lcm = ring.lcm_fields
    hk = items[h].key
    # new pairs by ascending lcm exponent fields: a proper divisor comes
    # first, and among equal lcms a coprime pair, which then removes the others
    cands = []
    for g in active:
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
    active = [g for g in active if ((items[g].key | guard) - hk) & guard != guard]
    active.append(h)
    return active, pairs


def hs_lengths_by_powers(R, I, n_max):
    """Length of R.ring/(defining + I^n) for n = 1..n_max, one basis per n
    (see module docstring)."""
    lengths = []
    for n in range(1, n_max + 1):
        power = []
        for combo in combinations_with_replacement(I.generators, n):
            prod = R.ring.one
            for g in combo:
                prod = prod * g
            power.append(prod)
        gb = classic_buchberger(IdealPresentation(R.ring, R.defining + tuple(power)))
        lengths.append(pivot_split_colength(gb.leading_exponents()))
    return lengths


def rsig_rows_per_vector(R, x, coefficient_grid=None, e_max=2):
    """rsig_search with one Hilbert-Kunz function per candidate vector
    (see module docstring)."""
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

    def evaluate(vec):
        u = R.ring.zero
        for c, s in zip(vec, socle):
            u = u + s * c
        xu = IdealPresentation(R.ring, tuple(x.generators) + (u,))
        est = hk_estimate(hk_function(R, xu, e_max))
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


def random_zero_dim_ideals(seed: int, count: int):
    """Deterministic corpus of zero-dimensional ideals for oracle tests.

    Yields (field, ring, ideal, groebner_basis) for ideals over F_2/F_3 in
    2..3 variables with generator degrees <= 4, keeping only instances
    whose colength is finite.  Generators are homogeneous forms: for
    graded ideals the degree-(< B) multiples of the generators span the
    whole truncated ideal, which is exactly the regime where the fixed
    truncation bound B of macaulay_colength is provably exact.  (For
    inhomogeneous generators that bound undercounts the ideal: low-degree
    elements can require degree-cancelling combinations with multipliers
    beyond the truncation.)
    """
    import random

    from hklab.coeff import PrimeField
    from hklab.groebner import INFINITE, buchberger
    from hklab.polyring import IdealPresentation, PolynomialRing

    rng = random.Random(seed)
    fields = [PrimeField(2), PrimeField(3)]
    produced = 0
    while produced < count:
        field = fields[rng.randrange(2)]
        nvars = rng.choice((2, 3))
        ring = PolynomialRing(field, tuple("xyz"[:nvars]))
        gens = []
        for _ in range(nvars + rng.randrange(2)):
            degree = rng.randrange(2, 5)
            terms = []
            for e in monomials_below(nvars, degree):
                if sum(e) == degree and rng.random() < 0.45:
                    terms.append((ring.encode(e), rng.randrange(1, field.p)))
            if terms:
                gens.append(ring.polynomial(terms))
        if len(gens) < nvars:
            continue
        ideal = IdealPresentation(ring, gens)
        gb = buchberger(ideal)
        if gb.colength() is INFINITE:
            continue
        produced += 1
        yield field, ring, ideal, gb

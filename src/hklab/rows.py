"""Dense byte rows: the elements of a run by positions in three variables
over F_p, p <= 127, when every generator is homogeneous (see groebner).

Let z lead a degrevlex priority (z, u, v), let f = z^d + ... be
homogeneous, and let the box bound u by q_u and v by q_v.  A homogeneous
element of degree D of the free k[u, v]-module S/(f) is one Python int,
its row, whose byte (a + j)*d + j holds the coefficient of
u^a v^(D-j-a) z^j (j < d).  That index is (D - b)*d + j for the exponent
b of v, so byte order is the term order within a degree and the lead is
the top nonzero byte.  Multiplying by u^s v^t shifts a row by 8*d*s bits
and by z moves byte i to i + d + 1.  Each step of the kernel is a few
C-level calls on the (D + 1)*d bytes of a row:

- x - c*y is x + from_bytes(y.to_bytes().translate(NEG[c])), then a
  translate by MOD; two residues sum to at most 252, so no byte carries;
- the box at degree D is a byte mask; box drops are the nonzero bytes
  it removes, counted with bytes.count(0);
- the next reducible term is the top bit of translate(NZ) AND the
  reducible mask: the bytes [a', D - j - b'] at stride d for the lead
  u^a' v^b' z^j of every reducer of degree <= D.  Pairs come by
  nondecreasing degree (the normal strategy in a degree order), so the
  mask is kept as one int and moving up a degree is m |= m << 8*d; a
  reducer joins it when D reaches its own degree;
- multiplying by z folds the top position back through the tail of f:
  z * u^a v^b z^(d-1) = -u^a v^b * (f - z^d), one shifted translate of
  the top bytes per tail term of f, whatever their number.

The reducer of a term is the first lead of its position, in list order,
that divides it, and the terms go largest first, as in groebner's sparse
reducer; so every element, counter and basis is the sparse run's.  The
inputs z^i * g reduced by f come by Horner's rule in z: the normal form
of g is its terms of z-degree >= J - d + 1 (J the largest), folded once
per lower z-degree with the terms of that degree added.  Each fold
reduces the top terms by f once each, and the quotient terms of
different folds differ in their z-degree, so the f-steps are those of
the sparse reducer: the quotient by f is unique (modulo the box too).
"""

from __future__ import annotations

import heapq
from functools import cache
from itertools import count

from .polyring import EXP_BITS, FIELD_MASK

MAX_PRIME = 127  # the largest p whose residues add without a byte carry
LE = "little"


@cache
def tables(p):
    """(NEG, MUL, MOD, NZ, INV) for F_p, built once per prime: NEG[c] and
    MUL[c] translate a row's bytes y to -c*y and c*y mod p, MOD reduces a
    byte mod p, NZ maps a nonzero byte to 1, INV[c] is 1/c."""
    mul = [bytes(c * y % p for y in range(256)) for c in range(p)]
    neg = [mul[-c % p] for c in range(p)]
    mod = bytes(y % p for y in range(256))
    nz = bytes(map(bool, range(256)))
    inv = [0] + [pow(c, p - 2, p) for c in range(1, p)]
    return neg, mul, mod, nz, inv


class Layout:
    """Byte index and key of the terms of a row: d positions, and the keys
    wu, wv, wz of u, v and z."""

    __slots__ = ("d", "wu", "wv", "wz")

    def __init__(self, d, wu, wv, wz):
        self.d, self.wu, self.wv, self.wz = d, wu, wv, wz

    def key(self, i, D):
        """The key of the term at byte i of a row of degree D."""
        d = self.d
        j = i % d
        a = i // d - j
        return a * self.wu + (D - j - a) * self.wv + j * self.wz

    def flat_tail(self, row, D):
        """The terms of a row below its lead, flat as groebner's tails:
        key, raw, key, raw, ..., descending."""
        data = row.to_bytes((D + 1) * self.d, LE)
        out = []
        for i in range((row.bit_length() - 1 >> 3) - 1, -1, -1):
            if data[i]:
                out += self.key(i, D), data[i]
        return tuple(out)


class RowItem:
    """One monic element of a run by rows: its lead key and exponents, as
    groebner's _Item, its row of degree `deg` with `size` nonzero bytes,
    and the flat tail of _Item, made from the row when first read."""

    __slots__ = ("key", "exps", "row", "deg", "size", "layout", "_tail")

    def __init__(self, key, exps, row, deg, size, layout):
        self.key, self.exps, self.row, self.deg, self.size = key, exps, row, deg, size
        self.layout = layout
        self._tail = None

    @property
    def monomial(self):
        return self.size == 1

    @property
    def tail(self):
        if self._tail is None:
            self._tail = self.layout.flat_tail(self.row, self.deg)
        return self._tail


class RowKernel:
    """The S-pairs, the reducer and the items of a run by rows.

    `f` is the monic item of f, `bounds` (q_u, q_v), `reducers` the
    run's reducer lists by position (keyed by the z-field of the lead,
    read in list order) and `tally` its [reduction steps, box drops]."""

    def __init__(self, ring, f, bounds, reducers, tally):
        z, u, v = ring.order.resolved_priority(3)
        self.uvz = (u, v, z)
        self.shifts = (EXP_BITS * u, EXP_BITS * v, EXP_BITS * z)
        self.ushift = self.shifts[0]
        self.zunit = 1 << EXP_BITS * z
        d = f.exps[z]
        self.layout = Layout(d, *(ring.encode([int(i == w) for i in range(3)]) for w in (u, v, z)))
        self.neg, self.mul, self.mod, self.nz, self.inv = tables(ring.domain.characteristic)
        self.qu, self.qv = bounds
        # a top term u^a v^b z^(d-1) of degree D, times z, becomes the term
        # u^(a+a') v^(b+b') z^j' of each tail term of f: its byte moves by
        # (a' + j' + 1 - d)*d + j' + 1 - d
        self.ftail = []
        for k, c in zip(f.tail[::2], f.tail[1::2]):
            a, _, j = self.exponents(k)
            self.ftail.append((c, (a + j + 1 - d) * d + j + 1 - d))
        self.reducers, self.tally, self.guard = reducers, tally, ring.guard
        self.one = b"\x01" + bytes(d - 1)  # one byte of a strided run, d bytes apart
        self.ubox = sum(self._run(self.qu, 255) << 8 * j * (d + 1) for j in range(d))
        self.vbox = (1 << 8 * self.qv * d) - 1
        self.top = 0
        self.mask, self.cur, self.pending, self.seq = 0, 0, [], count()
        self.D = 0  # the degree of the pair being reduced
        self._box = (None, 0)

    def exponents(self, key):
        """The exponents (a, b, j) of u, v and z in a key."""
        us, vs, zs = self.shifts
        return key >> us & FIELD_MASK, key >> vs & FIELD_MASK, key >> zs & FIELD_MASK

    def _run(self, n, byte=1):
        """n bytes `byte`, d bytes apart, from byte 0."""
        return int.from_bytes(self.one * n, LE) * byte

    def box(self, D):
        """0xff at the bytes of the box at degree D: a < q_u, a mask of
        every degree, and v's exponent D - i//d below q_v, the top q_v*d
        bytes.  Bytes with a < 0 hold no term, so either mask may cover
        them."""
        if self._box[0] != D:
            self._box = (D, self.ubox & self.vbox << 8 * max(D + 1 - self.qv, 0) * self.layout.d)
        return self._box[1]

    def _add(self, x, y, n):
        return int.from_bytes((x + y).to_bytes(n, LE).translate(self.mod), LE)

    def _reducible(self, D):
        """The reducible mask at degree D >= every degree asked before."""
        m, shift = self.mask, 8 * self.layout.d
        for _ in range(self.cur, D):
            m |= m << shift
        self.mask, self.cur = m, D
        while self.pending and self.pending[0][0] <= D:
            self._join(heapq.heappop(self.pending)[2])
        return self.mask

    def _join(self, it):
        # the lead's byte at its own degree, run up to the current one
        n = self.cur - it.deg + 1
        self.mask |= (self._run(n) if n > 1 else 1) << (it.row.bit_length() - 1 & ~7)

    def item(self, x, D=None):
        """The monic RowItem of the nonzero row x of degree D (by default
        that of the pair last formed); it joins the reducible mask."""
        D = self.D if D is None else D
        n = (D + 1) * self.layout.d
        data = x.to_bytes(n, LE)
        i = x.bit_length() - 1 >> 3
        if data[i] != 1:
            data = data.translate(self.mul[self.inv[data[i]]])
            x = int.from_bytes(data, LE)
        d = self.layout.d
        j = i % d
        a = i // d - j
        exps = [0, 0, 0]
        u, v, z = self.uvz
        exps[u], exps[v], exps[z] = a, D - j - a, j
        it = RowItem(self.layout.key(i, D), tuple(exps), x, D, n - data.count(0), self.layout)
        if D <= self.cur:
            self._join(it)
        else:
            heapq.heappush(self.pending, (D, next(self.seq), it))
        return it

    def spair(self, f, g, lcm_key):
        """The S-polynomial of two items of one position with the given
        lcm, cut by the box (its drops tallied), as a row of the lcm's
        degree, which becomes the current degree."""
        a, b, j = self.exponents(lcm_key)
        D = self.D = a + b + j
        n = (D + 1) * self.layout.d
        shift, ushift = 8 * self.layout.d, self.ushift
        x = f.row << shift * (a - (f.key >> ushift & FIELD_MASK))
        y = g.row << shift * (a - (g.key >> ushift & FIELD_MASK))
        data = (x + int.from_bytes(y.to_bytes(n, LE).translate(self.neg[1]), LE)).to_bytes(n, LE)
        data = data.translate(self.mod)
        kept = int.from_bytes(data, LE) & self.box(D)
        self.tally[1] += kept.to_bytes(n, LE).count(0) - data.count(0)
        return kept

    def reduce(self, x):
        """Full normal form of the row x of the current degree, cut by the
        box: the largest reducible term first, by the first lead of its
        position in list order that divides it.  Returns the row, 0 when
        it reduces to zero, and tallies the steps and drops."""
        D, lay = self.D, self.layout
        d, wu, wv, wz = lay.d, lay.wu, lay.wv, lay.wz
        n = (D + 1) * d
        m = self._reducible(D)
        box = self.box(D)
        neg, mod, nz, reducers, zunit = self.neg, self.mod, self.nz, self.reducers, self.zunit
        guard, ushift, shift = self.guard, self.ushift, 8 * d
        steps = dropped = 0
        data = x.to_bytes(n, LE)
        while True:
            r = int.from_bytes(data.translate(nz), LE) & m
            if not r:
                break
            i = r.bit_length() - 1 >> 3
            j = i % d
            a = i // d - j
            vk = (a * wu + (D - j - a) * wv + j * wz) | guard
            for it in reducers[j * zunit]:
                if (vk - it.key) & guard == guard:
                    break
            steps += 1
            y = ((it.row << shift * (a - (it.key >> ushift & FIELD_MASK))) & box).to_bytes(n, LE)
            dropped += it.size - n + y.count(0)
            x = int.from_bytes(data, LE) + int.from_bytes(y.translate(neg[data[i]]), LE)
            data = x.to_bytes(n, LE).translate(mod)
        self.tally[0] += steps
        self.tally[1] += dropped
        return int.from_bytes(data, LE)

    def _fold(self, x, D, cut):
        """NF(z * x) by f for the row x of degree D, a row of degree D + 1,
        cut by the box when `cut`; each nonzero top term is one step."""
        d = self.layout.d
        n = (D + 2) * d
        if self.top.bit_length() < 8 * n:  # 0xff at position d - 1, bytes i = d - 1 mod d
            self.top = self._run(2 * n // d, 255) << 8 * (d - 1)
        top = x & self.top
        x = (x ^ top) << 8 * (d + 1)
        if top:
            data = top.to_bytes(n, LE)
            size = n - data.count(0)
            self.tally[0] += size
            box = self.box(D + 1) if cut else -1
            for c, s in self.ftail:
                y = int.from_bytes(data.translate(self.neg[c]), LE)
                y = (y << 8 * s if s >= 0 else y >> -8 * s) & box
                if cut:
                    self.tally[1] += size - n + y.to_bytes(n, LE).count(0)
                x = self._add(x, y, n)
        return x

    def _row(self, terms):
        """The row of (a, b, j, c) terms of one degree."""
        d = self.layout.d
        return sum(c << 8 * ((a + j) * d + j) for a, _, j, c in terms)

    def inputs(self, gens):
        """The items z^i * g reduced by f, i < d, for the monic items
        `gens`, each made from the last, as groebner's sparse inputs; the
        box cuts those of a g whose lead lies in it."""
        d = self.layout.d
        items = []
        for g in gens:
            terms = [(*self.exponents(k), c) for k, c in zip((g.key,) + g.tail[::2],
                                                          (1,) + g.tail[1::2])]
            a, b, _, _ = terms[0]
            cut = a < self.qu and b < self.qv
            if cut:
                kept = [t for t in terms if t[0] < self.qu and t[1] < self.qv]
                self.tally[1] += len(terms) - len(kept)
                terms = kept
            # Horner in z: the terms of z-degree >= K, shifted down by z^K,
            # then one fold per lower z-degree with its terms added
            K = max(max(t[2] for t in terms) - d + 1, 0)
            D = sum(terms[0][:3]) - K
            x = self._row([(a, b, j - K, c) for a, b, j, c in terms if j >= K])
            for k in range(K - 1, -1, -1):
                x = self._fold(x, D, cut)
                D += 1
                low = [(a, b, 0, c) for a, b, j, c in terms if j == k]
                if low:
                    x = self._add(x, self._row(low), (D + 1) * d)
            for i in range(d):
                if i:
                    x = self._fold(x, D, cut)
                    D += 1
                if not x:
                    break
                items.append(self.item(x, D))
        return items

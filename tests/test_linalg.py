"""Dense linear algebra over a field: determinant, rref, kernel; and the
integer kernel."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hklab import PrimeField, linalg, make_extension

from .oracles import mat_mul, matrix_rank

FIELDS = [PrimeField(5), PrimeField(7), make_extension(2, 2), make_extension(2, 4)]


def matrices(field, rows, cols):
    pool = list(field.elements())
    entry = st.sampled_from(pool)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def squares(field, count):
    """`count` square matrices of one random size up to 4."""
    return st.integers(0, 4).flatmap(lambda n: st.tuples(*[matrices(field, n, n)] * count))


def wide_or_tall(field):
    return st.tuples(st.integers(0, 6), st.integers(1, 7)).flatmap(
        lambda shape: st.tuples(matrices(field, *shape), st.just(shape[1])))


def leibniz(field, A):
    """The determinant as the signed sum over permutations."""
    total = field.zero
    for perm in permutations(range(len(A))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = field.one if inversions % 2 == 0 else field.neg(field.one)
        for i, j in enumerate(perm):
            term = field.mul(term, A[i][j])
        total = field.add(total, term)
    return total


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_is_multiplicative_and_matches_leibniz(field):
    @settings(max_examples=120, deadline=None)
    @given(squares(field, 2))
    def check(pair):
        A, B = pair
        assert linalg.det(field, mat_mul(field, A, B)) == field.mul(
            linalg.det(field, A), linalg.det(field, B))
        assert linalg.det(field, A) == leibniz(field, A)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_vanishes_exactly_below_full_rank(field):
    @settings(max_examples=120, deadline=None)
    @given(squares(field, 1))
    def check(single):
        (A,) = single
        # a repeated row makes singular matrices common
        for M in (A, A[:-1] + A[:1] if len(A) > 1 else A):
            _, pivots = linalg.rref(field, M)
            assert field.is_zero(linalg.det(field, M)) == (len(pivots) < len(M))

    check()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_pivot_columns_are_unit_vectors_and_kernel_is_killed(field):
    @settings(max_examples=120, deadline=None)
    @given(wide_or_tall(field))
    def check(case):
        M, ncols = case
        reduced, pivots = linalg.rref(field, M)
        assert len(pivots) == matrix_rank(M, field)
        assert pivots == sorted(pivots)
        for r, c in enumerate(pivots):
            column = [row[c] for row in reduced]
            assert column == [field.one if i == r else field.zero for i in range(len(reduced))]
        assert all(field.is_zero(v) for row in reduced[len(pivots):] for v in row)
        kernel = linalg.kernel_basis(field, M, ncols)
        assert len(kernel) == ncols - len(pivots)
        for vec in kernel:
            assert all(field.is_zero(v) for (v,) in mat_mul(field, M, [[x] for x in vec]))

    check()


def rational_coordinates(basis, v):
    """The coordinates of v over the vectors `basis`, which must be
    independent over Q, as Fractions; None when v is not in their span."""
    k = len(basis)
    rows = [[Fraction(b[j]) for b in basis] + [Fraction(v[j])] for j in range(len(v))]
    for c in range(k):
        p = next(i for i in range(c, len(rows)) if rows[i][c])  # StopIteration: dependent
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for i in range(len(rows)):
            if i != c and (f := rows[i][c]):
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return [row[k] for row in rows[:k]]


def integer_rows():
    """Up to three rows of small integers, all of one length 1..4, and that length."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=3), st.just(n)))


@settings(max_examples=80, deadline=None)
@given(integer_rows())
# the rational basis (-1/2, 1, 0), (-1/2, 0, 1) cleared of denominators spans
# a sublattice of index 2 that misses (0, 1, -1)
@example(([[2, 1, 1]], 3))
def test_integer_kernel_is_a_saturated_basis(case):
    rows, n = case
    basis = linalg.integer_kernel(rows, n)
    for a in basis:
        assert all(sum(r * x for r, x in zip(row, a)) == 0 for row in rows)
    rational_coordinates(basis, (0,) * n)  # raises unless the basis is independent
    for v in product(range(-3, 4), repeat=n):
        if all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows):
            coords = rational_coordinates(basis, v)
            assert coords is not None and all(c.denominator == 1 for c in coords), v

"""Tests for exact rational matrices and the derived linear algebra."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg._intops import to_object
from terwalg.graphs import DistanceData, hypercube
from terwalg.linalg import (
    RationalMatrix,
    inverse,
    kernel_basis,
    min_poly,
    rank,
    rref,
)
from terwalg.polys import RationalPoly

from dense_views import distance_matrix, matrix_min_poly, poly_eval_matrix


def test_canonical_form():
    m = RationalMatrix(np.array([[2, 4], [6, 8]]), 10)
    assert m.den == 5
    assert m[0, 0] == Fraction(1, 5)
    neg = RationalMatrix(np.array([[1, 0], [0, 1]]), -2)
    assert neg.den == 2
    assert neg[0, 0] == Fraction(-1, 2)


def test_matrix_is_not_iterable_and_takes_only_pair_indices():
    m = RationalMatrix.from_rows([[Fraction(1, 2), 1], [0, 3]])
    for read in (list, iter, tuple, lambda m: [row for row in m]):
        with pytest.raises(TypeError, match="not iterable"):
            read(m)
    for key in (0, (0,), slice(None), (0, 1, 0)):
        with pytest.raises(TypeError, match=r"indexed by \(i, j\)"):
            m[key]
    assert m[1, 1] == 3 and m.dense_rows()[0] == [Fraction(1, 2), 1]


def test_narrow_numerators_are_held_as_int64():
    # A narrow array, such as a stored echelon row, is widened on the way
    # in, so negation and scaling cannot wrap in its dtype.
    for canonical in (False, True):
        m = RationalMatrix(np.array([[-128, 127]], dtype=np.int8), 1, _canonical=canonical)
        assert m.num.dtype == np.int64
        assert (-m).num.tolist() == [[128, -127]]
        assert (m * 3).num.tolist() == [[-384, 381]]


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalMatrix(np.eye(2, dtype=np.int64), 0)


def test_float_numerators_rejected():
    with pytest.raises(TypeError):
        RationalMatrix(np.array([[1.5]]))


def test_immutability():
    m = RationalMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.den = 3
    with pytest.raises(ValueError):
        m.num[0, 0] = 5


def test_from_rows_clears_denominators():
    m = RationalMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
    assert m.den == 6
    assert m[0, 0] == Fraction(1, 2)
    assert m[1, 1] == Fraction(1, 3)
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])


def _from_rows_by_fraction_products(rows):
    """Reference: every entry made a Fraction and multiplied by the common
    denominator."""
    data = [[Fraction(v) for v in row] for row in rows]
    den = 1
    for row in data:
        for v in row:
            den = lcm(den, v.denominator)
    num = [[int(v * den) for v in row] for row in data]
    return RationalMatrix(np.array(num, dtype=object), den)


_big = st.integers(min_value=-(2**70), max_value=2**70)
_entries = st.one_of(
    st.just(0),
    _big,
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
    st.builds(Fraction, _big, st.integers(min_value=1, max_value=2**70)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda w: st.lists(
            st.one_of(st.lists(_entries, min_size=w, max_size=w), st.just([0] * w)),
            min_size=1,
            max_size=4,
        )
    )
)
def test_from_rows_matches_fraction_products(rows):
    # Mixed ints, numpy ints and Fractions, negative entries, denominators
    # past 2**63 and zero rows.  The reference reads numpy ints as Python
    # ints: a Fraction of a numpy int keeps a numpy numerator, whose product
    # with a common denominator wraps at 2**63.
    got = RationalMatrix.from_rows(rows)
    want = _from_rows_by_fraction_products(
        [[int(v) if isinstance(v, np.integer) else v for v in row] for row in rows]
    )
    assert got.den == want.den
    assert got.num.dtype == want.num.dtype
    assert got.num.tolist() == want.num.tolist()


def test_from_rows_numpy_integers_do_not_wrap():
    m = RationalMatrix.from_rows([[np.int64(5), Fraction(1, 2**61 + 1)]])
    assert m.den == 2**61 + 1
    assert m.num.tolist() == [[5 * (2**61 + 1), 1]]
    assert m[0, 0] == 5


def test_from_rows_rejects_empty_and_ragged_input():
    with pytest.raises(ValueError, match="at least one row"):
        RationalMatrix.from_rows([])
    with pytest.raises(ValueError, match="ragged"):
        RationalMatrix.from_rows([[Fraction(1, 2), np.int64(1)], [3]])
    with pytest.raises(ValueError, match="ragged"):
        RationalMatrix.from_rows([[], [1]])


def test_diagonal_and_entries():
    m = RationalMatrix(np.diag([2, -1]), 2)
    assert m.dense_rows() == [[1, 0], [0, Fraction(-1, 2)]]
    assert m.transpose() == m


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([0, 3, -7, 0], np.int64),
        ([Fraction(1, 2), Fraction(-2, 3), 4, 0], np.int64),
        ([6, 4, 10], np.int64),  # gcd 2 with denominator 1: nothing cancels
        ([Fraction(2, 4), Fraction(6, 8)], np.int64),
        ([2**62 - 1, -(2**62 - 1)], np.int64),
        ([2**64 + 1, 3, Fraction(1, 3)], object),
        ([-(2**70), Fraction(5, 7)], object),
        ([], np.int64),
    ],
)
def test_diagonal_matches_from_rows(values, dtype):
    n = len(values)
    den = lcm(1, *(Fraction(v).denominator for v in values))
    nums = np.array([int(Fraction(v) * den) for v in values], dtype=object)
    m = RationalMatrix(np.diag(nums).reshape(n, n), den)
    assert m.num.dtype == dtype
    assert m.shape == (n, n)
    if n:
        rows = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert m == RationalMatrix.from_rows(rows)


def test_arithmetic():
    i2 = RationalMatrix.identity(2)
    j2 = RationalMatrix.ones(2, 2)
    assert i2 + i2 == i2 * 2
    assert j2 - i2 == RationalMatrix(np.array([[0, 1], [1, 0]]))
    assert (j2 @ j2) == j2 * 2
    assert j2.hadamard(i2) == i2
    assert -i2 == i2 * -1
    assert i2 * Fraction(1, 3) == RationalMatrix(np.eye(2, dtype=np.int64), 3)


def test_trace_uses_python_ints():
    big = 1 << 62
    m = RationalMatrix(np.array([[big, 0], [0, big]], dtype=object))
    assert m.trace() == 2 * big


def test_shape_mismatch():
    with pytest.raises(ValueError):
        RationalMatrix.identity(2) + RationalMatrix.identity(3)
    with pytest.raises(ValueError):
        RationalMatrix.zeros(2, 3) @ RationalMatrix.zeros(2, 3)


def test_rref_all_ones():
    r, pivots = rref(RationalMatrix.ones(2, 2))
    assert pivots == (0,)
    assert r.dense_rows() == [[1, 1], [0, 0]]


def test_rref_idempotent_and_rank_nullity():
    rng = random.Random(0)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = RationalMatrix(
            np.array(
                [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)],
                dtype=np.int64,
            )
        )
        r, pivots = rref(m)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots
        ker = kernel_basis(m)
        assert len(pivots) == rank(m)
        assert rank(m) + len(ker) == nc
        for v in ker:
            col = RationalMatrix.from_rows([[x] for x in v])
            assert (m @ col).is_zero()


def test_kernel_of_row_of_ones():
    assert kernel_basis(RationalMatrix.ones(1, 2)) == [(Fraction(1), Fraction(-1))]


def test_kernel_of_zero_matrix():
    ker = kernel_basis(RationalMatrix.zeros(2, 2))
    assert ker == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_inverse():
    m = RationalMatrix(np.array([[2, 1], [1, 1]]))
    inv = inverse(m)
    assert inv == RationalMatrix(np.array([[1, -1], [-1, 2]]))
    assert m @ inv == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(RationalMatrix.ones(2, 2))


def _gauss_jordan(rows):
    """Textbook Fraction Gauss-Jordan: leftmost pivot column, topmost row."""
    rows = [[Fraction(v) for v in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


def _oracle_kernel(rows):
    reduced, pivots = _gauss_jordan(rows)
    ncols = len(rows[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r_idx, p_col in enumerate(pivots):
            v[p_col] = -reduced[r_idx][f]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(-x for x in v) if lead < 0 else tuple(v))
    return basis


def _oracle_inverse(rows):
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = _gauss_jordan(aug)
    if pivots != tuple(range(n)):
        return None
    return [row[n:] for row in reduced]


def _random_matrix(rng, nr, nc, bits, rank_cap=None):
    """Seeded integer matrix, optionally a product that caps the rank."""
    def entry():
        return rng.randint(-(1 << bits), 1 << bits)

    if rank_cap is None:
        num = [[entry() for _ in range(nc)] for _ in range(nr)]
    else:
        left = [[rng.randint(-3, 3) for _ in range(rank_cap)] for _ in range(nr)]
        right = [[entry() for _ in range(nc)] for _ in range(rank_cap)]
        num = [
            [sum(left[i][k] * right[k][j] for k in range(rank_cap)) for j in range(nc)]
            for i in range(nr)
        ]
    den = rng.choice([1, 1, 2, 6, 35, (1 << 61) - 1])
    return RationalMatrix(np.array(num, dtype=object), den)


def _differential_cases():
    rng = random.Random(2024)
    cases = []
    for _ in range(60):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        bits = rng.choice([2, 8, 40, 70])
        cap = rng.choice([None, None, 1, 2, 3])
        cases.append(_random_matrix(rng, nr, nc, bits, cap))
    return cases


def test_rref_and_kernel_match_gauss_jordan():
    cases = _differential_cases()
    assert any(m.num.dtype == object for m in cases)  # the object path runs
    assert any(rank(m) < min(m.shape) for m in cases)
    for m in cases:
        rows, pivots = _gauss_jordan(m.dense_rows())
        reduced, got_pivots = rref(m)
        assert got_pivots == pivots
        assert reduced.dense_rows() == rows
        assert reduced == RationalMatrix.from_rows(rows)
        assert kernel_basis(m) == _oracle_kernel(m.dense_rows())


def test_inverse_matches_gauss_jordan():
    rng = random.Random(7)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        bits = rng.choice([2, 8, 40, 70])
        m = _random_matrix(rng, n, n, bits, rng.choice([None, None, None, n - 1 or None]))
        expect = _oracle_inverse(m.dense_rows())
        if expect is None:
            singular += 1
            with pytest.raises(ValueError):
                inverse(m)
            continue
        inv = inverse(m)
        assert inv == RationalMatrix.from_rows(expect)
        assert m @ inv == RationalMatrix.identity(n)
    assert singular > 0


def test_min_poly_identity():
    assert matrix_min_poly(RationalMatrix.identity(3)) == RationalPoly((-1, 1))


def test_min_poly_of_cube_adjacency():
    g = hypercube(2)
    dd = DistanceData.compute(g)
    a = distance_matrix(g, dd, 1)
    # spectrum {2, 0, -2} so the minimal polynomial is z^3 - 4z
    assert matrix_min_poly(a) == RationalPoly((0, -4, 0, 1))


def test_min_poly_of_diagonal():
    m = RationalMatrix(np.diag([0, 1, 1, 2]))
    assert matrix_min_poly(m) == RationalPoly.from_roots([0, 1, 2])


def test_min_poly_annihilates_seeded_matrices():
    rng = random.Random(1)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = RationalMatrix(
            np.array(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                dtype=np.int64,
            )
        )
        p = matrix_min_poly(m)
        assert p.coeffs[-1] == 1
        assert poly_eval_matrix([p], m)[0].is_zero()
        # Minimality: the reference finds the first power spanned by the
        # lower ones, so no monic annihilator of smaller degree exists.
        assert p == _fraction_min_poly(m)


def _fraction_min_poly(m):
    """Reference minimal polynomial by Fraction Gauss-Jordan elimination.

    The powers I, M, M^2, ... are flattened to Fraction vectors.  The first
    power M^k that I..M^(k-1) span gives the monic annihilator of least
    degree, z^k - sum_j c_j z^j, where the c_j solve
    sum_j c_j vec(M^j) = vec(M^k); the lower powers are independent, so the
    solution is unique.
    """
    n = m.nrows
    rows = m.dense_rows()
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    vecs = []
    for _ in range(n + 1):
        target = [x for row in power for x in row]
        coeffs = _solve_in_span(vecs, target)
        if coeffs is not None:
            return RationalPoly([-c for c in coeffs] + [1])
        vecs.append(target)
        power = [
            [sum(power[i][t] * rows[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    raise AssertionError("no dependency among the first n + 1 powers")


def _solve_in_span(vecs, target):
    """c with sum_j c_j vecs[j] == target, or None if target is not spanned.

    The vecs are independent, so after _gauss_jordan of [vecs | target] the
    rhs column is a pivot exactly when target is not spanned, and otherwise
    row j holds c_j.
    """
    k = len(vecs)
    aug = [[v[r] for v in vecs] + [target[r]] for r in range(len(target))]
    reduced, pivots = _gauss_jordan(aug)
    if k in pivots:
        return None
    assert pivots == tuple(range(k))
    return [reduced[j][k] for j in range(k)]


# Numerators within a few units of 0, +-2^31 and +-2^62 (all inside int64),
# so the powers leave int64 at once and matrix_min_poly runs on Python ints.
_NEAR_LIMITS = st.builds(
    lambda base, off: base + off,
    st.sampled_from([0, 2**31, -(2**31), 2**62, -(2**62)]),
    st.integers(-3, 3),
)
_NEAR_31 = st.builds(
    lambda sign, off: sign * 2**31 + off,
    st.sampled_from([1, -1]),
    st.integers(-3, 3),
)


@st.composite
def _matrices_near_limits(draw):
    """Small square RationalMatrix values whose numerators are near the
    int64 limits, including shapes whose minimal polynomial is shorter than
    the characteristic one: repeated diagonals, a Jordan block and rank one."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["dense", "diagonal", "jordan", "rank_one"]))
    if kind == "dense":
        num = [[draw(_NEAR_LIMITS) for _ in range(n)] for _ in range(n)]
    elif kind == "diagonal":
        values = draw(st.lists(_NEAR_LIMITS, min_size=1, max_size=2))
        diag = [draw(st.sampled_from(values)) for _ in range(n)]
        num = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    elif kind == "jordan":
        lam = draw(_NEAR_LIMITS)
        num = [[lam * (i == j) + (j == i + 1) for j in range(n)] for i in range(n)]
    else:
        # (2^31 + 3)^2 < 2^63, so u v^T stays in int64.
        u = [draw(_NEAR_31) for _ in range(n)]
        v = [draw(_NEAR_31) for _ in range(n)]
        num = [[a * b for b in v] for a in u]
    den = draw(st.sampled_from([1, 3, 2**31 + 11]))
    return RationalMatrix(np.array(num, dtype=np.int64), den)


@settings(max_examples=120, deadline=None)
@given(_matrices_near_limits())
def test_min_poly_matches_fraction_reference_near_int64_limits(m):
    p = matrix_min_poly(m)
    assert p == _fraction_min_poly(m)
    assert poly_eval_matrix([p], m)[0].is_zero()


@settings(max_examples=60, deadline=None)
@given(_matrices_near_limits())
def test_min_poly_divides_sympy_charpoly(m):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rows = [[sympy.Rational(str(x)) for x in r] for r in m.dense_rows()]
    charpoly = sympy.Poly(sympy.Matrix(rows).charpoly(z).all_coeffs(), z, domain="QQ")
    coeffs = [sympy.Rational(str(c)) for c in matrix_min_poly(m).coeffs]
    minpoly = sympy.Poly(coeffs[::-1], z, domain="QQ")
    assert charpoly.rem(minpoly).is_zero


def test_relative_min_poly():
    m = RationalMatrix(np.diag([2, 0]))
    corner_identity = RationalMatrix(np.diag([1, 0]))
    # Relative to the corner unit, m acts as the scalar 2.
    assert matrix_min_poly(m, identity=corner_identity) == RationalPoly((-2, 1))
    with pytest.raises(ValueError):
        matrix_min_poly(m, identity=RationalMatrix.zeros(2, 2))


def test_min_poly_with_fractions():
    m = RationalMatrix(np.diag([3, 2]), 6)
    assert matrix_min_poly(m) == RationalPoly.from_roots([Fraction(1, 2), Fraction(1, 3)])


def test_zero_matrix_over_a_denominator_past_int64():
    for den in (2**63 + 5, -(2**70)):
        z = RationalMatrix(np.zeros((2, 2), dtype=np.int64), den)
        assert z.den == 1 and z.is_zero() and z == RationalMatrix.zeros(2, 2)
    m = RationalMatrix(np.array([[0, 2], [4, 0]]), 2**64)
    assert m.den == 2**63 and m[0, 1] == Fraction(1, 2**63)


def test_poly_eval_matrix():
    a = RationalMatrix(np.array([[0, 1], [1, 0]]))
    polys = [RationalPoly((0, 0, 1)), RationalPoly.zero(), RationalPoly.one()]
    square, zero, one = poly_eval_matrix(polys, a)
    assert square == one == RationalMatrix.identity(2)
    assert zero.is_zero()
    assert poly_eval_matrix([], a) == []
    assert poly_eval_matrix([RationalPoly.zero()], a)[0].is_zero()


def _fraction_horner(p, m):
    """Reference: Horner over RationalMatrix with one Fraction-scaled
    identity per coefficient."""
    ident = RationalMatrix.identity(m.nrows)
    if p.is_zero():
        return RationalMatrix.zeros(m.nrows, m.nrows)
    acc = ident * p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ m + ident * c
    return acc


def test_poly_eval_matrix_matches_fraction_horner():
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 5)
        scale = rng.choice([1, 2**20, 2**40])
        den = rng.choice([1, 3, 2**31, 2**63 + 5])
        num = np.array(
            [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)],
            dtype=object,
        )
        coeffs = [
            Fraction(rng.randint(-(2**70), 2**70), rng.choice([1, 7, 2**65]))
            for _ in range(rng.randint(0, 5))
        ]
        cases.append((RationalPoly(coeffs), RationalMatrix(num, den)))
    # Hypercube adjacency, whose products stay in int64.
    g = hypercube(4)
    a = distance_matrix(g, DistanceData.compute(g), 1)
    cases += [(RationalPoly.from_roots([4, 2, 0, -2]), a), (RationalPoly((-1, 3)), a)]
    object_results = 0
    previous = RationalPoly.zero()
    for p, m in cases:
        # The previous case's polynomial, mostly of another degree, is read
        # off the same powers.
        got, other = poly_eval_matrix([p, previous], m)
        assert got == _fraction_horner(p, m), (p, m)
        assert other == _fraction_horner(previous, m), (previous, m)
        object_results += got.num.dtype == object
        previous = p
    assert object_results  # the int64 guards sent some cases to Python ints


# -- the Krylov kernel: min_poly(m, v) -------------------------------------


def _column(v):
    return RationalMatrix(np.array([[int(x)] for x in v], dtype=object))


def _krylov_rows(m, v, k):
    """v, m v, ..., m^(k-1) v as the k rows of a RationalMatrix."""
    col = _column(v)
    rows = []
    for _ in range(k):
        rows.append([col[i, 0] for i in range(m.nrows)])
        col = m @ col
    return RationalMatrix.from_rows(rows)


@st.composite
def _vectors_near_limits(draw, n):
    """Nonzero integer vectors of length n with entries near 0, +-2^31, +-2^62."""
    v = draw(st.lists(_NEAR_LIMITS, min_size=n, max_size=n).filter(any))
    return np.array(v, dtype=np.int64)


def _assert_least_annihilator(m, v, q):
    """q is monic, q(m) v = 0 and v, m v, ..., m^(deg q - 1) v are
    independent, so no monic polynomial of lower degree annihilates v."""
    assert q.coeffs[-1] == 1
    assert (poly_eval_matrix([q], m)[0] @ _column(v)).is_zero()
    assert rank(_krylov_rows(m, v, q.degree)) == q.degree


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_min_poly_of_vector_near_int64_limits(data):
    m = data.draw(_matrices_near_limits())
    v = data.draw(_vectors_near_limits(m.nrows))
    q = min_poly(m, v)
    _assert_least_annihilator(m, v, q)
    # q divides the minimal polynomial, so the two are equal exactly when
    # their degrees are (always when v is cyclic).
    full = matrix_min_poly(m)
    assert q.degree <= full.degree
    if q.degree == full.degree:
        assert q == full


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_poly_of_vector_object_entries(data):
    # big's numerators are past int64, so every Krylov product runs on
    # Python ints; v passed as an object vector past int64 gives the same q.
    m = data.draw(_matrices_near_limits())
    big = RationalMatrix(to_object(m.num) * (2**64 + 1), m.den)
    v = data.draw(_vectors_near_limits(m.nrows))
    q = min_poly(big, v)
    _assert_least_annihilator(big, v, q)
    assert q == min_poly(big, to_object(v) * (2**70 + 3))


def test_min_poly_of_non_cyclic_vector():
    m = RationalMatrix(np.diag([1, 2, 3]))
    assert min_poly(m, [1, 0, 1]) == RationalPoly.from_roots([1, 3])
    assert min_poly(m, [1, 1, 1]) == matrix_min_poly(m)
    assert min_poly(RationalMatrix(np.diag([3, 2]), 6), [1, 1]) == RationalPoly.from_roots(
        [Fraction(1, 2), Fraction(1, 3)]
    )
    nilpotent = RationalMatrix(np.array([[0, 0], [1, 0]]))
    assert min_poly(nilpotent, [1, 0]) == RationalPoly((0, 0, 1))
    assert min_poly(nilpotent, [0, 5]) == RationalPoly((0, 1))


def test_min_poly_rejects_bad_input():
    with pytest.raises(ValueError, match="zero vector"):
        min_poly(RationalMatrix.identity(2), [0, 0])
    with pytest.raises(ValueError, match="n x n"):
        min_poly(RationalMatrix.zeros(2, 3), [1, 1])
    with pytest.raises(ValueError, match="n x n"):
        min_poly(RationalMatrix.identity(2), [1, 1, 1])


def test_numpy_integer_entries_become_python_ints():
    # A numpy scalar past INT64_SAFE is not demoted; kept as it is inside an
    # object array, its arithmetic would wrap at 2**63.
    rows = [[np.int64(2**62), np.int64(1)], [np.int64(0), np.int64(3)]]
    for num in (rows, np.array(rows, dtype=object)):
        m = RationalMatrix(num)
        assert all(type(v) is int for v in m.num.flat)
        assert (m + m)[0, 0] == 2**63
        assert (m @ m)[0, 0] == 2**124
    m = RationalMatrix([[3, 1], [0, 2]])
    want = RationalPoly((6, -5, 1))
    v = [np.int64(2**62), np.int64(1)]
    assert min_poly(m, v) == want
    assert min_poly(m, np.array(v, dtype=object)) == want

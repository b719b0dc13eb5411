"""Tests for exact rational polynomials."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg.polys import RationalPoly, integer_roots


def test_trailing_zeros_trimmed():
    p = RationalPoly((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_zero_polynomial():
    z = RationalPoly.zero()
    assert z.is_zero()
    assert z.degree is None
    assert z.coeffs == ()
    assert RationalPoly((0, 0)) == z


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        RationalPoly((1.5,))


def test_basic_constructors():
    assert RationalPoly.one().coeffs == (Fraction(1),)
    assert RationalPoly.x().coeffs == (Fraction(0), Fraction(1))


def test_from_roots():
    # (z-1)(z+1) = z^2 - 1
    p = RationalPoly.from_roots([1, -1])
    assert p == RationalPoly((-1, 0, 1))
    assert p.coeffs[-1] == 1
    assert RationalPoly.from_roots([]) == RationalPoly.one()


def test_addition_and_subtraction():
    a = RationalPoly((1, 2, 3))
    b = RationalPoly((4, 5))
    assert a + b == RationalPoly((5, 7, 3))
    assert a - a == RationalPoly.zero()
    assert -a == RationalPoly((-1, -2, -3))


def test_multiplication():
    a = RationalPoly((1, 1))   # 1 + z
    b = RationalPoly((1, -1))  # 1 - z
    assert a * b == RationalPoly((1, 0, -1))
    assert a * RationalPoly.zero() == RationalPoly.zero()
    assert a * 2 == RationalPoly((2, 2))
    assert 2 * a == RationalPoly((2, 2))
    assert a * Fraction(1, 2) == RationalPoly((Fraction(1, 2), Fraction(1, 2)))


def test_product_evaluation_consistency():
    # (pq)(v) = p(v) q(v) on a deterministic grid.
    polys = [
        RationalPoly.zero(),
        RationalPoly.one(),
        RationalPoly((Fraction(1, 2), 3)),
        RationalPoly((-2, 0, 1)),
        RationalPoly((1, 1, 1, 1)),
    ]
    points = [-2, -1, 0, 1, 2, Fraction(1, 3)]
    for p in polys:
        for q in polys:
            prod = p * q
            for v in points:
                assert prod.eval_scalar(v) == p.eval_scalar(v) * q.eval_scalar(v)


def test_eval_horner():
    p = RationalPoly((3, -2, 1))  # z^2 - 2z + 3
    assert p.eval_scalar(0) == 3
    assert p.eval_scalar(2) == 3
    assert p.eval_scalar(Fraction(1, 2)) == Fraction(9, 4)


def test_coeff_accessor():
    p = RationalPoly((5, 0, 7, 0))
    assert p.coeffs == (5, 0, 7)
    assert all(type(c) is Fraction for c in p.coeffs)


def test_monic():
    p = RationalPoly((2, 4))
    assert p.monic() == RationalPoly((Fraction(1, 2), 1))
    assert p.monic().coeffs[-1] == 1


def test_equality_and_hash():
    a = RationalPoly((1, 2))
    b = RationalPoly((Fraction(1), Fraction(2)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != RationalPoly((1, 2, 3))


def test_immutability():
    p = RationalPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(0),)


def test_str_forms():
    assert str(RationalPoly.zero()) == "0"
    assert str(RationalPoly.x()) == "z"
    assert str(RationalPoly((-1, 0, Fraction(1, 2)))) == "1/2*z^2 - 1"
    assert str(RationalPoly((0, -1))) == "-z"
    assert str(RationalPoly((9, 0, -10, 0, 1))) == "z^4 - 10*z^2 + 9"


# -- property tests against a Fraction-list oracle ---------------------------
#
# The oracle is the plain coefficient list: Fractions, low degree first, with
# trailing zeros removed.  Numerators reach 2**80 and denominators pass 2**62,
# so the integer numerators and the shared denominator leave the machine-word
# range.

numerators = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
denominators = st.one_of(st.integers(1, 6), st.integers(2**62, 2**66))
rationals = st.one_of(
    st.integers(-(2**80), 2**80),
    st.builds(Fraction, numerators, denominators),
)
coeff_lists = st.builds(
    lambda cs, zeros: cs + [0] * zeros,
    st.lists(rationals, max_size=6),
    st.integers(0, 2),
)


def trim(cs):
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_add(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return trim([x + y for x, y in zip(a, b)])


def oracle_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def oracle_eval(a, v):
    return sum((c * Fraction(v) ** k for k, c in enumerate(a)), Fraction(0))


def oracle_str(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            body = ("" if abs(c) == 1 else f"{abs(c)}*") + ("z" if k == 1 else f"z^{k}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def assert_canonical(p, want):
    """p holds the coefficients want, in the canonical (num, den) form."""
    assert p.coeffs == tuple(want)
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert p.den > 0
    if not p.num:
        assert (p.num, p.den) == ((), 1)
    else:
        assert p.num[-1] != 0
        assert gcd(p.den, *p.num) == 1
    assert p.degree == (len(want) - 1 if want else None)
    assert p == RationalPoly(want) and hash(p) == hash(RationalPoly(want))


@settings(max_examples=200, deadline=None)
@given(coeff_lists)
def test_constructor_canonical_form(cs):
    p = RationalPoly(cs)
    want = trim(cs)
    assert_canonical(p, want)
    assert p.is_zero() == (not want)
    assert p.coeffs == tuple(want)
    assert all(type(c) is Fraction for c in p.coeffs)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, st.data())
def test_float_rejected_anywhere(cs, data):
    k = data.draw(st.integers(0, len(cs)))
    with pytest.raises(TypeError):
        RationalPoly(cs[:k] + [0.5] + cs[k:])


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists, rationals)
def test_arithmetic_matches_oracle(xs, ys, s):
    a, b = RationalPoly(xs), RationalPoly(ys)
    fa, fb = trim(xs), trim(ys)
    neg_b = [-c for c in fb]
    assert_canonical(a + b, oracle_add(fa, fb))
    assert_canonical(a - b, oracle_add(fa, neg_b))
    assert_canonical(-a, [-c for c in fa])
    assert_canonical(a * b, oracle_mul(fa, fb))
    assert_canonical(a * s, trim([c * s for c in fa]))
    assert_canonical(s * a, trim([c * s for c in fa]))
    assert_canonical(a - a, [])
    if fa:
        assert_canonical(a.monic(), [c / fa[-1] for c in fa])
        assert a.coeffs[-1] == fa[-1]
    else:
        with pytest.raises(ValueError):
            a.monic()


@settings(max_examples=200, deadline=None)
@given(coeff_lists, rationals)
def test_evaluation_matches_oracle(cs, v):
    p = RationalPoly(cs)
    want = trim(cs)
    value = p.eval_scalar(v)
    assert type(value) is Fraction and value == oracle_eval(want, v)


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists)
def test_equality_hash_and_str_follow_values(xs, ys):
    a, b = RationalPoly(xs), RationalPoly(ys)
    fa, fb = trim(xs), trim(ys)
    assert (a == b) == (fa == fb)
    # The same value reached through other arithmetic is the same object
    # structurally, so it hashes alike.
    same = (a + b) - b
    assert same == a and hash(same) == hash(a)
    assert (same.num, same.den) == (a.num, a.den)
    assert str(a) == oracle_str(fa)
    assert repr(a) == f"RationalPoly({oracle_str(fa)})"


# -- integer roots -----------------------------------------------------------

# The probe of the d=10 Wedderburn split (weight base 7): its minimal
# polynomial z^6 - 31257600 z^5 + ... has six integer roots up to 2.1e7.
D10_PROBE_ROOTS = [60, 4260, 113460, 1409580, 8305560, 21424680]
D10_PROBE_POLY = RationalPoly(
    (
        7274055691053813127659264000000,
        -123012273283373942046259200000,
        29650132760918439342240000,
        -276735590130692736000,
        223519255322400,
        -31257600,
        1,
    )
)


def test_integer_roots():
    split = RationalPoly.from_roots
    assert integer_roots(split([1, 2])) == [1, 2]
    assert integer_roots(split([0, -3, 7])) == [-3, 0, 7]
    assert integer_roots(RationalPoly.one()) == []
    assert integer_roots(RationalPoly.x()) == [0]
    # Repeated roots, also at 0.
    assert integer_roots(split([1, 1])) is None
    assert integer_roots(split([0, 0])) is None
    assert integer_roots(split([0, 0, 4])) is None
    # Irrational and non-real pairs (a1^2 - 2 a2 < 0 for z^2 + 1).
    assert integer_roots(RationalPoly((-5, 0, 1))) is None
    assert integer_roots(RationalPoly((1, 0, 1))) is None
    # sqrt(5) shares the unit interval (2, 3] with the root 3; the roots
    # (9 -+ sqrt(17)) / 2 of z^2 - 9z + 16 share (2, 3] and (6, 7] with 3, 7.
    assert integer_roots(split([3]) * RationalPoly((-5, 0, 1))) is None
    assert integer_roots(split([3, 7]) * RationalPoly((16, -9, 1))) is None
    # Not a product of monic integer linear factors.
    assert integer_roots(RationalPoly((Fraction(1, 2), 1))) is None
    assert integer_roots(RationalPoly((-2, 2))) is None
    assert integer_roots(RationalPoly.zero()) is None
    # Roots far above 10**6, up to 2**40.
    assert integer_roots(split([1, 10**7])) == [1, 10**7]
    big = [-(2**40), -(2**40) + 1, 3, 2**39 + 7, 2**40]
    assert integer_roots(split(big)) == big


def test_integer_roots_of_d10_probe():
    assert D10_PROBE_POLY == RationalPoly.from_roots(D10_PROBE_ROOTS)
    assert integer_roots(D10_PROBE_POLY) == D10_PROBE_ROOTS
    assert integer_roots(D10_PROBE_POLY + RationalPoly.one()) is None


def test_integer_roots_recover_random_large_roots():
    rng = random.Random(2023)
    for _ in range(100):
        size = rng.randint(1, 12)
        roots = sorted({rng.randrange(-(2**40), 2**40) for _ in range(size)})
        assert integer_roots(RationalPoly.from_roots(roots)) == roots


def _brute_integer_roots(p):
    """Split into distinct integers, by testing every divisor of the trailing
    nonzero coefficient: a monic degree-k polynomial with k distinct integer
    roots is their product.  Only usable while that coefficient is small."""
    if any(c.denominator != 1 for c in p.coeffs):
        return None
    coeffs = [int(c) for c in p.coeffs]
    trailing = abs(next(c for c in coeffs if c))
    candidates = {0}
    for t in range(1, isqrt(trailing) + 1):
        if trailing % t == 0:
            candidates.update((t, -t, trailing // t, -(trailing // t)))
    roots = sorted(r for r in candidates if p.eval_scalar(r) == 0)
    return roots if len(roots) == p.degree else None


small_roots = st.lists(st.integers(-40, 40), min_size=1, max_size=5)
distinct_split = small_roots.map(lambda r: RationalPoly.from_roots(sorted(set(r))))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        distinct_split,
        small_roots.map(lambda r: RationalPoly.from_roots(r + r[:1])),
        st.tuples(distinct_split, st.integers(1, 50)).map(
            lambda t: t[0] + RationalPoly((t[1],))
        ),
        st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=5).map(
            lambda c: RationalPoly(tuple(c) + (1,))
        ),
        # A split part times z^2 + b z + c: real, irrational, non-real or
        # split quadratics, some sharing a unit interval with a root.
        st.tuples(distinct_split, st.integers(-30, 30), st.integers(-30, 30)).map(
            lambda t: t[0] * RationalPoly((t[2], t[1], 1))
        ),
        # Roots at 0, simple or repeated.
        st.tuples(distinct_split, st.integers(1, 3)).map(
            lambda t: t[0] * RationalPoly.from_roots([0] * t[1])
        ),
    )
)
def test_integer_roots_match_brute_force(p):
    assert integer_roots(p) == _brute_integer_roots(p)


def test_integer_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(7)
    for _ in range(80):
        roots = [rng.randrange(-(2**40), 2**40) for _ in range(rng.randint(1, 7))]
        p = RationalPoly.from_roots(roots + roots[: rng.choice((0, 0, 1))])
        kind = rng.randrange(3)
        if kind == 1:
            p = p + RationalPoly((rng.randint(1, 2**20),))
        elif kind == 2:
            p = p * RationalPoly((rng.randint(-99, 99), rng.randint(-20, 20), 1))
        _, factors = sympy.Poly(p.num[::-1], z, domain="ZZ").factor_list()
        if all(f.degree() == 1 and mult == 1 for f, mult in factors):
            want = sorted(int(-f.TC()) for f, _ in factors)
        else:
            want = None
        assert integer_roots(p) == want, p

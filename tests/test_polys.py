"""Tests for exact rational polynomials."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg.polys import RationalPoly


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
    with pytest.raises(ValueError):
        z.leading


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        RationalPoly((1.5,))


def test_basic_constructors():
    assert RationalPoly.one().coeffs == (Fraction(1),)
    assert RationalPoly.x().coeffs == (Fraction(0), Fraction(1))
    assert RationalPoly.constant(Fraction(3, 2)).coeffs == (Fraction(3, 2),)


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
    p = RationalPoly((5, 0, 7))
    assert p.coeff(0) == 5
    assert p.coeff(1) == 0
    assert p.coeff(2) == 7
    assert p.coeff(10) == 0
    with pytest.raises(ValueError):
        p.coeff(-1)


def test_monic():
    p = RationalPoly((2, 4))
    assert p.monic() == RationalPoly((Fraction(1, 2), 1))
    assert p.monic().coeffs[-1] == 1


def test_deflate_root():
    p = RationalPoly((-1, 0, 1))  # z^2 - 1
    q, rem = p.deflate(1)
    assert rem == 0
    assert q == RationalPoly((1, 1))
    q, rem = p.deflate(2)
    assert rem == 3
    q, rem = RationalPoly.zero().deflate(5)
    assert q.is_zero() and rem == 0


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


def oracle_deflate(a, r):
    if not a:
        return [], Fraction(0)
    acc = Fraction(0)
    out = []
    for c in reversed(a):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return trim(list(reversed(out))), rem


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
    for k in range(len(cs) + 2):
        assert p.coeff(k) == (want[k] if k < len(want) else 0)
        assert type(p.coeff(k)) is Fraction


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
        assert a.leading == fa[-1]
    else:
        with pytest.raises(ValueError):
            a.monic()


@settings(max_examples=200, deadline=None)
@given(coeff_lists, rationals)
def test_evaluation_and_deflation_match_oracle(cs, v):
    p = RationalPoly(cs)
    want = trim(cs)
    value = p.eval_scalar(v)
    assert type(value) is Fraction and value == oracle_eval(want, v)
    q, rem = p.deflate(v)
    want_q, want_rem = oracle_deflate(want, Fraction(v))
    assert_canonical(q, want_q)
    assert type(rem) is Fraction and rem == want_rem
    # A root deflates with remainder zero and the quotient times (z - v) is p.
    rooted = p * RationalPoly((-Fraction(v), 1))
    q, rem = rooted.deflate(v)
    assert rem == 0 and q == p


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

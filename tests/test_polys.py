"""Tests for exact rational polynomials."""

from fractions import Fraction

import pytest

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

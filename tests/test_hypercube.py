"""Tests for hypercube parameters, Krawtchouk polynomials, and the
permissible-set combinatorics."""

from fractions import Fraction

import pytest

from terwalg.hypercube import (
    HypercubeParams,
    check_permissible_equivalence,
    check_shift_lemma_down,
    check_shift_lemma_up,
    eigenmatrix,
    eigenvalue,
    guarded_binom,
    intersection_number,
    intersection_table,
    krawtchouk_polys,
    permissible,
    permissible_set,
    spectrum_poly,
    valency,
)
from terwalg.polys import RationalPoly


def test_guarded_binom():
    assert guarded_binom(5, 2) == 10
    assert guarded_binom(5, -1) == 0
    assert guarded_binom(5, 6) == 0
    assert guarded_binom(-1, 0) == 0


def test_valency_and_eigenvalue():
    assert [valency(4, i) for i in range(5)] == [1, 4, 6, 4, 1]
    assert [eigenvalue(4, i) for i in range(5)] == [4, 2, 0, -2, -4]


def test_intersection_number_closed_form():
    assert intersection_number(3, 2, 1, 1) == 2
    assert intersection_number(4, 2, 2, 2) == 4
    assert intersection_number(5, 3, 3, 2) == 6
    assert intersection_number(3, 1, 1, 1) == 0  # odd h+i+j
    assert intersection_number(3, 3, 1, 1) == 0  # violates triangle bound
    with pytest.raises(ValueError):
        intersection_number(3, 4, 0, 0)


def test_intersection_table_row_sums():
    # sum_j p^h_{ij} = k_i for every h and i
    d = 5
    table = intersection_table(d)
    for h in range(d + 1):
        for i in range(d + 1):
            assert int(table[h, i].sum()) == valency(d, i)
    assert (table == table.transpose(0, 2, 1)).all()  # symmetric in i, j


def test_krawtchouk_family():
    fs = krawtchouk_polys(3)
    assert len(fs) == 5
    assert fs[0] == RationalPoly.one()
    assert fs[1] == RationalPoly.x()
    assert fs[2] == RationalPoly((Fraction(-3, 2), 0, Fraction(1, 2)))
    for i, f in enumerate(fs):
        assert f.degree == i
        assert f.coeffs[-1] == Fraction(1, [1, 1, 2, 6, 24][i])


def test_krawtchouk_three_term_recurrence():
    # z F_i = (i+1) F_{i+1} + (d-i+1) F_{i-1}
    d = 6
    fs = krawtchouk_polys(d)
    z = RationalPoly.x()
    for i in range(1, d + 1):
        assert z * fs[i] == (i + 1) * fs[i + 1] + (d - i + 1) * fs[i - 1]


def test_spectrum_poly():
    assert spectrum_poly(3) == RationalPoly((9, 0, -10, 0, 1))
    assert spectrum_poly(2) == RationalPoly((0, -4, 0, 1))
    assert spectrum_poly(1) == RationalPoly((-1, 0, 1))
    assert spectrum_poly(0) == RationalPoly.x()
    for d in range(0, 8):
        phi = spectrum_poly(d)
        for i in range(d + 1):
            assert phi.eval_scalar(d - 2 * i) == 0


def test_eigenmatrix():
    p = eigenmatrix(2)
    assert p == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]


def test_eigenmatrix_squares_to_scaled_identity():
    # Self-duality: P^2 = 2^d I.
    for d in range(1, 6):
        p = eigenmatrix(d)
        n = 1 << d
        for i in range(d + 1):
            for j in range(d + 1):
                s = sum(p[i][k] * p[k][j] for k in range(d + 1))
                assert s == (n if i == j else 0)


def test_eigenmatrix_values_are_krawtchouk_evaluations():
    d = 5
    p = eigenmatrix(d)
    fs = krawtchouk_polys(d)
    for i in range(d + 1):
        for j in range(d + 1):
            assert p[i][j] == fs[j].eval_scalar(d - 2 * i)


def test_permissible_set_d2():
    assert permissible_set(2) == [
        (0, 0, 0), (0, 1, 1), (0, 2, 2),
        (1, 0, 1), (1, 1, 0), (1, 1, 2), (1, 2, 1),
        (2, 0, 2), (2, 1, 1), (2, 2, 0),
    ]


def test_permissible_matches_nonzero_intersection_numbers():
    for d in range(1, 9):
        ok, witness = check_permissible_equivalence(d)
        assert ok, f"d={d}: {witness}"


def test_permissible_predicate():
    assert permissible(2, 1, 1, 2)
    assert not permissible(2, 1, 1, 1)  # odd sum
    assert not permissible(2, 2, 2, 2)  # sum exceeds 2d
    assert not permissible(3, 0, 1, 2)  # triangle inequality


def test_shift_lemmas():
    triples = [frozenset(permissible_set(d)) for d in range(17)]
    for d in range(2, 17):
        ok, witness = check_shift_lemma_down(d, triples[d], triples[d - 2])
        assert ok, f"down d={d}: {witness}"
        ok, witness = check_shift_lemma_up(d, triples[d], triples[d - 2])
        assert ok, f"up d={d}: {witness}"


def test_params_bundle():
    params = HypercubeParams.build(3)
    assert params.valencies == (1, 3, 3, 1)
    assert params.eigenvalues == (3, 1, -1, -3)
    assert params.phi == spectrum_poly(3)
    assert len(params.F) == 5
    for h in range(4):
        for i in range(4):
            for j in range(4):
                assert int(params.p_table[h, i, j]) == intersection_number(3, h, i, j)

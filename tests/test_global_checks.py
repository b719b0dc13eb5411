"""The range-wide checks against the per-call path they replaced.

verify.global_checks builds every Krawtchouk family, spectrum polynomial and
permissible mask P_d once and shares them.  The oracle here is the older
per-call path: one verify_phi_images(d) per d (each building its own
families), verify_phi_factorial over the range, and the permissible
equivalence and the shift lemmas as loops over the scalar permissible()
predicate with out-of-range indices excluded.  Both must return equal Check
tuples, also after one family member or one P_d is changed.
"""

import importlib
from fractions import Fraction

import pytest
from click.testing import CliRunner

from terwalg import poly_identities, verify
from terwalg.checks import Check
from terwalg.cli import main
from terwalg.polys import RationalPoly
from terwalg.subconstituent import build_hypercube_context, check_triple_products

# The package attribute terwalg.hypercube is the graph constructor, so the
# module of that name is taken from the import system.
hypercube = importlib.import_module("terwalg.hypercube")


def _in_shifted(d, h, i, j):
    """Permissibility in P_d with out-of-range indices counting as excluded."""
    if not (0 <= h <= d and 0 <= i <= d and 0 <= j <= d):
        return False
    return hypercube.permissible(d, h, i, j)


def oracle_shift_down(d):
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                if hypercube.permissible(d, h, i, j):
                    continue
                if _in_shifted(d - 2, h - 1, i, j - 1):
                    return False, (h, i, j)
                if _in_shifted(d - 2, h - 1, i - 2, j - 1):
                    return False, (h, i, j)
    return True, None


def oracle_shift_up(d):
    dm2 = d - 2
    for h in range(dm2 + 1):
        for i in range(dm2 + 1):
            for j in range(dm2 + 1):
                if hypercube.permissible(dm2, h, i, j):
                    continue
                down_ok = all(
                    not _in_shifted(d, h + 1, i - 2 * r, j + 1)
                    for r in range(i // 2 + 1)
                )
                up_ok = all(
                    not _in_shifted(d, h + 1, i + 2 * r, j + 1)
                    for r in range(1, (d - i) // 2 + 1)
                )
                if not (down_ok or up_ok):
                    return False, (h, i, j)
    return True, None


def oracle_permissible_equivalence(d):
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                nonzero = hypercube.intersection_number(d, h, i, j) != 0
                if nonzero != hypercube.permissible(d, h, i, j):
                    return False, (h, i, j)
    return True, None


def oracle_global_checks():
    checks = []
    perm_ok = True
    witness = None
    for d in range(1, verify.PERMISSIBLE_MAX_D + 1):
        ok, bad = oracle_permissible_equivalence(d)
        if not ok:
            perm_ok = False
            witness = f"d={d} triple {bad}"
            break
    checks.append(
        Check("permissible_triples_match_nonzero_intersection_numbers", perm_ok, witness)
    )
    img_ok = True
    witness = None
    for d in range(2, verify.PHI_IMAGE_MAX_D + 1):
        rep = poly_identities.verify_phi_images(d)
        if not rep.passed:
            img_ok = False
            witness = f"d={d} indices {rep.failing_indices()}"
            break
    checks.append(Check("krawtchouk_descent_identities", img_ok, witness))
    checks.append(
        Check(
            "spectrum_polynomial_factorial_identity",
            poly_identities.verify_phi_factorial(verify.PHI_FACTORIAL_MAX_D),
        )
    )
    down_ok = up_ok = True
    down_witness = up_witness = None
    for d in range(2, verify.SHIFT_LEMMA_MAX_D + 1):
        ok, bad = oracle_shift_down(d)
        if not ok and down_ok:
            down_ok = False
            down_witness = f"d={d} triple {bad}"
        ok, bad = oracle_shift_up(d)
        if not ok and up_ok:
            up_ok = False
            up_witness = f"d={d} triple {bad}"
    checks.append(Check("excluded_triple_shift_down", down_ok, down_witness))
    checks.append(Check("excluded_triple_shift_up", up_ok, up_witness))
    return tuple(checks)


def test_global_checks_match_per_call_oracle():
    got = verify.global_checks()
    assert got == oracle_global_checks()
    assert all(c.passed for c in got)


def test_shift_lemmas_match_predicate_loops():
    masks = [hypercube.permissible_mask(d) for d in range(17)]
    for d in range(2, 17):
        p_d, p_small = masks[d], masks[d - 2]
        assert hypercube.check_shift_lemma_down(d, p_d, p_small) == oracle_shift_down(d)
        assert hypercube.check_shift_lemma_up(d, p_d, p_small) == oracle_shift_up(d)


def test_global_checks_do_not_call_the_scalar_predicate(monkeypatch):
    def scalar(*args):
        raise AssertionError(f"permissible{args} called")

    monkeypatch.setattr(hypercube, "permissible", scalar)
    assert all(c.passed for c in verify.global_checks())
    assert hypercube.permissible_set(2)[-1] == (2, 2, 0)
    assert check_triple_products(build_hypercube_context(3)).passed


# -- tampered inputs: both paths must name the same witness --------------------


def _tamper_family(monkeypatch, d0, index, delta):
    """krawtchouk_polys(d0)[index] shifted by the constant delta."""
    real = hypercube.krawtchouk_polys

    def patched(d):
        fs = real(d)
        if d == d0:
            fs[index] = fs[index] + RationalPoly((delta,))
        return fs

    monkeypatch.setattr(poly_identities, "krawtchouk_polys", patched)


def _tamper_spectrum(monkeypatch, d0):
    real = hypercube.spectrum_poly

    def patched(d):
        phi = real(d)
        return phi * 2 if d == d0 else phi

    monkeypatch.setattr(poly_identities, "spectrum_poly", patched)


def _tamper_triples(monkeypatch, d0, triple):
    """Flip the membership of one triple in P_d0, both in the predicate and
    in the mask.  The predicate is read by the oracle; the mask by the
    equivalence check and by the shift lemmas of global_checks, through
    the binding in verify."""
    real = hypercube.permissible
    real_mask = hypercube.permissible_mask

    def pred(d, h, i, j):
        ok = real(d, h, i, j)
        return ok != (d == d0 and (h, i, j) == triple)

    def mask(d):
        m = real_mask(d)
        if d == d0:
            m = m.copy()
            m[triple] = not m[triple]
        return m

    monkeypatch.setattr(hypercube, "permissible", pred)
    monkeypatch.setattr(hypercube, "permissible_mask", mask)
    monkeypatch.setattr(verify, "permissible_mask", mask)


@pytest.mark.parametrize(
    "d0, index, delta",
    [(17, 5, 1), (17, 18, Fraction(1, 3)), (2, 2, -1), (32, 33, 1), (30, 0, 1)],
)
def test_tampered_family_gives_oracle_witness(monkeypatch, d0, index, delta):
    _tamper_family(monkeypatch, d0, index, delta)
    got = verify.global_checks()
    assert got == oracle_global_checks()
    assert not all(c.passed for c in got)


def test_tampered_family_descent_witness(monkeypatch):
    _tamper_family(monkeypatch, 17, 5, 1)
    checks = {c.name: c for c in verify.global_checks()}
    assert checks["krawtchouk_descent_identities"].witness == "d=17 indices (5,)"
    assert checks["spectrum_polynomial_factorial_identity"].passed
    result = CliRunner().invoke(main, ["poly", "--max-d", "64"])
    assert result.exit_code == 1
    assert result.output == (
        "PASS spectrum_polynomial_factorial_identity\n"
        "FAIL krawtchouk_descent_identities d=17 indices (5,)\n"
    )


def test_tampered_spectrum_gives_oracle_witness(monkeypatch):
    _tamper_spectrum(monkeypatch, 20)
    got = verify.global_checks()
    assert got == oracle_global_checks()
    checks = {c.name: c for c in got}
    assert not checks["spectrum_polynomial_factorial_identity"].passed
    assert checks["krawtchouk_descent_identities"].witness.startswith("d=22 ")


@pytest.mark.parametrize(
    "d0, triple",
    [
        (10, (5, 5, 4)),
        (7, (0, 0, 2)),
        (3, (1, 1, 2)),
        (16, (5, 5, 4)),
        (14, (14, 0, 0)),
        (6, (3, 6, 3)),
    ],
)
def test_tampered_permissible_set_gives_oracle_witness(monkeypatch, d0, triple):
    _tamper_triples(monkeypatch, d0, triple)
    got = verify.global_checks()
    assert got == oracle_global_checks()
    assert not all(c.passed for c in got)

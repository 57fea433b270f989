import random

import pytest

from rspin.errors import InconsistentInputError, NonIsolatedError, UnsupportedTypeError
from rspin.milnor import (
    PlaneGerm,
    _staircase_complement,
    jacobian,
    jet_requirement,
    milnor_number,
    morsification_reference,
)
from rspin.curveconf import is_e_arboreal, neighborhood_invariants


def basis_set(result):
    return set(result.basis_strings())


def test_jacobian():
    fx, fy = jacobian(PlaneGerm.parse("x^3+y^4"))
    assert fx.terms == PlaneGerm.parse("3x^2").terms
    assert fy.terms == PlaneGerm.parse("4y^3").terms
    fx, fy = jacobian(PlaneGerm.parse("y^2+y*x^4"))
    assert fx.terms == PlaneGerm.parse("4*y*x^3").terms
    assert fy.terms == PlaneGerm.parse("2y+x^4").terms
    fx, fy = jacobian(PlaneGerm.parse("5"))
    assert fx.is_zero() and fy.is_zero()


def test_e6_germ():
    res = milnor_number(PlaneGerm.parse("x^3+y^4"))
    assert res.mu == 6
    assert basis_set(res) == {"1", "x", "y", "xy", "y^2", "xy^2"}
    assert {(a, b) for a, b in res.basis} == {(a, b) for a in (0, 1) for b in (0, 1, 2)}


def test_a7_germ():
    res = milnor_number(PlaneGerm.parse("y^2+y*x^4"))
    assert res.mu == 7
    assert basis_set(res) == {"1", "x", "x^2", "x^3", "y", "xy", "x^2y"}


def test_node():
    res = milnor_number(PlaneGerm.parse("x^2+y^2"))
    assert res.mu == 1 and basis_set(res) == {"1"}


def test_quasihomogeneous_oracle():
    # mu(x^p + y^q) = (p-1)(q-1): the brute-force Macaulay rank must agree.
    for p in range(2, 7):
        for q in range(2, 7):
            f = PlaneGerm({(p, 0): 1, (0, q): 1})
            assert milnor_number(f).mu == (p - 1) * (q - 1)


def test_swap_invariance():
    for text in ("x^3+y^4", "y^2+y*x^4", "x^2+y^5"):
        f = PlaneGerm.parse(text)
        assert milnor_number(f).mu == milnor_number(f.swapped()).mu


def test_basis_size_and_recompute_stability():
    f = PlaneGerm.parse("x^3+y^4")
    res = milnor_number(f)
    assert len(res.basis) == res.mu
    again = milnor_number(f, ceiling=res.truncation + 1)
    assert again.mu == res.mu and again.basis == res.basis


def test_staircase_property():
    res = milnor_number(PlaneGerm.parse("y^2+y*x^4"))
    basis = set(res.basis)
    for (i, j) in basis:
        for (a, b) in ((i - 1, j), (i, j - 1)):
            if a >= 0 and b >= 0:
                assert (a, b) in basis  # complement of a monomial ideal


def _brute_complement(generators, n):
    """Monomials of degree <= n divisible by no generator, by checking each pair."""
    return {(a, b) for a in range(n + 1) for b in range(n + 1 - a)
            if not any(i <= a and j <= b for i, j in generators)}


def test_staircase_complement_against_brute_force():
    rng = random.Random(23)
    for n in range(13):
        triangle = [(a, b) for a in range(n + 1) for b in range(n + 1 - a)]
        for _ in range(60):
            size = rng.randint(0, rng.choice((min(n + 2, len(triangle)), len(triangle))))
            generators = set(rng.sample(triangle, size))
            assert _staircase_complement(generators, n) == \
                _brute_complement(generators, n), (n, sorted(generators))


def test_non_isolated_errors():
    with pytest.raises(NonIsolatedError):
        milnor_number(PlaneGerm.parse("y^2"))
    with pytest.raises(NonIsolatedError):
        milnor_number(PlaneGerm.parse("7"))


def test_germ_validation():
    with pytest.raises(InconsistentInputError):
        PlaneGerm({(0, 0): 0})
    with pytest.raises(InconsistentInputError):
        PlaneGerm({(-1, 0): 1})


def test_jet_requirement():
    e6 = PlaneGerm.parse("x^3+y^4")
    assert jet_requirement(e6, milnor_number(e6).basis) == 6
    a7 = PlaneGerm.parse("y^2+y*x^4")
    assert jet_requirement(a7, milnor_number(a7).basis) == 7
    node = PlaneGerm.parse("x^2+y^2")
    assert jet_requirement(node, milnor_number(node).basis) == 4


def test_morsification_reference():
    a7 = morsification_reference("A7")
    assert [a7.roles[c] for c in a7.curves] == [
        "boundary-circle", "cross-arc", "boundary-circle", "cross-arc",
        "boundary-circle", "cross-arc", "boundary-circle"]
    inv = neighborhood_invariants(a7)
    assert (inv.euler, inv.boundary, inv.genus) == (-6, 2, 3)
    e6 = morsification_reference("E6")
    assert is_e_arboreal(e6)
    a2 = morsification_reference("A2")
    assert not a2.roles
    with pytest.raises(UnsupportedTypeError):
        morsification_reference("Z9")


def test_parser():
    f = PlaneGerm.parse("-x^2 + 3/2*x*y - y^3 + x^2")
    assert f.terms == {(1, 1): __import__("fractions").Fraction(3, 2), (0, 3): -1}
    assert PlaneGerm.parse("x - x").is_zero()
    with pytest.raises(InconsistentInputError):
        PlaneGerm.parse("x^2 + z")

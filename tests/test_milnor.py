import random
from fractions import Fraction

import pytest

import rspin.milnor as milnormod
from rspin.errors import InconsistentInputError, NonIsolatedError, UnsupportedTypeError
from rspin.milnor import (
    PlaneGerm,
    _quotient_monomials,
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


def _grlex_sorted(monomials):
    """Ascending graded lex with x > y: 1, x, y, x^2, xy, y^2, ..."""
    return sorted(monomials, key=lambda m: (m[0] + m[1], -m[0]))


def _rational_quotient_monomials(f, n):
    """Reference elimination over Q, pivot rows normalised to a leading 1."""
    fx, fy = jacobian(f)
    columns = _grlex_sorted((i, j) for i in range(n + 1) for j in range(n + 1 - i))
    columns.reverse()
    col_index = {m: k for k, m in enumerate(columns)}
    rows = []
    for g in (fx, fy):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                row = {col_index[(i + a, j + b)]: c
                       for (i, j), c in g.terms.items() if i + a + j + b <= n}
                if row:
                    rows.append(row)
    pivot_rows = {}
    for row in rows:
        while row:
            lead = min(row)
            if lead not in pivot_rows:
                break
            factor = row.pop(lead)
            for k, v in pivot_rows[lead].items():
                if k == lead:
                    continue
                new = row.get(k, Fraction(0)) - factor * v
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
        if row:
            lead = min(row)
            inv = row[lead]
            pivot_rows[lead] = {k: v / inv for k, v in row.items()}
    pivot_monos = {columns[p] for p in pivot_rows}
    standard = {m for m in columns if m not in pivot_monos}
    if standard != _staircase_complement(pivot_monos, n):
        return None
    return _grlex_sorted(standard)


def _random_germ(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randint(0, 7), rng.randint(0, 7)
        terms[(i, j)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
    return PlaneGerm(terms)


def test_fraction_free_elimination_matches_rational():
    # Rational and negative coefficients, sparse and dense germs; every
    # truncation degree up to 14, stable or not.
    rng = random.Random(41)
    for _ in range(40):
        f = _random_germ(rng)
        for n in range(15):
            assert _quotient_monomials(f, n) == _rational_quotient_monomials(f, n), (str(f), n)


# (y - c x^2)^2 + x^k and (c x - y^3)^2 + y^7, A_{k-1} and A_6: mu is this
# only for the exact rational coefficients; any other cross term lowers it.
_EXACT_SQUARES = {"y^2-2/3*x^2*y+1/9*x^4+x^5": 4, "y^2-4/5*x^2*y+4/25*x^4+x^7": 6,
                  "y^2-2/3*x^2*y+1/9*x^4+2/7*x^6": 5, "4/9*x^2-4/3*x*y^3+y^6+y^7": 6}


def _germ_families():
    for a in range(2, 9):
        for b in range(a, 17 - a):
            yield f"x^{a}+y^{b}"
            yield f"-3/2*x^{a}+5/7*y^{b}"
    for k in range(1, 13):
        yield f"x^{k + 1}+y^2"
    for k in range(4, 13):
        yield f"x^2*y+y^{k - 1}"
        yield f"x^2*y-2/3*y^{k - 1}"
    yield from ("x^3+y^4", "x^3+x*y^3", "x^3+y^5", "-x^3+4*y^5")  # E6, E7, E8
    yield from _EXACT_SQUARES
    for a, b, i, j in ((3, 5, 1, 4), (4, 5, 2, 3), (4, 7, 3, 2), (3, 7, 2, 3),
                       (5, 6, 3, 3), (4, 9, 2, 5)):
        yield f"x^{a}+y^{b}+3*x^{i}*y^{j}"
        yield f"x^{a}-y^{b}-7/4*x^{i}*y^{j}"


def test_milnor_number_matches_rational_elimination(monkeypatch):
    germs = [PlaneGerm.parse(text) for text in _germ_families()]
    fast = [milnor_number(f) for f in germs]
    monkeypatch.setattr(milnormod, "_quotient_monomials", _rational_quotient_monomials)
    for f, result in zip(germs, fast):
        assert result == milnor_number(f), str(f)
    for text, mu in _EXACT_SQUARES.items():
        assert milnor_number(PlaneGerm.parse(text)).mu == mu, text


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

import math
import random
from fractions import Fraction

import pytest

import rspin.milnor as milnormod
from rspin.errors import (
    InconsistentInputError,
    NonIsolatedError,
    NotRepresentableError,
    UnsupportedTypeError,
)
from rspin.milnor import (
    MilnorResult,
    PlaneGerm,
    _integer_terms,
    _intersection,
    _quotient_monomials,
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
    # The basis first appears one degree below the truncation and then repeats.
    for n in (res.truncation - 1, res.truncation, res.truncation + 3):
        assert tuple(_quotient_monomials(f, n)) == res.basis
    assert len(_quotient_monomials(f, res.truncation - 2)) < res.mu


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


def test_quotient_monomials_form_a_staircase():
    # The pivots span an ideal mod m^(n+1) under a monomial order, so the
    # standard set is exactly what no pivot monomial divides.
    for f in _random_germs(60, seed=23):
        for n in range(1, 13):
            standard = _quotient_monomials(f, n)
            pivots = {(a, b) for a in range(n + 1) for b in range(n + 1 - a)} - set(standard)
            assert set(standard) == _brute_complement(pivots, n), (str(f), n)


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
    return _grlex_sorted(m for m in columns if m not in pivot_monos)


def _random_germ(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randint(0, 7), rng.randint(0, 7)
        terms[(i, j)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
    return PlaneGerm(terms)


def _random_germs(count, seed):
    """Seeded random germs; most carry pure powers x^a and y^b, so most are isolated."""
    rng = random.Random(seed)
    for _ in range(count):
        terms = dict(_random_germ(rng).terms)
        if rng.random() < 0.6:
            terms[(rng.randint(2, 7), 0)] = rng.choice([-3, 1, 2])
            terms[(0, rng.randint(2, 7))] = rng.choice([-2, 1, 3])
        yield PlaneGerm(terms)


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


def _toolkit_germs():
    """Brieskorn-Pham x^a + y^b with a + b <= 25 and semi-quasi-homogeneous
    x^a + y^b + c x^i y^j with i/a + j/b > 1 (the A, D, E normal forms are in
    `_germ_families`)."""
    for a in range(2, 13):
        for b in range(a, 26 - a):
            yield f"{'23'[b % 2]}*x^{a}+y^{b}"
    for a in range(3, 10):
        for b in range(a, 19 - a, 2):
            for i in range(1, a):
                j = (a * b - i * b) // a + 1 + (i + b) % 2
                yield f"x^{a}+3*y^{b}+{i + j}*x^{i}*y^{j}"


def _two_degree_oracle(f, ceiling=24):
    """The loop that answered before the intersection number: raise the
    truncation degree until two consecutive degrees give the same standard
    set, and call the germ not isolated past the ceiling."""
    fx, fy = jacobian(f)
    prev = None
    for n in range(max(1, fx.degree(), fy.degree()), ceiling + 1):
        cur = _quotient_monomials(f, n)
        if cur == prev:
            return MilnorResult(len(cur), tuple(cur), n)
        prev = cur
    raise NonIsolatedError(f"no stabilization below degree {ceiling}")


def test_milnor_number_matches_two_degree_oracle():
    germs = [PlaneGerm.parse(text) for text in (*_germ_families(), *_toolkit_germs())]
    germs += _random_germs(200, seed=5)
    answered = 0
    for f in germs:
        fx, fy = jacobian(f)
        if any(all(m[k] for m in (*fx.terms, *fy.terms)) for k in (0, 1)):
            # A variable divides both partials: not isolated, whatever the
            # oracle's cost of running to its ceiling.
            with pytest.raises(NonIsolatedError):
                milnor_number(f)
            continue
        try:
            want = _two_degree_oracle(f)
        except NonIsolatedError:
            # Either not isolated, or deeper than the oracle's ceiling.
            try:
                assert milnor_number(f).truncation > 24, str(f)
            except NonIsolatedError:
                pass
            continue
        answered += 1
        assert milnor_number(f) == want, str(f)
        assert jet_requirement(f, milnor_number(f).basis) == jet_requirement(f, want.basis)
        bound = fx.degree() * fy.degree()
        assert _intersection(_integer_terms(fx), _integer_terms(fy), bound) == want.mu, str(f)
    assert answered > 500


def test_answers_past_the_old_degree_ceiling():
    res = milnor_number(PlaneGerm.parse("x^14+y^15"))
    assert (res.mu, res.truncation) == (182, 26)
    assert set(res.basis) == {(i, j) for i in range(13) for j in range(14)}
    assert jet_requirement(PlaneGerm.parse("x^14+y^15"), res.basis) == 25
    res = milnor_number(PlaneGerm.parse("x^30+y^2"))
    assert res.mu == 29 and res.basis == tuple((i, 0) for i in range(29))
    for text in ("y", "x+y^2", "1+x"):
        assert milnor_number(PlaneGerm.parse(text)) == MilnorResult(0, (), 2), text


def _product(*factors):
    terms = {(0, 0): Fraction(1)}
    for text in factors:
        out = {}
        for (i, j), c in terms.items():
            for (a, b), d in PlaneGerm.parse(text).terms.items():
                out[i + a, j + b] = out.get((i + a, j + b), 0) + c * d
        terms = {m: c for m, c in out.items() if c}
    return PlaneGerm(terms)


# 8 terms, divisible by x^3 y: once 5.0 s of elimination at truncation degree 20.
_DENSE = ("-27*x^3*y^2 - 24*x^3*y^6 - 19*x^4*y - 77*x^5*y - 38*x^5*y^3"
          " + 3*x^5*y^6 + 46*x^4*y^7 + 39*x^9*y^9")


def test_non_isolated_errors():
    for f in (PlaneGerm.parse("y^2"), PlaneGerm.parse("7"), PlaneGerm.parse("0"),
              PlaneGerm.parse("x^4-2*x^2*y^3+y^6"), PlaneGerm.parse(_DENSE),
              _product("x^2-y^3", "x^2-y^3", "1+x+y"),
              _product("x^2+y^3+x*y", "x^2+y^3+x*y", "x^3-y^4+2")):
        with pytest.raises(NonIsolatedError):
            milnor_number(f)


def test_squared_factor_is_not_isolated():
    # f = h^2 k with h(0) = 0: h divides both partials.  h = x^a - c y^b + ...
    # has no monomial factor, so the intersection loop has to find it.
    rng = random.Random(31)
    for _ in range(30):
        h = f"x^{rng.randint(1, 3)}-{rng.randint(1, 4)}*y^{rng.randint(1, 3)}" + \
            rng.choice(["", f"+{rng.randint(1, 4)}*x^{rng.randint(1, 2)}*y"])
        k = "+".join(f"{rng.randint(1, 5)}*x^{rng.randint(0, 3)}*y^{rng.randint(0, 3)}"
                     for _ in range(rng.randint(1, 3)))
        with pytest.raises(NonIsolatedError):
            milnor_number(_product(h, h, k))


def test_basis_matrix_size_bound(monkeypatch):
    with pytest.raises(NotRepresentableError):
        milnor_number(PlaneGerm.parse("x^100000+y^2"))
    # 45 columns hold truncation degree 8: x^9 + y^2 fits, x^10 + y^2 does not.
    monkeypatch.setattr(milnormod, "SEARCH_LIMIT", 45)
    assert milnor_number(PlaneGerm.parse("x^9+y^2")).mu == 8
    with pytest.raises(NotRepresentableError, match="over 45 columns"):
        milnor_number(PlaneGerm.parse("x^10+y^2"))


def _linear_search_oracle(f):
    """The scan the jumping search replaced: n = start, start + 1, ..."""
    fx, fy = jacobian(f)
    mu = _intersection(_integer_terms(fx), _integer_terms(fy), fx.degree() * fy.degree())
    n = max(1, fx.degree(), fy.degree(), math.isqrt(2 * mu) - 1)
    while len(standard := _quotient_monomials(f, n)) < mu:
        n += 1
    return MilnorResult(mu, tuple(standard), n + 1)


def test_basis_search_never_passes_the_least_truncation(monkeypatch):
    probes = []
    monkeypatch.setattr(milnormod, "_quotient_monomials",
                        lambda f, n: probes.append(n) or _quotient_monomials(f, n))
    deep = ("x^40+y^41", "x^25+y^60", "x^12+y^70+x^7*y^9", "x^31+x*y^29")
    for text in (*_germ_families(), *_toolkit_germs(), *deep):
        f = PlaneGerm.parse(text)
        probes.clear()
        result = milnor_number(f)
        # Increasing probes, the last at the least truncation: a subset of the scan's.
        assert probes == sorted(set(probes)) and probes[-1] == result.truncation - 1, text
        if text in deep:
            assert len(probes) <= 8, (text, probes)
            if not _transversal(f, result.mu):  # those are checked below
                assert result == _linear_search_oracle(f), text
    # 5050 columns hold truncation 99, where x^51 + y^52 stabilizes; with
    # 5049 the closed form proves it needs more without building any matrix.
    monkeypatch.setattr(milnormod, "SEARCH_LIMIT", 5050)
    assert milnor_number(PlaneGerm.parse("x^51+y^52")).truncation == 100
    monkeypatch.setattr(milnormod, "SEARCH_LIMIT", 5049)
    probes.clear()
    with pytest.raises(NotRepresentableError, match="over 5049 columns"):
        milnor_number(PlaneGerm.parse("x^51+y^52"))
    assert probes == []
    # x^31 + x y^29 (tangent cones share the line x = 0) stabilizes at 57; 1710
    # columns hold truncation 56, and the jumps prove it without passing 56.
    monkeypatch.setattr(milnormod, "SEARCH_LIMIT", 1710)
    probes.clear()
    with pytest.raises(NotRepresentableError, match="over 1710 columns"):
        milnor_number(PlaneGerm.parse("x^31+x*y^29"))
    assert probes and max(probes) <= 56


def _transversal(f, mu):
    """mu = ord f_x * ord f_y > 0: the partials share no tangent line."""
    fx, fy = jacobian(f)
    return mu > 0 and mu == fx.order() * fy.order()


def test_transversal_germs_take_one_elimination(monkeypatch):
    germs = [PlaneGerm.parse(text) for text in
             (*_germ_families(), *_toolkit_germs(), "x^40+y^41", "x^25+y^60")]
    germs += _random_germs(200, seed=5)
    probes = []
    monkeypatch.setattr(milnormod, "_quotient_monomials",
                        lambda f, n: probes.append(n) or _quotient_monomials(f, n))
    transversal = 0
    for f in germs:
        probes.clear()
        try:
            result = milnor_number(f)
        except NonIsolatedError:
            continue
        if _transversal(f, result.mu):
            transversal += 1
            assert probes == [result.truncation - 1], (str(f), probes)
            assert result == _linear_search_oracle(f), str(f)
    assert transversal > 300


def test_germ_validation():
    with pytest.raises(InconsistentInputError):
        PlaneGerm({(0, 0): 0})
    with pytest.raises(InconsistentInputError):
        PlaneGerm({(-1, 0): 1})
    with pytest.raises(InconsistentInputError, match="duplicate"):
        PlaneGerm([((1, 0), 1), ((1, 0), 2)])
    assert PlaneGerm([((1, 0), 1), ((0, 2), 2)]).terms == {(1, 0): 1, (0, 2): 2}


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

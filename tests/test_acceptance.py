"""Acceptance gate: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import itertools
import math
import random
import time

import pytest

from rspin.assemblage import capping_order, monodromy_report
from rspin.braidcalc import in_stabilizer, meridian, correction_plan, psi
from rspin.curveconf import e6_a7_core, is_e_arboreal, is_spanning, neighborhood_invariants
from rspin.errors import NonIsolatedError
from rspin.milnor import PlaneGerm, milnor_number
from rspin.picard import (
    JetLedger,
    catalog_lattice,
    catalog_names,
    genus_of_section,
    intersect,
    jet_splitting_certificate,
    smoothed_genus,
)
from rspin.winding import (
    HomologyCurve,
    QuadraticFormMod2,
    TwistWord,
    WindingContext,
    act,
    enumerate_forms,
    is_admissible,
)


def _report(number: int, label: str, start: float, budget: float) -> None:
    elapsed = time.time() - start
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {label}")


def test_criterion_1_milnor_numbers():
    start = time.time()
    e6 = milnor_number(PlaneGerm.parse("x^3+y^4"))
    assert e6.mu == 6
    assert set(e6.basis) == {(a, b) for a in (0, 1) for b in (0, 1, 2)}
    a7 = milnor_number(PlaneGerm.parse("y^2+y*x^4"))
    assert a7.mu == 7
    assert set(a7.basis) == {(0, 0), (1, 0), (2, 0), (3, 0),
                             (0, 1), (1, 1), (2, 1)}
    _report(1, "Milnor numbers and bases for the two reference germs", start, 1.0)


def test_criterion_2_core_reproduction():
    start = time.time()
    core = e6_a7_core()
    assert is_e_arboreal(core)
    inv = neighborhood_invariants(core)
    assert (inv.euler, inv.boundary, inv.genus) == (-12, 2, 6)
    assert is_spanning(core, (6, 2))
    _report(2, "thirteen-curve core is E-arboreal and spans a genus-6 "
               "two-boundary surface", start, 1.0)


def test_criterion_3_plane_curve_pipeline():
    start = time.time()
    for a in range(6, 10):
        for b in range(1, 4):
            lat, ledger = catalog_lattice("P2")
            doc = monodromy_report(lat.divisor((a,)), lat.divisor((b,)), ledger)
            r, r_prime = doc.quantities["r"], doc.quantities["r_prime"]
            assert r == a + b - 3
            assert r_prime == (a + b - 3) * math.gcd(a, b)
            assert r_prime % r == 0
            assert doc.verdict == f"Gamma_L = Mod(E)[phi_M], r = {r}"
            assert doc.quantities["conclusion"] == f"{r}-spin mapping class group"
    lat, ledger = catalog_lattice("P2")
    doc = monodromy_report(lat.divisor((6,)), lat.divisor((1,)), ledger)
    assert (doc.quantities["r"], doc.quantities["r_prime"]) == (4, 4)
    _report(3, "plane-curve pipeline r = a+b-3, r' = (a+b-3)gcd(a,b) on the "
               "6<=a<=9, 1<=b<=3 grid", start, 1.0)


def test_criterion_4_capping_formula():
    start = time.time()
    rng = random.Random(2024)
    for _ in range(1000):
        values = [rng.randint(-40, 40) for _ in range(rng.randint(1, 7))]
        got = capping_order(values)
        shifted = [abs(v + 1) for v in values]
        if all(s == 0 for s in shifted):
            assert got == 0
            continue
        # Independent oracle: brute-force divisor search.
        best = 1
        for t in range(1, max(shifted) + 1):
            if all(s % t == 0 for s in shifted):
                best = t
        assert got == best
    _report(4, "capping order matches brute-force divisor search on 1000 "
               "random value lists", start, 1.0)


def test_criterion_5_psi_calculus():
    start = time.time()
    rng = random.Random(55)
    for d in range(6, 11):
        for _ in range(1000):
            k = [rng.randint(-9, 9) for _ in range(d)]
            if sum(k) % 2:
                k[rng.randrange(d)] += 1
            plan = correction_plan(k)
            combined = [a + b for a, b in zip(psi(plan.word, d).vec, k)]
            assert combined == [0] * d
    relation = [meridian(1, 2), meridian(3, 4),
                meridian(1, 3, -1), meridian(2, 4, -1)]
    assert in_stabilizer(relation, 6)
    _report(5, "correction plans kill 1000 random even-sum vectors for each "
               "d in 6..10; the four-index meridian relation lies in the kernel",
            start, 1.0)


def test_criterion_6_winding_dynamics():
    start = time.time()
    rng = random.Random(66)
    # Twist round trip: T_c then T_c^{-1} is the identity on (class, winding).
    for _ in range(200):
        g = rng.randint(1, 3)
        r = rng.choice([0, 2, 3, 4])
        ctx = WindingContext(r, g)
        declared = {
            "c": HomologyCurve("c", tuple(rng.randint(-2, 2)
                                          for _ in range(2 * g)),
                               rng.randint(0, max(r - 1, 4))).normalized(ctx)}
        target = HomologyCurve("t", tuple(rng.randint(-2, 2)
                                          for _ in range(2 * g)),
                               rng.randint(0, max(r - 1, 4))).normalized(ctx)
        word = TwistWord([("c", 1), ("c", -1)])
        assert act(word, target, declared, ctx) == target

    # Admissible words preserve every winding value: 1000 random words.
    for _ in range(1000):
        g = rng.randint(1, 3)
        r = rng.choice([0, 2, 3, 4])
        ctx = WindingContext(r, g)
        declared = {}
        for i in range(3):
            cls = [0] * (2 * g)
            cls[rng.randrange(2 * g)] = rng.choice([1, -1, 2])
            cls[rng.randrange(2 * g)] += rng.randint(-1, 1)
            curve = HomologyCurve(f"c{i}", tuple(cls), 0)
            if not is_admissible(curve, ctx):
                curve = HomologyCurve(f"c{i}", tuple(
                    1 if j == 0 else 0 for j in range(2 * g)), 0)
            declared[f"c{i}"] = curve
        word = TwistWord([(f"c{rng.randint(0, 2)}", rng.choice([-2, -1, 1, 2]))
                          for _ in range(rng.randint(1, 6))])
        tracked = HomologyCurve("t", tuple(rng.randint(-2, 2)
                                           for _ in range(2 * g)),
                                rng.randint(0, 5)).normalized(ctx)
        out = act(word, tracked, declared, ctx)
        assert out.winding == tracked.winding

    # Mod-2 transvection preservation of q, brute force for g <= 3:
    # transvections along admissible vectors (winding 0, q = 1) preserve q.
    for g in (1, 2, 3):
        vectors = list(itertools.product((0, 1), repeat=2 * g))
        for values in itertools.product((0, 1), repeat=2 * g):
            q = QuadraticFormMod2(g, values)
            for x in vectors:
                if all(v == 0 for v in x) or q(x) != 1:
                    continue
                assert all(q(q.transvect(v, x)) == q(v) for v in vectors)
    _report(6, "twist round trips, admissible-word winding preservation on "
               "1000 words, and mod-2 transvection q-preservation for g <= 3",
            start, 5.0)


def test_criterion_7_arf_census():
    start = time.time()
    census1 = enumerate_forms(1)
    census2 = enumerate_forms(2)
    assert census1 == {0: 3, 1: 1}
    assert census2 == {0: 10, 1: 6}
    # Closed form checked as a derived identity, not assumed.
    for g, census in ((1, census1), (2, census2)):
        assert census[0] == 2 ** (g - 1) * (2 ** g + 1)
        assert census[0] + census[1] == 2 ** (2 * g)
    _report(7, "Arf census 3/1 at genus 1 and 10/6 at genus 2, closed form "
               "verified against the enumeration", start, 1.0)


def test_criterion_8_adjunction_consistency():
    start = time.time()
    rng = random.Random(88)
    names = catalog_names()
    checked = 0
    while checked < 500:
        lat, _ = catalog_lattice(rng.choice(names))
        c = lat.divisor(rng.randint(-4, 6) for _ in range(lat.rank))
        d = lat.divisor(rng.randint(-4, 6) for _ in range(lat.rank))
        k = lat.canonical_class
        if intersect(c, k + c) % 2 or intersect(d, k + d) % 2:
            continue
        assert smoothed_genus(c, d) == genus_of_section(c + d)
        checked += 1
    _report(8, "smoothed genus equals section genus on 500 random catalog "
               "classes", start, 1.0)


def test_criterion_9_hypothesis_gate():
    start = time.time()
    lat, _ = catalog_lattice("P2")
    h = lat.divisor((1,))
    base = JetLedger()
    base.declare(h, 1)
    split = jet_splitting_certificate(lat.divisor((7,)), base)
    assert split is not None
    assert split.l1 + split.l2 == lat.divisor((7,))
    assert split.jet1 >= 6 and split.jet2 >= 1
    assert jet_splitting_certificate(lat.divisor((5,)), base) is None
    _report(9, "hypothesis gate certifies degree 7 via 6 + 1 and leaves "
               "degree 5 uncertified from the base ledger", start, 1.0)


def test_criterion_10_milnor_numbers_without_a_degree_ceiling():
    start = time.time()
    res = milnor_number(PlaneGerm.parse("x^14+y^15"))
    assert res.mu == 182
    assert set(res.basis) == {(i, j) for i in range(13) for j in range(14)}
    _report(10, "x^14 + y^15 has mu = 182 and the box basis", start, 0.5)
    for factored, text in (
            ("(x^2 - y^3)^2 (1 + x + y)",
             "x^4 + x^5 + x^4*y - 2*x^2*y^3 - 2*x^3*y^3 - 2*x^2*y^4 + y^6 + x*y^6 + y^7"),
            ("(x^2 + y^3 + xy)^2 (x^3 - y^4 + 2)",
             "2*x^4 + 4*x^3*y + 2*x^2*y^2 + 4*x^2*y^3 + 4*x*y^4 + 2*y^6 + x^7 + 2*x^6*y"
             " + x^5*y^2 + 2*x^5*y^3 + x^4*y^4 - 2*x^3*y^5 - x^2*y^6 + x^3*y^6"
             " - 2*x^2*y^7 - 2*x*y^8 - y^10")):
        start = time.time()
        with pytest.raises(NonIsolatedError):
            milnor_number(PlaneGerm.parse(text))
        _report(10, f"{factored} is not isolated", start, 0.5)

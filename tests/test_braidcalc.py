import random

import pytest

from rspin.braidcalc import (
    BraidGenerator,
    boundary_twist,
    correction_plan,
    homology_trace,
    in_stabilizer,
    meridian,
    parse_word,
    point_push,
    psi,
    render_word,
    stabilizer_element,
)
from rspin.errors import InconsistentInputError, ParityError, UnsupportedTypeError


def test_psi_on_generators():
    assert psi([meridian(1, 2)], 6).vec == (1, 1, 0, 0, 0, 0)
    assert psi([boundary_twist(3, 5)], 6).vec == (0, 0, 0, 0, 0, 0)
    assert psi([stabilizer_element("comm", 9)], 4).vec == (0, 0, 0, 0)
    assert psi([meridian(1, 2), meridian(1, 3, -1)], 6).vec == (0, 1, -1, 0, 0, 0)


def test_psi_even_sum_always():
    rng = random.Random(8)
    for _ in range(300):
        d = rng.randint(3, 9)
        word = []
        for _ in range(rng.randint(0, 8)):
            i = rng.randint(1, d - 1)
            j = rng.randint(i + 1, d)
            word.append(meridian(i, j, rng.randint(-4, 4)))
            if rng.random() < 0.3:
                word.append(boundary_twist(rng.randint(1, d), rng.randint(-2, 2)))
        assert sum(psi(word, d).vec) % 2 == 0


def test_psi_is_a_homomorphism():
    rng = random.Random(9)
    for _ in range(200):
        d = rng.randint(3, 8)
        u = [meridian(1, rng.randint(2, d), rng.randint(-3, 3))]
        v = [meridian(rng.randint(1, d - 1), d, rng.randint(-3, 3))]
        assert psi(u + v, d).vec == (psi(u, d) + psi(v, d)).vec


def test_psi_rejects_undeclared_kinds():
    with pytest.raises(InconsistentInputError):
        psi([point_push((1, 0))], 6)
    with pytest.raises(InconsistentInputError):
        psi([meridian(1, 2)], 2)  # d < 3
    with pytest.raises(InconsistentInputError):
        psi([meridian(1, 9)], 6)  # out of range


def test_halftwist_is_an_unknown_kind():
    with pytest.raises(UnsupportedTypeError, match="unknown generator kind 'halftwist'"):
        BraidGenerator("halftwist", (1, 2))


def test_in_stabilizer():
    assert in_stabilizer([], 6)
    assert in_stabilizer([meridian(1, 2, 2), meridian(1, 2, -2)], 6)
    # sigma_12 sigma_34 sigma_13^-1 sigma_24^-1 lies in the kernel.
    rel = [meridian(1, 2), meridian(3, 4), meridian(1, 3, -1), meridian(2, 4, -1)]
    assert in_stabilizer(rel, 6)
    assert not in_stabilizer([meridian(1, 2)], 6)


def test_plan_identity():
    plan = correction_plan([0] * 6)
    assert plan.word == () and plan.exponent == 0


def test_plan_examples():
    plan = correction_plan([1, 1, 0, 0, 0, 0])
    assert plan.exponent == 0
    combined = [a + b for a, b in zip(psi(plan.word, 6).vec, [1, 1, 0, 0, 0, 0])]
    assert combined == [0] * 6
    plan = correction_plan([2, 0, 0, 0, 0, 0])
    assert plan.exponent == 2


def test_plan_random_even_vectors():
    rng = random.Random(10)
    for d in range(6, 11):
        for _ in range(300):
            k = [rng.randint(-9, 9) for _ in range(d)]
            if sum(k) % 2:
                k[rng.randrange(d)] += 1
            plan = correction_plan(k)
            out = [a + b for a, b in zip(psi(plan.word, d).vec, k)]
            assert out == [0] * d
            assert plan.exponent == k[0] - k[1]


def test_plan_parity_and_size_errors():
    with pytest.raises(ParityError):
        correction_plan([1, 0, 0, 0, 0, 0])
    with pytest.raises(InconsistentInputError):
        correction_plan([2, 0, 0, 0, 0])  # d = 5
    for arc in ((1,), (1, 2, 3)):
        with pytest.raises(InconsistentInputError, match="arc endpoints must be two"):
            correction_plan([2, 0, 0, 0, 0, 0], arc_endpoints=arc)


def test_plan_relabeled_indices():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(6, 9)
        k = [rng.randint(-5, 5) for _ in range(d)]
        if sum(k) % 2:
            k[0] += 1
        idx = rng.sample(range(1, d + 1), 3)
        plan = correction_plan(k, arc_endpoints=(idx[0], idx[1]), third=idx[2])
        out = [a + b for a, b in zip(psi(plan.word, d).vec, k)]
        assert out == [0] * d
        assert plan.exponent == k[idx[0] - 1] - k[idx[1] - 1]


def test_homology_trace():
    push = point_push((1, 0, 0, 0))
    assert homology_trace([push], 2) == (1, 0, 0, 0)
    assert homology_trace([push, push ** -1], 2) == (0, 0, 0, 0)
    assert homology_trace([meridian(1, 2, 5), boundary_twist(1, 3)], 2) == (0, 0, 0, 0)
    with pytest.raises(InconsistentInputError):
        homology_trace([point_push((1, 0))], 2)  # label length 2 != 4


def test_word_grammar_round_trip():
    word = parse_word("m(1,2)^2 b(3)^-1 s(comm4)")
    assert render_word(word) == "m(1,2)^2 b(3)^-1 s(comm4)"
    assert psi(word, 5).vec == (2, 2, 0, 0, 0)
    with pytest.raises(InconsistentInputError):
        parse_word("q(1,2)")

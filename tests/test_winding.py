import itertools
import random

import pytest

from rspin.errors import (
    InconsistentInputError,
    RefinementOrderError,
    UnknownComponentError,
)
from rspin.winding import (
    HomologyCurve,
    QuadraticFormMod2,
    TwistWord,
    WindingContext,
    WindingFunction,
    act,
    coherence_check,
    enumerate_forms,
    is_admissible,
    orbit_gcd,
    reduce_mod,
    twist_value,
)


def random_curve(rng, ctx, name, winding=None):
    cls = tuple(rng.randint(-2, 2) for _ in range(ctx.class_length))
    w = rng.randint(-6, 6) if winding is None else winding
    return HomologyCurve(name, cls, w).normalized(ctx)


def test_twist_value_basic():
    assert twist_value(3, 5, 0, 1, 0) == 3           # disjoint curves
    assert twist_value(2, 3, 1, 1, 0) == 5           # phi(b) + phi(a)
    assert twist_value(2, 3, 1, 4, 7) == (2 + 12) % 7


def test_twist_value_closed_form_matches_iteration():
    # Oracle: iterate the single-twist rule; the pairing is twist-invariant.
    rng = random.Random(1)
    for _ in range(300):
        r = rng.choice([0, 2, 3, 4, 9])
        pa, pc = rng.randint(-9, 9), rng.randint(-9, 9)
        pair, ell = rng.randint(-3, 3), rng.randint(0, 7)
        stepped = twist_value(pa, pc, pair, 0, r)  # canonical representative
        for _ in range(ell):
            stepped = twist_value(stepped, pc, pair, 1, r)
        assert twist_value(pa, pc, pair, ell, r) == stepped


def test_act_identity_and_inverse():
    ctx = WindingContext(4, 2)
    a = HomologyCurve("a", (1, 0, 0, 0), 0)
    c = HomologyCurve("c", (0, 1, 1, 0), 3)
    declared = {"a": a, "c": c}
    assert act(TwistWord([]), a, declared, ctx) == a.normalized(ctx)
    word = TwistWord([("c", 1), ("c", -1)])
    assert act(word, a, declared, ctx) == a.normalized(ctx)


def test_act_round_trip_random_words():
    rng = random.Random(2)
    for _ in range(200):
        g = rng.randint(1, 3)
        r = rng.choice([0, 2, 3, 4])
        ctx = WindingContext(r, g)
        declared = {f"c{i}": random_curve(rng, ctx, f"c{i}") for i in range(4)}
        word = TwistWord([(f"c{rng.randint(0, 3)}", rng.choice([-2, -1, 1, 2]))
                          for _ in range(rng.randint(1, 6))])
        target = random_curve(rng, ctx, "t")
        there = act(word, target, declared, ctx)
        back = act(word.inverse(), there, declared, ctx)
        assert back == target


def test_act_zero_winding_twist_preserves_values():
    ctx = WindingContext(3, 1)
    a = HomologyCurve("a", (1, 0), 0)
    b = HomologyCurve("b", (0, 1), 2)
    out = act(TwistWord([("a", 1)]), b, declared={"a": a, "b": b}, ctx=ctx)
    assert out.hclass != b.hclass        # class moved
    assert out.winding == b.winding      # winding preserved (admissible twist)


def test_act_nonzero_winding_twist_moves_some_curve():
    ctx = WindingContext(5, 1)
    c = HomologyCurve("c", (1, 0), 2)
    witness = HomologyCurve("w", (0, 1), 0)  # pairing 1 with c
    out = act(TwistWord([("c", 1)]), witness, {"c": c, "w": witness}, ctx)
    assert out.winding != witness.winding


def test_act_preserves_symplectic_pairing():
    rng = random.Random(3)
    for _ in range(200):
        g = rng.randint(1, 3)
        ctx = WindingContext(0, g)
        declared = {f"c{i}": random_curve(rng, ctx, f"c{i}") for i in range(3)}
        word = TwistWord([(f"c{rng.randint(0, 2)}", rng.choice([-1, 1, 2]))
                          for _ in range(rng.randint(1, 5))])
        x, y = random_curve(rng, ctx, "x"), random_curve(rng, ctx, "y")
        before = ctx.pairing(x.hclass, y.hclass)
        fx = act(word, x, declared, ctx)
        fy = act(word, y, declared, ctx)
        assert ctx.pairing(fx.hclass, fy.hclass) == before


def test_act_unknown_curve():
    ctx = WindingContext(0, 1)
    a = HomologyCurve("a", (1, 0), 0)
    with pytest.raises(UnknownComponentError):
        act(TwistWord([("ghost", 1)]), a, {"a": a}, ctx)


def test_coherence_check():
    # Annulus: opposite orientations cancel against chi = 0.
    assert coherence_check([5, -5], 0, 0)
    # Disk: single boundary value 1 = chi.
    assert coherence_check([1], 1, 0)
    # Pair of pants bounded by a, b, c: the reference values (0, 1-k, k) are
    # stated with the pants to the right, so their sum is -chi(P) = 1; with
    # the module's left-hand convention the negated values sum to chi = -1.
    for k in range(-5, 6):
        assert sum([0, 1 - k, k]) == 1
        assert coherence_check([0, k - 1, -k], -1, 0)
        assert coherence_check([0, k - 1, -k], -1, 4)


def test_is_admissible():
    ctx = WindingContext(4, 2, ("d1",))
    assert is_admissible(HomologyCurve("a", (1, 0, 0, 0, 0), 0), ctx)
    assert not is_admissible(HomologyCurve("a", (1, 0, 0, 0, 0), 1), ctx)
    # Boundary-only class caps to zero: separating, never admissible.
    assert not is_admissible(HomologyCurve("d", (0, 0, 0, 0, 1), 0), ctx)


def test_reduce_mod():
    ctx = WindingContext(4, 1)
    phi = WindingFunction(ctx, {"a": 0, "b": 2, "c": 3})
    out = reduce_mod(phi, 2)
    assert out.values == {"a": 0, "b": 0, "c": 1}
    framing = WindingFunction(WindingContext(0, 1), {"a": -7})
    assert reduce_mod(framing, 5).values == {"a": 3}
    with pytest.raises(RefinementOrderError):
        reduce_mod(phi, 3)


def test_reduce_mod_composes():
    ctx = WindingContext(4, 1)
    phi = WindingFunction(ctx, {"a": 3, "b": 2})
    assert reduce_mod(reduce_mod(phi, 2), 1).values == reduce_mod(phi, 1).values


def test_reduce_commutes_with_twist():
    rng = random.Random(4)
    for _ in range(200):
        r, r_new = 12, rng.choice([1, 2, 3, 4, 6])
        pa, pc = rng.randint(0, 11), rng.randint(0, 11)
        pair, e = rng.randint(-2, 2), rng.randint(-3, 3)
        big = twist_value(pa, pc, pair, e, r)
        assert big % r_new == twist_value(pa % r_new, pc % r_new, pair, e, r_new)


def test_arc_values_doubled():
    ctx = WindingContext(3, 1, ("d1",))
    phi = WindingFunction(ctx, arc_values_doubled={"t": 7})  # value 7/2 mod 3
    assert phi.arc_values_doubled["t"] == 1  # 7 mod 6
    framing = WindingFunction(WindingContext(0, 1), arc_values_doubled={"t": -3})
    assert framing.arc_values_doubled["t"] == -3


def test_orbit_gcd():
    assert orbit_gcd([1], 4, 8) == 4
    assert orbit_gcd([0], 12, 12) == 12
    assert orbit_gcd([2], 4, 8) == 8
    with pytest.raises(RefinementOrderError):
        orbit_gcd([1], 3, 8)
    with pytest.raises(InconsistentInputError):
        orbit_gcd([], 2, 4)


def test_orbit_gcd_divisibility_sandwich():
    rng = random.Random(6)
    for _ in range(200):
        r = rng.randint(1, 8)
        r_prime = r * rng.randint(1, 6)
        ks = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
        out = orbit_gcd(ks, r, r_prime)
        assert out % r == 0
        assert r_prime % out == 0 if out else r_prime == 0


# -- mod-2 quadratic forms ----------------------------------------------------


def test_form_extension_rule():
    rng = random.Random(7)
    for _ in range(100):
        g = rng.randint(1, 3)
        q = QuadraticFormMod2(g, [rng.randint(0, 1) for _ in range(2 * g)])
        u = [rng.randint(0, 1) for _ in range(2 * g)]
        v = [rng.randint(0, 1) for _ in range(2 * g)]
        pair = sum(u[2 * i] * v[2 * i + 1] + u[2 * i + 1] * v[2 * i]
                   for i in range(g)) % 2
        s = [(a + b) % 2 for a, b in zip(u, v)]
        assert q(s) == (q(u) + q(v) + pair) % 2


def brute_census(g):
    """Oracle: count all 2^{2g} forms by Arf invariant."""
    census = {0: 0, 1: 0}
    for values in itertools.product((0, 1), repeat=2 * g):
        census[QuadraticFormMod2(g, values).arf()] += 1
    return census


def test_arf_census():
    assert enumerate_forms(1) == {0: 3, 1: 1}
    assert enumerate_forms(2) == {0: 10, 1: 6}
    # No cost guard: the closed form is exact at any genus.
    for g in (7, 64):
        census = enumerate_forms(g)
        assert census[0] == 2 ** (g - 1) * (2 ** g + 1)
        assert census[1] == 2 ** (g - 1) * (2 ** g - 1)
    assert enumerate_forms(7) == {0: 8256, 1: 8128}
    with pytest.raises(InconsistentInputError):
        enumerate_forms(-1)


def test_arf_census_closed_form_identity():
    for g in range(0, 5):
        census = enumerate_forms(g)
        assert census == brute_census(g)
        assert census[0] + census[1] == 2 ** (2 * g)


def test_zero_basis_has_arf_zero():
    for g in range(1, 4):
        assert QuadraticFormMod2(g, [0] * (2 * g)).arf() == 0


def test_transvections_preserve_q_iff_admissible():
    # Brute force over all forms and vectors: the transvection along x
    # preserves q exactly when q(x) = 1, i.e. winding 0 in the
    # q = phi + 1 dictionary; a q(x) = 0 transvection always moves some value.
    for g in (1, 2, 3):
        vectors = list(itertools.product((0, 1), repeat=2 * g))
        for values in itertools.product((0, 1), repeat=2 * g):
            q = QuadraticFormMod2(g, values)
            for x in vectors:
                if all(v == 0 for v in x):
                    continue
                preserved = all(q(q.transvect(v, x)) == q(v) for v in vectors)
                assert preserved == (q(x) == 1)


def test_windings_dictionary():
    # Winding 0 on every basis curve gives q = 1 on the basis.
    q = QuadraticFormMod2.from_windings(2, [0, 0, 0, 0])
    assert q.basis_values == (1, 1, 1, 1)
    q = QuadraticFormMod2.from_windings(1, [1, 0])
    assert q.basis_values == (0, 1)

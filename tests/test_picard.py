import random
import time
from fractions import Fraction

import pytest

from rspin import cli, picard

from rspin.errors import (
    InconsistentInputError,
    LatticeMismatchError,
    NotRepresentableError,
    UncertifiedError,
)
from rspin.picard import (
    JetLedger,
    JetSplitting,
    PicardLattice,
    adjoint_and_root,
    catalog_lattice,
    catalog_names,
    genus_of_section,
    intersect,
    jet_compose,
    jet_splitting_certificate,
    lefschetz_full_decision,
    parse_lattice,
    render_lattice,
    smoothed_genus,
)


@pytest.fixture
def p2():
    return catalog_lattice("P2")[0]


@pytest.fixture
def quadric():
    return catalog_lattice("P1xP1")[0]


def test_intersect_p2(p2):
    h = p2.divisor((1,))
    assert intersect(h, h) == 1
    assert intersect(5 * h, 5 * h) == 25


def test_intersect_quadric(quadric):
    assert intersect(quadric.divisor((1, 0)), quadric.divisor((0, 1))) == 1


def test_intersect_symmetric_random():
    rng = random.Random(11)
    for name in catalog_names():
        lat, _ = catalog_lattice(name)
        for _ in range(20):
            a = lat.divisor(rng.randint(-5, 5) for _ in range(lat.rank))
            b = lat.divisor(rng.randint(-5, 5) for _ in range(lat.rank))
            assert intersect(a, b) == intersect(b, a)


def test_intersect_lattice_mismatch(p2, quadric):
    with pytest.raises(LatticeMismatchError):
        intersect(p2.divisor((1,)), quadric.divisor((1, 0)))


def test_signature_rejected():
    with pytest.raises(InconsistentInputError):
        PicardLattice(2, ((1, 0), (0, 1)), (0, 0))  # positive definite
    with pytest.raises(InconsistentInputError):
        PicardLattice(2, ((0, 0), (0, -1)), (0, 0))  # degenerate
    with pytest.raises(InconsistentInputError):
        PicardLattice(2, ((0, 1), (2, 0)), (0, 0))  # not symmetric


def test_signature_is_the_inertia_of_any_congruent_diagonal():
    # Sylvester: P^T D P has the inertia of D for every invertible P.
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        diag = [rng.choice([-3, -1, 0, 0, 1, 2]) for _ in range(n)]
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):  # unimodular: add a multiple of one row to another
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            k = rng.randint(-2, 2)
            if i != j:
                p[i] = [a + k * b for a, b in zip(p[i], p[j])]
        gram = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        expected = (sum(d > 0 for d in diag), sum(d < 0 for d in diag), diag.count(0))
        assert picard._signature(gram) == expected, gram


def test_adjoint_and_root(p2):
    h = p2.divisor((1,))
    rep = adjoint_and_root(5 * h)
    assert rep.adjoint.coords == (2,) and rep.divisibility == 2
    rep = adjoint_and_root(7 * h)
    assert rep.adjoint.coords == (4,) and rep.divisibility == 4
    rep = adjoint_and_root(3 * h)
    assert rep.degenerate and rep.divisibility == 0


def test_genus_of_section(p2, quadric):
    for d in range(1, 9):
        assert genus_of_section(p2.divisor((d,))) == (d - 1) * (d - 2) // 2
    assert genus_of_section(quadric.divisor((2, 2))) == 1


def test_genus_anticanonical_is_one():
    for name in ("P2", "dP3", "dP6"):
        lat, _ = catalog_lattice(name)
        minus_k = -lat.canonical_class
        assert genus_of_section(minus_k) == 1


def test_genus_odd_product_rejected():
    # A non-characteristic canonical vector is inconsistent input; the genus
    # must refuse to round rather than hide it.
    bad = PicardLattice(2, ((0, 1), (1, 0)), (-1, 0), name="inconsistent")
    with pytest.raises(NotRepresentableError):
        genus_of_section(bad.divisor((0, 1)))  # L.(K+L) = -1


def test_smoothed_genus_examples(p2, quadric):
    h = p2.divisor((1,))
    assert smoothed_genus(h, h) == 0 == genus_of_section(2 * h)
    assert smoothed_genus(6 * h, h) == 15 == genus_of_section(7 * h)
    one_one = quadric.divisor((1, 1))
    assert smoothed_genus(one_one, one_one) == 1 == genus_of_section(quadric.divisor((2, 2)))


def test_smoothed_genus_matches_section_genus_randomized():
    rng = random.Random(5)
    checked = 0
    while checked < 500:
        name = rng.choice(catalog_names())
        lat, _ = catalog_lattice(name)
        c = lat.divisor(rng.randint(-4, 6) for _ in range(lat.rank))
        d = lat.divisor(rng.randint(-4, 6) for _ in range(lat.rank))
        k = lat.canonical_class
        if intersect(c, k + c) % 2 or intersect(d, k + d) % 2:
            continue
        assert smoothed_genus(c, d) == genus_of_section(c + d)
        checked += 1


def test_divisibility_divides_every_pairing():
    rng = random.Random(23)
    for name in catalog_names():
        lat, _ = catalog_lattice(name)
        for _ in range(30):
            l = lat.divisor(rng.randint(-5, 5) for _ in range(lat.rank))
            rep = adjoint_and_root(l)
            if rep.degenerate:
                continue
            b = lat.divisor(rng.randint(-5, 5) for _ in range(lat.rank))
            assert intersect(rep.adjoint, b) % rep.divisibility == 0


def test_jet_ledger_monotone(p2):
    h = p2.divisor((1,))
    ledger = JetLedger()
    ledger.declare(h, 1)
    assert jet_compose(ledger, h, h) == 2
    ledger.declare(2 * h, 1)  # attempt to lower: must not stick
    assert ledger.level(2 * h) == 2
    before = {cls: ledger.level(cls) for cls in ledger.classes()}
    jet_compose(ledger, h, 2 * h)
    for cls, lvl in before.items():
        assert ledger.level(cls) >= lvl


def test_jet_compose_needs_entries(p2):
    ledger = JetLedger()
    ledger.declare(p2.divisor((1,)), 1)
    with pytest.raises(UncertifiedError):
        jet_compose(ledger, p2.divisor((1,)), p2.divisor((2,)))


def test_jet_compose_rule_instances(p2):
    h = p2.divisor((1,))
    ledger = JetLedger()
    ledger.declare(h, 1)
    level = 1
    for _ in range(6):
        level = jet_compose(ledger, (level) * h, h)
    assert ledger.level(7 * h) == 7
    ledger2 = JetLedger()
    ledger2.declare(p2.divisor((6,)), 6)
    ledger2.declare(h, 1)
    assert jet_compose(ledger2, p2.divisor((6,)), h) == 7
    ledger3 = JetLedger()
    ledger3.declare(p2.divisor((2,)), 3)
    assert jet_compose(ledger3, p2.divisor((2,)), p2.divisor((2,))) == 6


def test_hypothesis_certificate(p2):
    h = p2.divisor((1,))
    ledger = JetLedger()
    ledger.declare(h, 1)
    split = jet_splitting_certificate(7 * h, ledger)
    assert split is not None
    assert split.l1 + split.l2 == 7 * h
    assert split.jet1 >= 6 and split.jet2 >= 1
    assert jet_splitting_certificate(5 * h, ledger) is None


def test_hypothesis_direct_hit(quadric):
    ledger = JetLedger()
    l1, l2 = quadric.divisor((3, 3)), quadric.divisor((1, 1))
    ledger.declare(l1, 6)
    ledger.declare(l2, 1)
    split = jet_splitting_certificate(l1 + l2, ledger)
    assert split is not None and {split.l1, split.l2} <= {l1, l2, l1 + l2}


def pool_oracle(l, ledger):
    """Brute-force oracle: every sum of at most `budget` ledger classes.

    The budget floor(H.L / min H.g) (H the sum of the ledger classes) makes it
    complete: no part of a split of L can use more ledger classes than that.
    """
    base = [(cls.coords, ledger.level(cls)) for cls in ledger.classes()]
    if all(level == 0 for _, level in base):
        return None
    h = tuple(map(sum, zip(*(coords for coords, _ in base))))
    pairing = l.lattice.pairing
    budget = max(pairing(h, l.coords), 0) // min(pairing(h, coords) for coords, _ in base)
    pool = {}

    def extend(idx, coords, level, budget):
        if level > 0 and level > pool.get(coords, -1):
            pool[coords] = level
        if idx == len(base) or budget == 0:
            return
        step, lvl = base[idx]
        extend(idx + 1, coords, level, budget)
        new = coords
        for mult in range(1, budget + 1):
            new = tuple(x + y for x, y in zip(new, step))
            extend(idx + 1, new, level + mult * lvl, budget - mult)

    extend(0, (0,) * l.lattice.rank, 0, budget)
    for l1 in sorted(co for co, lv in pool.items() if lv >= 6):
        l2 = tuple(a - b for a, b in zip(l.coords, l1))
        if pool.get(l2, 0) >= 1:
            return JetSplitting(l.lattice.divisor(l1), l.lattice.divisor(l2),
                                pool[l1], pool[l2])
    return None


SEARCH_SURFACES = ["P2", "P1xP1", "F1", "dP2", "dP3", "K3-4"]


def very_ample(name):
    """The lattice and the very ample class H of its catalog ledger."""
    lat, ledger = catalog_lattice(name)
    return lat, ledger.classes()[0]


def random_entry(rng, lat, h):
    """A true ledger entry: kH at a level <= k, or a conic class H - E_i at level 0."""
    if lat.name.startswith("dP") and rng.random() < 0.4:
        i = rng.randrange(1, lat.rank)
        return lat.divisor((1,) + tuple(-int(j == i) for j in range(1, lat.rank))), 0
    k = rng.randint(1, 4)
    return k * h, rng.randint(0, k)


def random_case(rng):
    """A ledger of one to four true entries, and a class L to split."""
    lat, h = very_ample(rng.choice(SEARCH_SURFACES))
    ledger = JetLedger()
    for _ in range(rng.randint(1, 4)):
        ledger.declare(*random_entry(rng, lat, h))
    parts = rng.choices(ledger.classes(), k=rng.randint(1, 5))
    l = rng.randint(0, 8) * h
    for cls in parts:
        l = l + cls
    return lat, h, ledger, l


def test_exact_search_matches_the_complete_pool():
    rng = random.Random(17)
    certified = 0
    for _ in range(200):
        _, _, ledger, l = random_case(rng)
        split = jet_splitting_certificate(l, ledger)
        assert split == pool_oracle(l, ledger), (l, ledger.classes())
        certified += split is not None
    assert 40 < certified < 160


def test_one_entry_ledgers_match_the_complete_pool():
    for name in SEARCH_SURFACES:
        _, h = very_ample(name)
        for k in range(1, 5):
            for level in range(k + 1):
                ledger = JetLedger()
                ledger.declare(k * h, level)
                for m in range(0, 25):
                    l = m * h
                    assert jet_splitting_certificate(l, ledger) == pool_oracle(l, ledger)


def test_adding_an_entry_never_loses_a_certificate():
    rng = random.Random(29)
    kept = 0
    for _ in range(300):
        lat, h, ledger, l = random_case(rng)
        if jet_splitting_certificate(l, ledger) is None:
            continue
        ledger.declare(*random_entry(rng, lat, h))
        assert jet_splitting_certificate(l, ledger) is not None
        kept += 1
    assert kept > 50


def test_p2_every_degree_from_seven_certifies(p2):
    _, ledger = catalog_lattice("P2")
    for k in list(range(7, 201)) + [1000]:
        split = jet_splitting_certificate(p2.divisor((k,)), ledger)
        assert (split.l1.coords, split.l2.coords) == ((6,), (k - 6,))
        assert (split.jet1, split.jet2) == (6, k - 6)


def test_nine_entry_ledger_on_dp6_certifies():
    lat, _ = catalog_lattice("dP6")
    minus_k = -lat.canonical_class
    for top in (26, 27):  # 8 and 9 entries
        ledger = JetLedger()
        for k in [1] + list(range(20, top + 1)):
            ledger.declare(k * minus_k, 1)
        split = jet_splitting_certificate(7 * minus_k, ledger)
        assert split == JetSplitting(6 * minus_k, minus_k, 6, 1)


@pytest.mark.parametrize("name", ["P2", "P1xP1", "F1"])
def test_report_deep_ledger_splits_off_six_h(name, monkeypatch):
    # (m-1)H at level m-1 is a dominated multiple of H: dropping it leaves the
    # one-line search at most 14 sums, where keeping it took m + 1.
    monkeypatch.setattr(picard, "SEARCH_LIMIT", 64)
    _, h = very_ample(name)
    for m in (8, 30, 300):
        ledger = JetLedger()
        ledger.declare(h, 1)
        ledger.declare((m - 1) * h, m - 1)
        split = jet_splitting_certificate(m * h, ledger)
        assert split == JetSplitting(6 * h, (m - 6) * h, 6, m - 6)


def test_entry_without_positive_degree_rejected(p2):
    ledger = JetLedger()
    ledger.declare(p2.divisor((1,)), 1)
    ledger.declare(p2.divisor((0,)), 1)
    with pytest.raises(InconsistentInputError, match=r"\(0\) has degree 0"):
        jet_splitting_certificate(p2.divisor((7,)), ledger)
    dp1, _ = catalog_lattice("dP1")
    ledger = JetLedger()
    ledger.declare(dp1.divisor((1, 0)), 1)
    ledger.declare(dp1.divisor((0, 1)), 0)  # E1: E1.(H + E1) = -1
    with pytest.raises(InconsistentInputError, match=r"\(0,1\) has degree -1"):
        jet_splitting_certificate(dp1.divisor((7, 0)), ledger)


def test_zero_class_at_level_zero_is_a_true_entry(p2):
    # O_X is globally generated: the entry is true and adds nothing to any sum.
    _, ledger = catalog_lattice("P2")
    ledger.declare(p2.divisor((0,)), 0)
    for k in (6, 7, 30):
        assert (jet_splitting_certificate(p2.divisor((k,)), ledger)
                == jet_splitting_certificate(p2.divisor((k,)), catalog_lattice("P2")[1]))


def test_ledger_without_positive_level_certifies_nothing(p2):
    ledger = JetLedger()
    assert jet_splitting_certificate(p2.divisor((7,)), ledger) is None
    ledger.declare(p2.divisor((1,)), 0)
    ledger.declare(p2.divisor((0,)), 0)
    assert jet_splitting_certificate(p2.divisor((7,)), ledger) is None


@pytest.mark.parametrize("argv", [["lattice", "P2", "hypothesis", "1000"],
                                  ["report", "--surface", "P2", "--C", "999", "--D", "1"]],
                         ids=["hypothesis", "report"])
def test_degree_1000_is_fast(capsys, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0 and "(6)" in capsys.readouterr().out
    assert elapsed < 0.2, f"{' '.join(argv)} took {elapsed:.3f}s"


def line_oracle(n, entries, positive):
    """The split of n.c for a ledger of multiples (a, level) of c, by a table over 0..n."""
    best = [0] + [None] * n
    for t in range(1, n + 1):
        sums = [best[t - a] + level for a, level in entries if a <= t and best[t - a] is not None]
        best[t] = max(sums, default=None)
    for t in (range(n + 1) if positive else range(n, -1, -1)):
        if (best[t] or 0) >= 6 and (best[n - t] or 0) >= 1:
            return t, n - t, best[t], best[n - t]
    return None


LINES = [("P2", (1,)), ("P2", (-1,)), ("P1xP1", (1, 1)), ("P1xP1", (-1, -1)),
         ("F2", (1, 3)), ("dP3", (3, -1, -1, -1)), ("K3-4", (1,))]


def test_ledgers_on_one_line_match_the_line_oracle():
    """Multiples of one class c, including c < 0 in coordinate order, where L1 is the
    largest part; n runs past the point where copies of the best entry move out.
    Dominated multiples k.a at level <= k.level(a) move that point down."""
    rng = random.Random(41)
    for _ in range(300):
        name, c = rng.choice(LINES)
        lat = catalog_lattice(name)[0]
        c = lat.divisor(c)
        entries = {rng.randint(1, 5): rng.randint(0, 7) for _ in range(rng.randint(1, 3))}
        for a, level in list(entries.items())[:rng.randint(0, 2)]:
            k = rng.randint(2, 50)
            entries[k * a] = max(entries.get(k * a, 0), rng.randint(0, k * level))
        ledger = JetLedger()
        for a, level in entries.items():
            ledger.declare(a * c, level)
        n = rng.randint(0, 250)
        want = line_oracle(n, list(entries.items()), c.coords > (0,) * lat.rank)
        got = jet_splitting_certificate(n * c, ledger)
        if want is None:
            assert got is None, (name, c, entries, n)
        else:
            t, u, jet1, jet2 = want
            assert got == JetSplitting(t * c, u * c, jet1, jet2), (name, c, entries, n)


def test_best_entry_ranks_level_per_degree_as_the_fraction_does(monkeypatch):
    """The integer key picks the a* that Fraction(level, degree) picks on one-line
    ledgers, with a tie going to the smaller degree."""
    best_entry, seen = picard._best_entry, []

    def spy(steps):
        seen.append(steps)
        return best_entry(steps)

    monkeypatch.setattr(picard, "_best_entry", spy)
    rng = random.Random(43)
    ledgers = [("P2", (1,), {2: 2, 3: 3})] + [
        (*rng.choice(LINES), {rng.randint(1, 12): rng.randint(0, 9)
                              for _ in range(rng.randint(1, 4))}) for _ in range(300)]
    for name, c, entries in ledgers:
        lat = catalog_lattice(name)[0]
        ledger = JetLedger()
        for a, level in entries.items():
            ledger.declare(a * lat.divisor(c), level)
        jet_splitting_certificate(rng.randint(0, 60) * lat.divisor(c), ledger)
    assert best_entry(seen[0])[1:] == ((2,), 2) and len(seen) > 250
    for steps in seen:
        assert best_entry(steps) == max(steps, key=lambda s: (Fraction(s[2], s[0]), -s[0]))


@pytest.mark.parametrize("name,ledger", [
    ("P1xP1", {(1, 0): 0, (0, 1): 0, (1, 1): 1}),
    ("P1xP1", {(1, 0): 1, (0, 1): 1, (2, 1): 2}),
    ("P1xP1", {(1, 0): 1, (0, 1): 1, (2, 1): 2, (4, 2): 3}),
    ("F1", {(1, 2): 1, (0, 1): 0, (1, 1): 0}),
    ("dP2", {(1, 0, 0): 1, (1, -1, 0): 0, (1, 0, -1): 0, (2, -1, -1): 1}),
], ids=["quadric-rulings", "quadric-three", "quadric-dominated", "f1", "dp2-dependent"])
def test_dependent_ledgers_match_the_complete_pool(name, ledger):
    lat = catalog_lattice(name)[0]
    table = JetLedger()
    for coords, level in ledger.items():
        table.declare(lat.divisor(coords), level)
    rng = random.Random(43)
    for _ in range(40):
        l = lat.divisor([0] * lat.rank)
        for cls in rng.choices(table.classes(), k=rng.randint(0, 9)):
            l = l + cls
        if rng.random() < 0.3:  # sometimes off the ledger's semigroup, or its span
            l = l + lat.divisor([rng.randint(-1, 1) for _ in range(lat.rank)])
        assert jet_splitting_certificate(l, table) == pool_oracle(l, table), l


def dp6_conic_ledger():
    """-K at level 1 and the six conic classes H - E_i at level 0, all true on dP6."""
    lat = catalog_lattice("dP6")[0]
    ledger = JetLedger()
    ledger.declare(-lat.canonical_class, 1)
    conics = [lat.divisor((1,) + tuple(-int(j == i) for j in range(1, 7))) for i in range(1, 7)]
    for conic in conics:
        ledger.declare(conic, 0)
    return lat, ledger, conics


def test_dp6_conic_ledger_is_searched_in_its_cone():
    lat, ledger, _ = dp6_conic_ledger()
    minus_k = -lat.canonical_class
    start = time.perf_counter()
    for m in (7, 12, 30):
        split = jet_splitting_certificate(m * minus_k, ledger)
        assert split == JetSplitting(6 * minus_k, (m - 6) * minus_k, 6, m - 6)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.2, f"three dP6 conic-ledger searches took {elapsed:.3f}s"


def test_search_past_the_limit_raises(monkeypatch):
    lat, ledger, conics = dp6_conic_ledger()
    l = 8 * -lat.canonical_class
    for conic in conics:
        l = l + 2 * conic  # 9 * 3^6 sums lie between 0 and L
    monkeypatch.setattr(picard, "SEARCH_LIMIT", 1000)
    with pytest.raises(NotRepresentableError, match="over 1000 ledger sums"):
        jet_splitting_certificate(l, ledger)
    monkeypatch.setattr(picard, "SEARCH_LIMIT", 10_000)
    split = jet_splitting_certificate(l, ledger)
    assert split is not None and split.jet1 == 6


def test_p2_degree_1e8_is_fast(capsys):
    start = time.perf_counter()
    code = cli.main(["lattice", "P2", "hypothesis", "100000000", "--format", "machine"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and "L1=6\nL2=99999994\njet_L1=6\njet_L2=99999994" in out
    assert elapsed < 0.2, f"lattice P2 hypothesis 100000000 took {elapsed:.3f}s"


def test_lefschetz_decisions(p2):
    dec = lefschetz_full_decision(p2)
    assert dec.exists and dec.classification == "del Pezzo"
    assert dec.witness_multiple == 4  # pencil of quartics
    k3, _ = catalog_lattice("K3-4")
    dec = lefschetz_full_decision(k3)
    assert dec.exists and dec.classification == "K3" and dec.exceptional
    assert dec.witness_multiple == 1
    quad, _ = catalog_lattice("P1xP1")
    dec = lefschetz_full_decision(quad)
    assert dec.exists and dec.rank == 2
    general = PicardLattice(1, ((2,),), (4,), name="general-type")
    dec = lefschetz_full_decision(general)
    assert not dec.exists and dec.classification == "general type"


def test_lefschetz_inconsistent_rank_one():
    lat = PicardLattice(1, ((2,),), (1,), name="bad")
    with pytest.raises(InconsistentInputError):
        lefschetz_full_decision(lat, lat.divisor((2,)))


def test_lefschetz_generator_is_the_primitive_class_on_the_ledger_side():
    lat, ledger = catalog_lattice("P2")
    for coords in ((-1,), (3,), (0,)):
        with pytest.raises(InconsistentInputError, match="not the ample generator"):
            lefschetz_full_decision(lat, lat.divisor(coords), ledger)
    flipped = PicardLattice(1, ((1,),), (3,), name="P2")
    ledger = JetLedger()
    ledger.declare(flipped.divisor((-1,)), 1)
    dec = lefschetz_full_decision(flipped, None, ledger)
    assert dec.classification == "del Pezzo" and dec.witness_multiple == 4
    # Without the ledger the side defaults to (1), as for the catalog plane.
    assert lefschetz_full_decision(flipped).classification == "general type"
    ledger.declare(flipped.divisor((2,)), 1)
    with pytest.raises(InconsistentInputError, match="very ample classes"):
        lefschetz_full_decision(flipped, None, ledger)


def test_catalog_all_valid():
    for name in catalog_names():
        lat, ledger = catalog_lattice(name)
        assert lat.rank >= 1
        for cls in ledger.classes():
            assert ledger.level(cls) >= 1


def test_lattice_format_round_trip():
    for name in catalog_names():
        lat, ledger = catalog_lattice(name)
        text = render_lattice(lat, ledger)
        lat2, ledger2 = parse_lattice(text)
        assert lat2 == lat
        assert {c.coords: ledger2.level(c) for c in ledger2.classes()} == \
               {c.coords: ledger.level(c) for c in ledger.classes()}


def test_lattice_format_whitespace_insensitive():
    text = "rank 2\ngram 0 1\n  1 0\ncanonical\n-2 -2\nname thing"
    lat, _ = parse_lattice(text)
    assert lat.rank == 2 and lat.canonical == (-2, -2) and lat.name == "thing"


def test_catalog_lattice_is_built_once_with_a_fresh_ledger(capsys):
    for name in catalog_names():
        cli.main(["catalog", "show", name])
        shown = capsys.readouterr().out
        lattice, ledger = catalog_lattice(name)
        again, fresh = catalog_lattice(name)
        assert again is lattice and fresh is not ledger
        # Extending one caller's ledger leaves every later caller's alone.
        ledger.declare(-lattice.canonical_class, 9)
        ledger.declare(lattice.divisor((1,) * lattice.rank), 3)
        _, later = catalog_lattice(name)
        assert [(c, later.level(c)) for c in later.classes()] == \
               [(c, fresh.level(c)) for c in fresh.classes()]
        cli.main(["catalog", "show", name])
        assert capsys.readouterr().out == shown


def test_catalog_validation_runs_once_and_a_failing_build_every_time(monkeypatch):
    calls = []
    validate = picard._validate_genera
    monkeypatch.setattr(picard, "_validate_genera",
                        lambda lattice, expected: calls.append(lattice.name)
                        or validate(lattice, expected))
    picard._catalog_entry.cache_clear()
    for _ in range(3):
        for name in catalog_names():
            catalog_lattice(name)
    assert sorted(calls) == sorted(catalog_names())

    # K = -H on a rank-1 lattice gives a line genus 1, not 0: never cached.
    def wrong_canonical():
        lattice = PicardLattice(1, ((1,),), (-1,), name="P2-wrong")
        return picard._validate_genera(lattice, [((1,), 0)]), (1,)

    monkeypatch.setitem(picard._CATALOG, "P2-wrong", wrong_canonical)
    for _ in range(3):
        with pytest.raises(InconsistentInputError, match=r"genus of \(1,\) is 1"):
            catalog_lattice("P2-wrong")
    assert calls.count("P2-wrong") == 3

import math
import random
import re
import time
import tracemalloc

import pytest

import rspin.assemblage as asmmod
from rspin import cli, curveconf, picard
from rspin.assemblage import (
    CORE_VALUES,
    Assemblage,
    AssemblageState,
    AssemblageStep,
    apply_step,
    capping_order,
    certify,
    certify_two_section,
    monodromy_report,
    parse_assemblage,
    smoothing_assemblage,
    two_section,
    verify_core,
)
from rspin.curveconf import chain, dynkin, e6_a7_core
from rspin.errors import (
    DomainError,
    EmptyCapError,
    InconsistentInputError,
    InconsistentStepError,
    InternalInconsistencyError,
    NotSimpleError,
    RibbonError,
    UnknownComponentError,
    read_text,
)
from rspin.picard import (
    catalog_lattice,
    catalog_names,
    genus_of_section,
    intersect,
    smoothed_genus,
)
from rspin.winding import reduce_residue, residues_equal
import golden
from steps_file import step_file_100k, step_line


def test_verify_core_variants():
    rep = verify_core(e6_a7_core())
    assert rep.genus == 6 and rep.type_e and rep.boundary == 2
    rep = verify_core(dynkin("E6"))
    assert rep.genus == 3 and rep.type_e
    rep = verify_core(chain(7))
    assert not rep.type_e


def test_apply_step_merge():
    state = AssemblageState(6, (("p", 3), ("q", 7)))
    with pytest.raises(InconsistentStepError):
        apply_step(state, AssemblageStep("c", "merge", "p", other="q",
                                         new_names=("m",), new_values=(8,)))
    out = apply_step(state, AssemblageStep("c", "merge", "p", other="q",
                                           new_names=("m",), new_values=(9,)))
    assert out.genus == 7 and out.b == 1 and out.value("m") == 9
    assert out.chi == state.chi - 1


def test_apply_step_split():
    state = AssemblageState(6, (("p", -1), ("q", -11)))
    out = apply_step(state, AssemblageStep("c", "split", "p",
                                           new_names=("a", "b"),
                                           new_values=(-1, -1)))
    assert out.genus == 6 and out.b == 3 and out.chi == state.chi - 1
    with pytest.raises(InconsistentStepError):
        apply_step(state, AssemblageStep("c", "split", "p",
                                         new_names=("a", "b"),
                                         new_values=(0, 0)))
    with pytest.raises(UnknownComponentError):
        apply_step(state, AssemblageStep("c", "split", "ghost",
                                         new_names=("a", "b"),
                                         new_values=(-1, -1)))


def test_apply_step_modular():
    state = AssemblageState(6, (("p", 1), ("q", 3)), modulus=4)
    out = apply_step(state, AssemblageStep("c", "merge", "p", other="q",
                                           new_names=("m",), new_values=(3,)))
    assert out.value("m") == 3  # 1 + 3 - 1 mod 4


def test_capping_order():
    assert capping_order([3, 7]) == 4
    assert capping_order([-1, -1]) == 0
    assert capping_order([-25, -5]) == 4
    with pytest.raises(EmptyCapError):
        capping_order([])


def test_capping_order_against_divisor_search():
    # Oracle: largest t >= 1 dividing every v_i + 1, found by scanning.
    rng = random.Random(12)
    for _ in range(1000):
        values = [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))]
        got = capping_order(values)
        shifted = [abs(v + 1) for v in values]
        if all(s == 0 for s in shifted):
            assert got == 0
            continue
        best = 1
        for t in range(1, max(shifted) + 1):
            if all(s % t == 0 for s in shifted):
                best = t
        assert got == best
        assert all(s % got == 0 for s in shifted)


def test_smoothing_assemblage_sextic_line():
    asm, expected = smoothing_assemblage(10, 0, 6)
    assert expected == (-25, -5)
    cert = certify(asm, CORE_VALUES)
    assert cert.verdict and cert.filling
    assert cert.final_genus == 15 and cert.final_boundary == 2
    assert sorted(cert.values()) == sorted(expected)
    assert capping_order(cert.values()) == 4


# The one refusal of every pair outside the two-section construction's domain.
DOMAIN = "construction needs d >= 6 and section genera >= 0, one of them >= 3"


def _refused(g_c, g_d, d):
    for build in (two_section, smoothing_assemblage):
        with pytest.raises(InconsistentInputError) as exc:
            build(g_c, g_d, d)
        assert str(exc.value) == DOMAIN, (g_c, g_d, d)


def test_smoothing_assemblage_formula_corner():
    # No section of genus >= 3: refused, as the bare core (genus 6) does not
    # fill the genus-5 ambient; the formula values (-5, -5) still cap exactly.
    _refused(0, 0, 6)
    assert capping_order((-5, -5)) == 4
    cert = certify(Assemblage(e6_a7_core(), (), (5, 2)), CORE_VALUES)
    assert not cert.verdict and not cert.filling


def test_smoothing_assemblage_preconditions():
    with pytest.raises(InconsistentInputError):
        smoothing_assemblage(10, 0, 5)  # d < 6


def test_two_section_refuses_every_pair_outside_its_domain():
    _refused(10, 0, 5)  # d < 6
    _refused(35, -1, 16)  # a section of negative genus
    _refused(-1, 35, 16)
    _refused(2, 2, 40)  # no section of genus >= 3


def test_two_section_tables_have_three_stages_of_nonnegative_repeats():
    for g_c, g_d, d in [(3, 0, 6), (0, 3, 6), (10, 0, 6), (0, 10, 6), (2, 5, 9), (5, 2, 9)]:
        table = two_section(g_c, g_d, d)
        assert len(table.stages) == 3 and min(s.repeats for s in table.stages) >= 0
        assert table.expected == (1 - 2 * g_c - d, 1 - 2 * g_d - d)
        assert table.step_count == 2 * (g_c + g_d + d - 7)
        # The stages start from the section of genus >= 3, C unless g_C < 3.
        assert table.stages[0].repeats == (g_c if g_c >= 3 else g_d) - 3


def test_smoothing_assemblage_minimal_first_half():
    # g_C = 3: the first stage is empty; the core already carries that genus.
    asm, expected = smoothing_assemblage(3, 0, 6)
    assert expected == (-11, -5)
    cert = certify(asm, CORE_VALUES)
    assert cert.verdict and cert.final_genus == 8
    assert sorted(cert.values()) == [-11, -5]


def test_verify_core_structured_failures():
    from rspin.curveconf import Crossing, CurveSystem
    from rspin.errors import DisconnectedError, NotSimpleError

    with pytest.raises(DisconnectedError):
        verify_core(CurveSystem(["a", "b"]))
    doubled = CurveSystem(["a", "b"], [Crossing("x", ("a", "b")),
                                       Crossing("y", ("a", "b"))],
                          ribbon={"a": ("x", "y"), "b": ("x", "y")})
    with pytest.raises(NotSimpleError):
        verify_core(doubled)


def test_smoothing_assemblage_final_genus_matches_lattice():
    lat, _ = catalog_lattice("P2")
    rng = random.Random(13)
    for _ in range(20):
        a, b = rng.randint(6, 9), rng.randint(1, 3)
        c, d = lat.divisor((a,)), lat.divisor((b,))
        g_c, g_d = genus_of_section(c), genus_of_section(d)
        asm, _ = smoothing_assemblage(g_c, g_d, a * b)
        cert = certify(asm, CORE_VALUES)
        assert cert.final_genus == smoothed_genus(c, d)


def test_coherence_at_every_stage():
    asm, _ = smoothing_assemblage(5, 2, 7)
    state = AssemblageState(6, CORE_VALUES)
    assert sum(state.values()) == state.chi
    for step in asm.steps:
        state = apply_step(state, step)
        assert sum(state.values()) == state.chi
        assert state.chi == 2 - 2 * state.genus - state.b


def test_certify_flags():
    # Core-only assemblage that does not fill its declared ambient.
    asm = Assemblage(e6_a7_core(), (), (8, 2))
    cert = certify(asm, CORE_VALUES)
    assert not cert.filling and not cert.verdict
    assert cert.type_e and cert.core_genus_ok
    # Low-genus core: E6 alone has h = 3 < 5.
    asm = Assemblage(dynkin("E6"), (), (3, 1))
    cert = certify(asm, [("d", -5)])
    assert cert.filling and not cert.core_genus_ok and not cert.verdict
    # A tree without E6: the 13-chain has the core's genus 6 and b = 2.
    cert = certify(Assemblage(chain(13), (), (6, 2)), CORE_VALUES)
    assert cert.filling and cert.core_genus_ok and not cert.type_e and not cert.verdict
    # Nonzero curve winding blocks the verdict.
    asm, _ = smoothing_assemblage(10, 0, 6)
    first = asm.steps[0]._replace(curve_winding=1)
    bad = Assemblage(asm.core, (first,) + asm.steps[1:], asm.ambient)
    cert = certify(bad, CORE_VALUES)
    assert not cert.windings_zero and not cert.verdict


def test_certify_initial_value_count():
    asm = Assemblage(e6_a7_core(), (), (6, 2))
    with pytest.raises(InconsistentInputError):
        certify(asm, [("only", -12)])


def test_prefix_valid_permutation_same_invariants():
    # Two handle pairs supported on the two different core components are
    # independent; swapping them keeps every prefix valid and must land on
    # identical final invariants.
    pair_c = (
        AssemblageStep("u1", "split", "dC", new_names=("a1", "a2"),
                       new_values=(-10, 0)),
        AssemblageStep("u2", "merge", "a1", other="a2", new_names=("dC'",),
                       new_values=(-11,)),
    )
    pair_d = (
        AssemblageStep("w1", "split", "dD", new_names=("b1", "b2"),
                       new_values=(-4, 0)),
        AssemblageStep("w2", "merge", "b1", other="b2", new_names=("dD'",),
                       new_values=(-5,)),
    )
    core = e6_a7_core()
    one = certify(Assemblage(core, pair_c + pair_d, (8, 2)), CORE_VALUES)
    two = certify(Assemblage(core, pair_d + pair_c, (8, 2)), CORE_VALUES)
    assert (one.final_genus, one.final_boundary, one.final_chi) == \
           (two.final_genus, two.final_boundary, two.final_chi)
    assert sorted(one.values()) == sorted(two.values())


def test_monodromy_report_p2():
    lat, ledger = catalog_lattice("P2")
    doc = monodromy_report(lat.divisor((6,)), lat.divisor((1,)), ledger)
    q = doc.quantities
    assert (q["r"], q["r_prime"]) == (4, 4)
    assert q["conclusion"] == "4-spin mapping class group"
    assert doc.verdict == "Gamma_L = Mod(E)[phi_M], r = 4"


def test_monodromy_report_grid():
    for a in range(6, 10):
        for b in range(1, 4):
            lat, ledger = catalog_lattice("P2")
            doc = monodromy_report(lat.divisor((a,)), lat.divisor((b,)), ledger)
            r, rp = doc.quantities["r"], doc.quantities["r_prime"]
            assert r == a + b - 3
            assert rp == (a + b - 3) * math.gcd(a, b)
            assert rp % r == 0
            assert doc.verdict.startswith("Gamma_L")


def test_monodromy_report_random_catalog_divisibility():
    rng = random.Random(14)
    names = ["P2", "P1xP1", "dP3"]
    found = 0
    while found < 40:
        lat, ledger = catalog_lattice(rng.choice(names))
        c = lat.divisor(rng.randint(0, 8) for _ in range(lat.rank))
        d = lat.divisor(rng.randint(0, 3) for _ in range(lat.rank))
        try:
            doc = monodromy_report(c, d, ledger)
        except InconsistentInputError:
            continue
        found += 1
        if "r_prime" in doc.quantities:
            assert doc.quantities["r_prime"] % doc.quantities["r"] == 0


def test_monodromy_report_refuses_degenerate():
    lat, ledger = catalog_lattice("P2")
    with pytest.raises(InconsistentInputError):
        monodromy_report(lat.divisor((2,)), lat.divisor((1,)), ledger)


def test_monodromy_report_not_certified():
    from rspin.picard import JetLedger

    lat, _ = catalog_lattice("K3-4")
    doc = monodromy_report(lat.divisor((2,)), lat.divisor((1,)), JetLedger())
    assert doc.verdict == "not certified"
    assert doc.quantities["hypothesis"] == "not-certified"


def test_parse_assemblage_round_trip():
    text = """
    modulus 0
    ambient 7 2
    core e6a7
    boundary dC -9
    boundary dD -3
    step t5 merge dC dD j1 -13
    step delta5 split j1 dC2 -10 dD2 -4
    """
    asm, values = parse_assemblage(text)
    assert asm.ambient == (7, 2) and len(asm.steps) == 2
    cert = certify(asm, values)
    assert cert.final_genus == 7 and cert.final_boundary == 2
    assert sorted(cert.values()) == [-10, -4]


@pytest.mark.parametrize("line", [
    "modulus", "modulus 0 1", "modulus x", "ambient 7", "ambient 7 2 1",
    "ambient 7 b", "core", "core chain", "core e6a7 extra", "core dynkin",
    "boundary dC", "boundary dC x", "step t5 merge dC dD j1 x",
    "step", "step t5", "step t5 split dC a -5 b", "step t5 split dC a x b -5",
])
def test_parse_assemblage_rejects_malformed_line(line):
    text = "ambient 7 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"
    with pytest.raises(InconsistentInputError, match=re.escape(repr(line))):
        parse_assemblage(text + line + "\n")


_HEADER = "ambient 7 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"


@pytest.mark.parametrize("line,message", [
    ("step", "malformed step line 'step'"),
    ("step t5", "malformed step line 'step t5'"),
    ("step t5 split dC a -5 b",
     "split step needs: step <curve> split <old> <n1> <v1> <n2> <v2>; "
     "got 'step t5 split dC a -5 b'"),
    ("step t5 merge dC dD j1 -13 9",
     "merge step needs: step <curve> merge <b1> <b2> <new> <v>; "
     "got 'step t5 merge dC dD j1 -13 9'"),
    ("step t5 split dC a -5 b x  # note",
     "expected an integer, got 'x' in 'step t5 split dC a -5 b x'"),
    ("step t5 merge dC dD j1 1.5", "expected an integer, got '1.5' in "
     "'step t5 merge dC dD j1 1.5'"),
    ("step t5 split dC a -5 a -5", "step t5: split needs two distinct new names"),
    ("step t5 twist dC", "unknown step mode 'twist'"),
    ("step t5 twist dC dD j1 -13", "unknown step mode 'twist'"),
    ("step t5 merge dC dD j1 -13\nboundary dE 0",
     "header line 'boundary dE 0' comes after the first step"),
    ("step t5 merge dC dD j1 -13\nbound dE 0", "unrecognized assemblage line 'bound dE 0'"),
    # An unterminated block would swallow the steps after it.
    ("core inline\ncurves a b\nstep t5 merge dC dD j1 -13",
     "core inline block has no 'end' line"),
])
def test_parse_assemblage_step_messages(line, message):
    with pytest.raises(InconsistentInputError) as exc:
        parse_assemblage(_HEADER + line + "\n")
    assert str(exc.value) == message


def test_parse_assemblage_layout():
    # Comments, tabs, blank and whitespace-only lines and CRLF endings parse
    # to the same assemblage as the plain layout.
    plain = _HEADER + "step t5 merge dC dD j1 -13\nstep delta5 split j1 dC2 -10 dD2 -4\n"
    messy = ("# a two-step assemblage\r\n\r\n  ambient\t7 2   \r\ncore e6a7 # the core\r\n"
             "\t\r\nboundary dC -9\r\nboundary dD\t-3\r\n"
             "step\tt5 merge dC dD j1 -13#merge\r\n"
             "   step delta5 split j1 dC2 -10 dD2 -4   \r\n# done")
    (asm, values), (again, again_values) = parse_assemblage(messy), parse_assemblage(plain)
    assert (again.steps, again.ambient, again.modulus, again_values) == \
        (asm.steps, asm.ambient, asm.modulus, values)
    assert again.core.curves == asm.core.curves
    assert asm.steps == (
        AssemblageStep("t5", "merge", "dC", "dD", ("j1",), (-13,)),
        AssemblageStep("delta5", "split", "j1", "", ("dC2", "dD2"), (-10, -4)))
    assert values == [("dC", -9), ("dD", -3)]
    # A step line inside an inline core block belongs to the block.
    inline = ("ambient 1 1\ncore inline\n  curves a b  # two curves\r\n"
              "  intersections\n  x a b\n  end  \nboundary d -1\n")
    with pytest.raises(InconsistentInputError,
                       match="intersection line 'step t5' needs"):
        parse_assemblage(inline.replace("  end", "step t5\nend"))
    asm, values = parse_assemblage(inline)
    assert asm.core.curves == ("a", "b") and asm.steps == () and values == [("d", -1)]


def test_step_record_is_validated_hashable_and_immutable():
    step = AssemblageStep("t5", "merge", "dC", other="dD", new_names=("j1",),
                          new_values=(-13,))
    assert AssemblageStep._fields == ("curve", "mode", "component", "other",
                                      "new_names", "new_values", "curve_winding")
    assert step.curve_winding == 0 and step.other == "dD"
    twin = AssemblageStep("t5", "merge", "dC", "dD", ("j1",), (-13,), 0)
    assert step == twin and hash(step) == hash(twin) and len({step, twin}) == 1
    with pytest.raises(AttributeError):
        step.curve_winding = 1
    with pytest.raises(AttributeError):
        step.extra = 1
    assert step._replace(curve_winding=2).curve_winding == 2
    for bad, message in [
        (dict(mode="twist"), "unknown step mode 'twist'"),
        (dict(other=""), "step t5: merge needs a second component"),
        (dict(new_values=(1, 2)), "step t5: merge needs one new name and value"),
        (dict(mode="split"), "step t5: split needs two new names and values"),
        (dict(mode="split", new_names=("a", "a"), new_values=(0, 0)),
         "step t5: split needs two distinct new names"),
    ]:
        with pytest.raises(InconsistentInputError) as exc:
            step._replace(**bad)
        assert str(exc.value) == message
        with pytest.raises(InconsistentInputError) as again:
            AssemblageStep(**{**step._asdict(), **bad})
        assert str(again.value) == message


# -- the staged fold against the explicit fold -------------------------------


def _assert_folds_agree(g_c, g_d, d):
    table = two_section(g_c, g_d, d)
    asm, expected = smoothing_assemblage(g_c, g_d, d)
    explicit = certify(asm, CORE_VALUES)
    staged = certify_two_section(table)
    assert staged == explicit, (g_c, g_d, d)
    assert table.step_count == len(asm.steps)
    assert table.expected == expected


def test_staged_fold_matches_explicit_parameter_box():
    for g_c in range(13):
        for g_d in range(5):
            for d in range(6, 15):
                if g_c < 3 and g_d < 3:
                    _refused(g_c, g_d, d)
                else:
                    _assert_folds_agree(g_c, g_d, d)


def test_every_repeat_leaves_the_section_boundaries_under_their_names():
    # The staged fold checks the names and values only after repeats 0 and
    # n - 1; its jump to repeat n - 1 relies on them after every repeat.
    for g_c in range(13):
        for g_d in range(5):
            for d in range(6, 15):
                if g_c < 3 and g_d < 3:
                    _refused(g_c, g_d, d)
                    continue
                table = two_section(g_c, g_d, d)
                asm, _ = smoothing_assemblage(g_c, g_d, d)
                state = AssemblageState(verify_core(table.core).genus, CORE_VALUES)
                steps, values = iter(asm.steps), tuple(v for _, v in CORE_VALUES)
                for index, stage in enumerate(table.stages):
                    for k in range(stage.repeats):
                        state = apply_step(apply_step(state, next(steps)), next(steps))
                        v_c, v_d = stage.values_at(values, k + 1)
                        assert sorted(state.boundaries) == [("dC", v_c), ("dD", v_d)], \
                            (g_c, g_d, d, index, k)
                    values = stage.values_at(values, stage.repeats)
                assert next(steps, None) is None


def test_staged_fold_matches_explicit_p2_pairs():
    lat, _ = catalog_lattice("P2")
    for b in (1, 2, 3):
        for m in range(b + 1, 61):
            c, d = lat.divisor((m - b,)), lat.divisor((b,))
            g_c, g_d, dd = genus_of_section(c), genus_of_section(d), intersect(c, d)
            if dd < 6:
                continue
            if g_c < 3 and g_d < 3:
                _refused(g_c, g_d, dd)
            else:
                _assert_folds_agree(g_c, g_d, dd)


def _with_stage_pattern(monkeypatch, index, wrap, **changes):
    """Make the report path see a two-section table with stage `index` altered."""
    import rspin.assemblage as asmmod

    def altered(g_c, g_d, d):
        table = two_section(g_c, g_d, d)
        stages = list(table.stages)
        stage = stages[index]
        stages[index] = stage._replace(pattern=wrap(stage.pattern), **changes)
        return table._replace(stages=tuple(stages))

    monkeypatch.setattr(asmmod, "two_section", altered)


def _first_step(edit):
    def wrap(pattern):
        def changed(k, values):
            pair = pattern(k, values)
            return (edit(pair[0]),) + pair[1:]
        return changed
    return wrap


@pytest.mark.parametrize("index", [0, 1, 2])
def test_staged_fold_rejects_corrupted_pattern_value(monkeypatch, index):
    bump = _first_step(lambda step: step._replace(
        new_values=(step.new_values[0] + 1,) + step.new_values[1:]))
    _with_stage_pattern(monkeypatch, index, bump)
    lat, ledger = catalog_lattice("P2")
    with pytest.raises(InconsistentStepError):
        monodromy_report(lat.divisor((7,)), lat.divisor((3,)), ledger)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_staged_fold_rejects_wrong_stage_shift(monkeypatch, index):
    # The pattern is sound but the table misstates where a repeat lands; the
    # shifted values keep the sum, so coherence alone cannot tell.
    shift = two_section(15, 3, 28).stages[index].shift
    _with_stage_pattern(monkeypatch, index, lambda pattern: pattern,
                        shift=(shift[0] - 1, shift[1] + 1))
    lat, ledger = catalog_lattice("P2")
    with pytest.raises(InconsistentStepError):
        monodromy_report(lat.divisor((7,)), lat.divisor((4,)), ledger)


def test_staged_fold_nonzero_curve_winding(monkeypatch):
    wind = _first_step(lambda step: step._replace(curve_winding=2))
    _with_stage_pattern(monkeypatch, 2, wind)
    lat, ledger = catalog_lattice("P2")
    doc = monodromy_report(lat.divisor((7,)), lat.divisor((3,)), ledger)
    assert not doc.certificate.windings_zero and not doc.certificate.verdict
    assert doc.quantities["certificate"] == "inapplicable"


def test_monodromy_report_below_first_stage():
    # g_C = 0 < 3 <= g_D = 6: the stages start from D, and the report
    # certifies as for the swapped pair, with the final values in (C, D) order.
    lat, ledger = catalog_lattice("P2")
    doc = monodromy_report(lat.divisor((2,)), lat.divisor((5,)), ledger)
    q = doc.quantities
    assert (q["g_C"], q["steps"], q["filling"]) == (0, 18, 1)
    assert q["certificate"] == "generates" and doc.verdict == "Gamma_L = Mod(E)[phi_M], r = 4"
    assert q["final_values"] == "-9,-21" and q["r_prime"] == 4


# -- the report is symmetric in C and D -----------------------------------------


_RANK2_LATTICES = (
    golden.LATTICE_TEXT,  # P1xP1 with (1,6) at jet 6 and (1,1) at jet 1
    # P1xP1 whose ledger certifies each ruling at jet 1.
    "rank 2\ngram 0 1 1 0\ncanonical -2 -2\njets\n1 0 1\n0 1 1\n",
    # F1 in the basis (s, f) whose ledger certifies s + f and f at jet 1.
    "rank 2\ngram -1 1 1 0\ncanonical -2 -3\njets\n1 1 1\n0 1 1\n",
)


def _report_draws(rng):
    """Seeded (lattice and fresh ledger factory, C, D) draws on rank-2 lattices.

    On a catalog surface L = C + D is mH with m >= 7, which the ledger {H: 1}
    certifies; the file ledgers certify many more classes.  Both kinds reach
    sections of negative genus and of genus below and above 3.
    """
    for name in ("P1xP1", "F1", "F2", "F3"):
        h = catalog_lattice(name)[1].classes()[0].coords
        for _ in range(30):
            m = rng.randint(7, 10)
            c = tuple(rng.randint(-1, m * x + 1) for x in h)
            yield (lambda name=name: catalog_lattice(name)), c, tuple(
                m * x - y for x, y in zip(h, c))
    for text in _RANK2_LATTICES:
        for _ in range(40):
            c, d = ((rng.randint(-1, 6), rng.randint(-1, 6)) for _ in range(2))
            yield (lambda text=text: picard.parse_lattice(text)), c, d


def _report_or_refusal(lattice_and_ledger, c, d):
    lat, ledger = lattice_and_ledger()
    try:
        return monodromy_report(lat.divisor(c), lat.divisor(d), ledger)
    except DomainError as exc:
        assert not isinstance(exc, InternalInconsistencyError), (c, d, exc)
        return f"{type(exc).__name__}: {exc}"


def _judged(cert):
    return (cert.final_genus, cert.final_boundary, sorted(cert.values()), cert.filling,
            cert.verdict)


def test_report_is_symmetric_in_c_and_d_and_certifies_only_its_domain():
    certified = c_below_three = 0
    for lattice_and_ledger, c, d in _report_draws(random.Random(22)):
        doc = _report_or_refusal(lattice_and_ledger, c, d)
        swapped = _report_or_refusal(lattice_and_ledger, d, c)
        if isinstance(doc, str) or isinstance(swapped, str):
            assert doc == swapped, (c, d)
            continue
        q, s = doc.quantities, swapped.quantities
        assert doc.verdict == swapped.verdict, (c, d)
        for key in ("r", "r_prime", "steps", "certificate", "filling"):
            assert q.get(key) == s.get(key), (c, d, key)
        if "final_values" in q:
            assert q["final_values"].split(",") == s["final_values"].split(",")[::-1]
        if doc.certificate is None:
            continue
        asm, _ = smoothing_assemblage(q["g_C"], q["g_D"], q["d"])
        assert _judged(doc.certificate) == _judged(certify(asm, CORE_VALUES)), (c, d)
        if doc.certificate.verdict:
            certified += 1
            c_below_three += q["g_C"] < 3
            assert min(q["g_C"], q["g_D"]) >= 0 and max(q["g_C"], q["g_D"]) >= 3
    # The draws certify in both orders: with C of genus >= 3 and below.
    assert certified >= 40 and c_below_three >= 10, (certified, c_below_three)


# -- the O(1)-per-step fold against a rescanning oracle -----------------------


def _rescan_step(state, step):
    """The reference step: rescans the boundary tuple and rebuilds the state."""
    r = state.modulus
    names = [n for n, _ in state.boundaries]
    if step.component not in names:
        raise UnknownComponentError(f"no boundary component {step.component!r}")
    if step.mode == "split":
        old = state.value(step.component)
        v1, v2 = (reduce_residue(v, r) for v in step.new_values)
        if not residues_equal(v1 + v2, old - 1, r):
            raise InconsistentStepError(
                f"step {step.curve}: split values {step.new_values} must sum to "
                f"{old} - 1")
        for n in step.new_names:
            if n in names and n != step.component:
                raise InconsistentStepError(f"boundary name {n!r} already in use")
        boundaries = tuple((n, v) for n, v in state.boundaries
                           if n != step.component)
        boundaries += ((step.new_names[0], v1), (step.new_names[1], v2))
        new = AssemblageState(state.genus, boundaries, r)
    else:
        if step.other not in names:
            raise UnknownComponentError(f"no boundary component {step.other!r}")
        if step.other == step.component:
            raise InconsistentStepError(
                f"step {step.curve}: merge needs two distinct components")
        v1, v2 = state.value(step.component), state.value(step.other)
        declared = reduce_residue(step.new_values[0], r)
        if not residues_equal(declared, v1 + v2 - 1, r):
            raise InconsistentStepError(
                f"step {step.curve}: merge value {step.new_values[0]} must equal "
                f"{v1} + {v2} - 1")
        if step.new_names[0] in names and step.new_names[0] not in (
                step.component, step.other):
            raise InconsistentStepError(
                f"boundary name {step.new_names[0]!r} already in use")
        boundaries = tuple((n, v) for n, v in state.boundaries
                           if n not in (step.component, step.other))
        boundaries += ((step.new_names[0], declared),)
        new = AssemblageState(state.genus + 1, boundaries, r)
    if state.is_coherent():
        new.check_coherence()
    return new


def _rescan_fold(state, steps):
    """(state reached, None), or (state before the failing step, its error)."""
    for index, step in enumerate(steps):
        try:
            state = _rescan_step(state, step)
        except DomainError as exc:
            return state, (index, type(exc), str(exc))
    return state, None


def _outcome(call):
    try:
        return call(), None
    except DomainError as exc:
        return None, (type(exc), str(exc))


FAULTS = {
    "unknown": "no boundary component 'ghost'",
    "reused": "already in use",
    "split-value": "split values",
    "merge-value": "merge value",
    "self-merge": "merge needs two distinct components",
}


def _random_steps(rng, state, count, fault_at=None, fault=None):
    """`count` steps from `state`, all valid but step `fault_at`.

    That step carries `fault` (one of FAULTS, random if None).  A reused name
    needs a second boundary and a wrong merge value two; with fewer, either
    becomes a wrong split value.
    """
    r, steps, serial = state.modulus, [], 0

    def fresh():
        nonlocal serial
        serial += 1
        return f"n{serial}"

    def wrap(v):
        return v + r * rng.randint(-2, 2)

    for index in range(count):
        names = [n for n, _ in state.boundaries]
        kind = None
        if index == fault_at:
            kind = fault or rng.choice(list(FAULTS))
            if kind in ("reused", "merge-value") and len(names) < 2:
                kind = "split-value"
        if kind in ("merge-value", "self-merge"):
            merge = True
        elif kind == "reused":
            merge = len(names) >= 3 and rng.random() < 0.5
        else:
            merge = kind != "split-value" and len(names) >= 2 and rng.random() < 0.5
        if merge:
            a, b = ((rng.choice(names),) * 2 if kind == "self-merge"
                    else rng.sample(names, 2))
            new = rng.choice((fresh(), a, b))
            declared = wrap(state.value(a) + state.value(b) - 1)
            if kind == "merge-value":
                declared += 1
            elif kind == "reused":
                new = rng.choice([n for n in names if n not in (a, b)])
            elif kind == "unknown":
                a, b = rng.choice(((a, "ghost"), ("ghost", b)))
            step = AssemblageStep(f"c{index}", "merge", a, other=b, new_names=(new,),
                                  new_values=(declared,),
                                  curve_winding=rng.randint(-1, 1))
        else:
            a = rng.choice(names)
            first, second = rng.choice((a, fresh())), fresh()
            v1 = rng.randint(-15, 15)
            v2 = wrap(state.value(a) - 1 - v1)
            if kind == "split-value":
                v2 += 1
            elif kind == "reused":
                second = rng.choice([n for n in names if n != a])
            elif kind == "unknown":
                a = "ghost"
            step = AssemblageStep(f"c{index}", "split", a, new_names=(first, second),
                                  new_values=(v1, v2), curve_winding=rng.randint(-1, 1))
        steps.append(step)
        if kind is None:
            state = _rescan_step(state, step)
    return steps


def _random_values(rng, modulus, chi, b, coherent):
    """b boundary values whose sum is chi (mod modulus) iff `coherent`."""
    values = [rng.randint(-20, 20) for _ in range(b)]
    values[-1] += chi - sum(values)
    if not coherent:
        values[-1] += rng.choice([k for k in range(1, 13)
                                  if not residues_equal(k, 0, modulus)])
    if modulus and rng.random() < 0.75:
        values = [v % modulus for v in values]
    return values


def _random_state(rng, modulus, b, coherent):
    genus = rng.randint(0, 6)
    values = _random_values(rng, modulus, 2 - 2 * genus - b, b, coherent)
    state = AssemblageState(genus, tuple((f"b{k}", v) for k, v in enumerate(values)),
                            modulus)
    assert state.is_coherent() == coherent
    return state


def _assert_fold_matches_oracle(state, steps):
    """The fold reaches the oracle's state, or fails at its step with its error."""
    reached, error = _rescan_fold(state, steps)
    if error is None:
        folded, windings_zero = asmmod._fold(state, steps)
        assert folded == reached and folded.boundaries == reached.boundaries
        assert windings_zero == all(residues_equal(s.curve_winding, 0, state.modulus)
                                    for s in steps)
    else:
        index, kind, message = error
        assert asmmod._fold(state, steps[:index])[0] == reached
        with pytest.raises(kind) as exc:
            asmmod._fold(state, steps)
        assert str(exc.value) == message
    # apply_step, one step at a time, is the same fold.
    for step in steps:
        got = _outcome(lambda: apply_step(state, step))
        assert got == _outcome(lambda: _rescan_step(state, step))
        state, failed = got
        if failed:
            break
    return error


@pytest.mark.parametrize("modulus", [0] + list(range(2, 13)))
def test_fold_matches_rescanning_oracle(modulus):
    rng = random.Random(400 + modulus)
    faults = 0
    for b in range(1, 9):
        for coherent in (True, False):
            for _ in range(6):
                state = _random_state(rng, modulus, b, coherent)
                count = rng.randint(0, 30)
                fault_at = rng.randrange(count) if count and rng.random() < 0.6 else None
                steps = _random_steps(rng, state, count, fault_at)
                faults += _assert_fold_matches_oracle(state, steps) is not None
    assert faults >= 30


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fold_reports_each_fault_like_the_oracle(fault):
    rng = random.Random(list(FAULTS).index(fault))
    hits = 0
    for modulus in (0, 2, 5, 12):
        for b in (2, 3, 8):
            for coherent in (True, False):
                state = _random_state(rng, modulus, b, coherent)
                fault_at = rng.randrange(4)
                steps = _random_steps(rng, state, 8, fault_at, fault)
                error = _assert_fold_matches_oracle(state, steps)
                assert error is not None and error[0] == fault_at
                hits += FAULTS[fault] in error[2]
    assert hits >= 20


@pytest.mark.parametrize("modulus", [0] + list(range(2, 13)))
def test_certify_matches_rescanning_oracle(modulus):
    rng = random.Random(500 + modulus)
    for core in (e6_a7_core(), dynkin("E6"), chain(4), chain(7)):
        report = verify_core(core)
        for _ in range(8):
            values = _random_values(rng, modulus, report.chi, report.boundary, True)
            initial = [(f"b{k}", v) for k, v in enumerate(values)]
            entry = AssemblageState(
                report.genus, tuple((n, reduce_residue(v, modulus)) for n, v in initial),
                modulus)
            count = rng.randint(0, 30)
            fault_at = rng.randrange(count) if count and rng.random() < 0.3 else None
            steps = tuple(_random_steps(rng, entry, count, fault_at))
            reached, error = _rescan_fold(entry, steps)
            ambient = ((reached.genus, reached.b) if rng.random() < 0.5
                       else (rng.randint(0, 9), rng.randint(1, 3)))
            asm = Assemblage(core, steps, ambient, modulus)
            got = _outcome(lambda: certify(asm, initial))
            if error is None:
                windings_zero = all(residues_equal(s.curve_winding, 0, modulus)
                                    for s in steps)
                want = asmmod._judge(report, reached, windings_zero, ambient)
                assert got == (want, None)
                assert got[0].boundary_values == reached.boundaries
            else:
                assert got == (None, error[1:])


def test_fold_refuses_duplicate_boundary_names():
    # The rescanning oracle reads the first copy of a repeated name and drops
    # every copy, so its split of this coherent state breaks coherence.  No
    # surface has two boundary components of one name, and `_core_state`
    # refuses them, so the fold refuses them on entry, whatever the steps.
    split = AssemblageStep("c", "split", "p", new_names=("a", "b"), new_values=(0, 0))
    for modulus in (0, 3):
        state = AssemblageState(2, (("p", 1), ("q", -6), ("p", 0)), modulus)
        assert state.is_coherent()
        with pytest.raises(InternalInconsistencyError):
            _rescan_step(state, split)
        for steps in ((), (split,)):
            with pytest.raises(InconsistentInputError,
                               match="boundary names must be distinct"):
                asmmod._fold(state, steps)
        with pytest.raises(InconsistentInputError,
                           match="boundary names must be distinct"):
            apply_step(state, split)
    with pytest.raises(InconsistentInputError,
                       match="initial boundary names must be distinct"):
        certify(Assemblage(e6_a7_core(), (), (6, 2)), [("p", -9), ("p", -3)])


def test_certify_100k_steps_is_fast():
    # Rescanning the boundary on every step took about 0.8 s on a 2-vCPU Xeon
    # VM; the fold is O(1) per step.
    asm, expected = smoothing_assemblage(25003, 0, 25004)
    assert len(asm.steps) == 100_000
    start = time.perf_counter()
    cert = certify(asm, CORE_VALUES)
    elapsed = time.perf_counter() - start
    assert cert.verdict and sorted(cert.values()) == sorted(expected)
    assert elapsed < 0.3, f"certify on 100,000 steps took {elapsed:.2f}s"


def test_parse_and_certify_100k_step_file_is_fast():
    # On a 2-vCPU Xeon VM parse + certify took about 0.7 s with a
    # frozen-dataclass step record and a parse that split every line twice;
    # with a named-tuple record, about 0.45 s.  Reading bare step tuples that
    # parse_assemblage builds into records, with residues taken inline in the
    # fold, took 11 % less (0.65 s against 0.72 s on a busier host, medians
    # of 7 alternating runs).
    text, expected = step_file_100k()
    start = time.perf_counter()
    parsed, values = parse_assemblage(text)
    cert = certify(parsed, values)
    elapsed = time.perf_counter() - start
    assert len(parsed.steps) == 100_000
    assert cert.verdict and sorted(cert.values()) == sorted(expected)
    assert elapsed < 0.9, f"parse + certify of 100,000 steps took {elapsed:.2f}s"


def test_run_folds_a_100k_step_file_as_it_reads(tmp_path, capsys):
    # Folding each step as its line is read peaks at about 57 B a step: the
    # 5.25 MB text, and the lines of one 64 KiB chunk at a time.  Decoding the
    # whole file at once also held its bytes, 106 B a step; splitting the whole
    # text into a list of lines first peaked at 162 B; holding every step
    # record, at about 690 B.
    text, expected = step_file_100k()
    path = tmp_path / "steps.asm"
    path.write_text(text)
    del text
    tracemalloc.start()
    try:
        read_text(str(path))
        text_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = cli.main(["assemblage", "run", str(path), "--format", "machine"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text_peak < 6 << 20, f"read_text peaked at {text_peak / 2**20:.1f} MiB"
    q = cli.parse_machine(capsys.readouterr().out)
    assert code == 0 and q["verdict"] == "generates"
    assert int(q["final_chi"]) == 2 - 2 * 6 - 2 - 100_000
    assert sorted(int(b.split(":")[1]) for b in q["boundary_values"].split(",")) == \
        sorted(expected)
    assert peak < 200 * 100_000, f"peak {peak / 100_000:.0f} B a step"


# -- `assemblage run` (bare step tuples) against the record path ------------


def _random_step_file(rng, kind, modulus, count):
    """A coherent step file of `_random_steps` on an e6a7, chain or dynkin core.

    Returns its header lines, its step lines as token lists, and the live
    boundary names before each step.
    """
    n, dynkin_type = rng.randint(2, 9), rng.choice(("A5", "A8", "E6"))
    spec, core = {"e6a7": ("e6a7", e6_a7_core()), "chain": (f"chain {n}", chain(n)),
                  "dynkin": (f"dynkin {dynkin_type}", dynkin(dynkin_type))}[kind]
    report = verify_core(core)
    values = _random_values(rng, modulus, report.chi, report.boundary, True)
    initial = [(f"b{k}", v) for k, v in enumerate(values)]
    state = AssemblageState(
        report.genus, tuple((n, reduce_residue(v, modulus)) for n, v in initial), modulus)
    steps, live = [], []
    for step in _random_steps(rng, state, count):
        live.append([n for n, _ in state.boundaries])
        steps.append(step_line(step).split())
        state = _rescan_step(state, step)
    ambient = ((state.genus, state.b) if rng.random() < 0.5
               else (rng.randint(0, state.genus + 2), rng.randint(1, 3)))
    return ([f"modulus {modulus}", f"ambient {ambient[0]} {ambient[1]}", f"core {spec}"]
            + [f"boundary {n} {v}" for n, v in initial]), steps, live


def _step_text(header, steps):
    return "\n".join(header + [" ".join(tokens) for tokens in steps]) + "\n"


# Each mutation makes one step line of a coherent file wrong, and the part of
# the message the first error in the file then carries.
MUTATIONS = {
    "sum-rule": "must",
    "unknown": "no boundary component 'ghost'",
    "reused": "already in use",
    "equal-split-names": "split needs two distinct new names",
    "self-merge": "merge needs two distinct components",
    "non-integer": "expected an integer",
    "malformed": "step needs: step <curve>",
    "late-header": "comes after the first step",
}


def _mutate(rng, steps, live, kind):
    """A copy of `steps` with mutation `kind` at a random step it applies to.

    None if it applies to no step (no merge to self-merge, say).
    """
    steps = [list(tokens) for tokens in steps]

    def fits(k):
        tokens, names = steps[k], live[k]
        if kind == "reused":
            return len(names) > (2 if tokens[2] == "split" else 3)
        return {"equal-split-names": "split", "self-merge": "merge"}.get(
            kind, tokens[2]) == tokens[2]

    sites = [k for k in range(len(steps)) if fits(k)]
    if not sites:
        return None
    k = rng.choice(sites)
    tokens = steps[k]
    if kind == "sum-rule":
        tokens[-1] = str(int(tokens[-1]) + 1)
    elif kind == "unknown":
        tokens[3] = "ghost"
    elif kind == "reused":
        consumed = tokens[3:4] if tokens[2] == "split" else tokens[3:5]
        taken = rng.choice([n for n in live[k] if n not in consumed])
        tokens[rng.choice((4, 6)) if tokens[2] == "split" else 5] = taken
    elif kind == "equal-split-names":
        tokens[6] = tokens[4]
    elif kind == "self-merge":
        tokens[4] = tokens[3]
    elif kind == "non-integer":
        tokens[-1] = rng.choice(["1.5", "x", "--3", "0x10"])
    elif kind == "malformed":
        del tokens[rng.randrange(3, len(tokens))]
    else:
        steps.insert(k + 1, rng.choice(["modulus 3", "ambient 9 2", "core e6a7",
                                        "boundary zz 0"]).split())
    return steps


def _record_outcome(text):
    """The record path's machine output, or the type and message of its error."""
    try:
        cert = certify(*parse_assemblage(text))
    except DomainError as exc:
        return None, (type(exc), str(exc))
    return cli.render_machine(cli._certificate_quantities(cert)) + "\n", None


def _cli_outcome(argv, capsys):
    """cli.main's stdout, or the type and message of the error it reports."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        return out, None
    args = cli.parse_args(argv)
    with pytest.raises(DomainError) as exc:
        args.func(args)
    assert (code, out, err) == (1, "", f"error: {exc.value}\n")
    return None, (type(exc.value), str(exc.value))


@pytest.mark.parametrize("modulus", [0] + list(range(2, 13)))
def test_run_agrees_with_the_record_path(modulus, tmp_path, capsys):
    rng = random.Random(700 + modulus)
    path = tmp_path / "steps.asm"
    argv = ["assemblage", "run", str(path), "--format", "machine"]
    hits = dict.fromkeys(MUTATIONS, 0)
    for core in ("e6a7", "chain", "dynkin") * 2:
        header, steps, live = _random_step_file(rng, core, modulus, rng.randint(8, 40))
        path.write_text(_step_text(header, steps))
        want = _record_outcome(path.read_text())
        assert want[1] is None and _cli_outcome(argv, capsys) == want
        assert cli.main(argv[:-1] + ["human"]) == 0
        assert f"after {len(steps)} steps: " in capsys.readouterr().out
        for kind, fragment in MUTATIONS.items():
            mutated = _mutate(rng, steps, live, kind)
            if mutated is None:
                continue
            path.write_text(_step_text(header, mutated))
            want = _record_outcome(path.read_text())
            assert want[1] is not None and fragment in want[1][1], (kind, want)
            assert _cli_outcome(argv, capsys) == want
            hits[kind] += 1
    assert min(hits.values()) >= 4, hits


def test_run_builds_no_step_records(tmp_path, capsys, monkeypatch):
    header, steps, _ = _random_step_file(random.Random(3), "e6a7", 7, 1000)
    path = tmp_path / "steps.asm"
    path.write_text(_step_text(header, steps))
    want = _record_outcome(path.read_text())

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a step record was built")

    monkeypatch.setattr(AssemblageStep, "__new__", refuse)
    with pytest.raises(AssertionError, match="a step record was built"):
        parse_assemblage(path.read_text())
    assert cli.main(["assemblage", "run", str(path), "--format", "machine"]) == 0
    assert (capsys.readouterr().out, None) == want


def test_fold_refuses_a_negative_modulus_at_entry():
    # The entry coherence check refuses r < 0 before any step is read, so a
    # ghost component, a bad merge or no step at all are never reached.
    state = AssemblageState(1, (("a", 1), ("b", -3)), -3)
    split = AssemblageStep("c", "split", "a", new_names=("p", "q"), new_values=(0, 0))
    merge = AssemblageStep("c", "merge", "a", "b", ("p",), (-3,))
    for step in (split, merge, split._replace(component="ghost"), merge._replace(other="a")):
        for fold in (lambda s: apply_step(state, s), lambda s: asmmod._fold(state, [tuple(s)])):
            with pytest.raises(InconsistentInputError, match="^modulus must be nonnegative$"):
                fold(step)
    with pytest.raises(InconsistentInputError, match="^modulus must be nonnegative$"):
        asmmod._fold(state, ())
    with pytest.raises(InconsistentInputError, match="^modulus must be nonnegative$"):
        residues_equal(5, 2, -3)


def test_fold_judges_curve_windings_mod_r():
    split = AssemblageStep("c", "split", "a", new_names=("p", "q"), new_values=(0, 0))
    for modulus, winding, zero in [(7, 0, True), (7, 7, True), (7, -14, True),
                                   (7, 3, False), (0, 7, False), (0, 0, True)]:
        state = AssemblageState(1, (("a", 1), ("b", -3)), modulus)
        step = split._replace(curve_winding=winding)
        assert asmmod._fold(state, [step])[1] is zero
        assert asmmod._fold(state, [tuple(step)])[1] is zero


# -- the constant inputs of a report, built and checked once per process ------


def _clear_caches():
    picard._catalog_entry.cache_clear()
    e6_a7_core.cache_clear()


def _report_grid_argvs():
    """Reports on every catalog surface with a ledger, C = aH and D = bH with
    a + b in 7..10, H the ledger's very-ample class."""
    for name in catalog_names():
        for h in catalog_lattice(name)[1].classes():
            for total in range(7, 11):
                for a in range(1, total):
                    yield ["report", "--surface", name,
                           "--C", ",".join(str(a * x) for x in h.coords),
                           "--D", ",".join(str((total - a) * x) for x in h.coords)]


def test_report_grid_is_the_same_with_the_caches_cold_and_warm(capsys):
    argvs = [argv + ["--format", fmt] for argv in _report_grid_argvs()
             for fmt in ("human", "machine")]
    assert len({argv[2] for argv in argvs}) == 14 and len(argvs) == 14 * 30 * 2

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cold = []
    for argv in argvs:
        _clear_caches()
        cold.append(run(argv))
    # Warm, in the opposite order: no call may see what an earlier one left.
    _clear_caches()
    warm = [run(argv) for argv in reversed(argvs)][::-1]
    assert warm == cold
    assert sum("verdict=Gamma_L" in out for _, out, _ in cold) > 300
    info = picard._catalog_entry.cache_info()
    assert (info.misses, info.hits) == (14, len(argvs) - 14)


def test_shared_core_is_traced_once_and_file_cores_every_time(monkeypatch):
    traced = []
    trace = curveconf._trace_faces
    monkeypatch.setattr(curveconf, "_trace_faces",
                        lambda core: traced.append(core) or trace(core))
    _clear_caches()
    lat, ledger = catalog_lattice("P2")
    for _ in range(3):
        assert monodromy_report(lat.divisor((7,)), lat.divisor((3,)), ledger).certificate
        assert certify(*parse_assemblage(_HEADER)).type_e
    assert traced == [e6_a7_core()]
    inline = ("ambient 6 2\ncore inline\ncurves a b\nintersections\nx a b\nend\n"
              "boundary d -1\n")
    for _ in range(2):
        certify(*parse_assemblage(inline))
    assert len(traced) == 3 and traced[1] is not traced[2]


@pytest.mark.parametrize("core,error", [
    ("curves a b\nintersections\nx a b\ny a b\nribbon a x y\nribbon b x y\n",
     NotSimpleError),
    ("curves a b c\nintersections\nx a b\ny b c\nz c a\n", RibbonError),
], ids=["two-points", "triangle"])
def test_file_core_that_is_not_simple_or_not_a_tree_is_refused(core, error, capsys, tmp_path):
    text = f"ambient 6 2\ncore inline\n{core}end\nboundary dC -1\nboundary dD -1\n"
    with pytest.raises(error):
        certify(*parse_assemblage(text))
    path = tmp_path / "asm.txt"
    path.write_text(text)
    for fmt in ("human", "machine"):
        assert cli.main(["assemblage", "run", str(path), "--format", fmt]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: ")

import argparse
import random
import sys
import time

import pytest

from rspin import cli, curveconf, milnor, picard
from rspin.assemblage import certify, parse_assemblage
from rspin.cli import main, parse_machine, render_machine

import golden


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_human(capsys):
    code, out, _ = run(capsys, "report", "--surface", "P2", "--C", "6", "--D", "1")
    assert code == 0
    assert "Gamma_L = Mod(E)[phi_M], r = 4" in out


def test_report_machine_round_trip(capsys):
    code, out, _ = run(capsys, "report", "--surface", "P2", "--C", "6", "--D", "1",
                       "--format", "machine")
    assert code == 0
    pairs = parse_machine(out)
    assert pairs["r"] == "4" and pairs["r_prime"] == "4"
    assert pairs["conclusion"] == "4-spin mapping class group"
    assert parse_machine(render_machine(pairs)) == pairs


def test_report_deterministic(capsys):
    _, out1, _ = run(capsys, "report", "--surface", "P2", "--C", "7", "--D", "2",
                     "--format", "machine")
    _, out2, _ = run(capsys, "report", "--surface", "P2", "--C", "7", "--D", "2",
                     "--format", "machine")
    assert out1 == out2


def test_report_quantities_match_renderings(capsys):
    _, machine, _ = run(capsys, "report", "--surface", "P2", "--C", "6", "--D", "1",
                        "--format", "machine")
    _, human, _ = run(capsys, "report", "--surface", "P2", "--C", "6", "--D", "1")
    pairs = parse_machine(machine)
    for key in ("d", "g_C", "g_D", "g_E", "r", "r_prime"):
        assert pairs[key] in human


def test_milnor_cli(capsys):
    code, out, _ = run(capsys, "milnor", "x^3+y^4")
    assert code == 0 and "mu = 6" in out
    code, out, _ = run(capsys, "milnor", "y^2+y*x^4", "--format", "machine")
    assert parse_machine(out)["mu"] == "7"


def test_psi_cli(capsys):
    code, out, _ = run(capsys, "psi", "m(1,2)", "--d", "6")
    assert code == 0 and "(1, 1, 0, 0, 0, 0)" in out
    code, out, _ = run(capsys, "psi", "m(1,2) m(3,4) m(1,3)^-1 m(2,4)^-1",
                       "--d", "6", "--format", "machine")
    pairs = parse_machine(out)
    assert pairs["psi"] == "0,0,0,0,0,0" and pairs["in_kernel"] == "1"


def test_mainlemma_cli(capsys):
    code, out, _ = run(capsys, "mainlemma", "--k", "2,0,0,0,0,0",
                       "--format", "machine")
    assert code == 0
    pairs = parse_machine(out)
    assert pairs["ell"] == "2" and pairs["verified"] == "1"


def test_config_cli(capsys):
    code, out, _ = run(capsys, "config", "analyze", "--core", "--format", "machine")
    assert code == 0
    pairs = parse_machine(out)
    assert pairs["e_arboreal"] == "1" and pairs["genus"] == "6"
    assert pairs["spanning"] == "1"


def test_config_file(capsys, tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("curves a b\nambient 1 1\nintersections\nx a b\n")
    code, out, _ = run(capsys, "config", "analyze", str(path), "--format", "machine")
    pairs = parse_machine(out)
    assert pairs["chi"] == "-1" and pairs["spanning"] == "1"


def test_config_traces_the_boundary_once(capsys, tmp_path, monkeypatch):
    # A system builds its one intersection graph and traces its boundary once;
    # the graph predicates, the neighborhood and `spanning` all read them.
    calls = {"IntersectionGraph": 0, "_trace_faces": 0}
    for name in calls:
        fn = getattr(curveconf, name)
        monkeypatch.setattr(curveconf, name, lambda *a, fn=fn, name=name:
                            calls.__setitem__(name, calls[name] + 1) or fn(*a))
    path = tmp_path / "conf.txt"
    path.write_text("curves a b c d\nambient 1 2\nintersections\nx a b\ny b c\nz b d\n")
    curveconf.e6_a7_core.cache_clear()
    for argv in ((str(path),), ("--core",)):
        for name in calls:
            calls[name] = 0
        code, out, _ = run(capsys, "config", "analyze", *argv, "--format", "machine")
        pairs = parse_machine(out)
        assert code == 0 and pairs["arboreal"] == "1" and "spanning" in pairs, argv
        assert calls == {"IntersectionGraph": 1, "_trace_faces": 1}, argv
    steps = tmp_path / "steps.asm"
    for core, v1, v2 in [("chain 7", -9, 3), ("dynkin A5", -9, 5),
                         ("inline\n  curves a b c\n  intersections\n  x a b\n  y b c\nend",
                          -1, -1)]:
        steps.write_text(f"ambient 9 2\ncore {core}\nboundary dC {v1}\nboundary dD {v2}\n"
                         f"step t5 merge dC dD j1 {v1 + v2 - 1}\n")
        for name in calls:
            calls[name] = 0
        code, out, _ = run(capsys, "assemblage", "run", str(steps), "--format", "machine")
        assert code == 0 and parse_machine(out)["final_boundary"] == "1", core
        assert calls == {"IntersectionGraph": 1, "_trace_faces": 1}, core


@pytest.mark.parametrize("text,simple", [
    ("curves a b c d\nintersections\nx a b\ny b c\nz b d\n", "1"),
    (None, "1"),
    ("curves a b c\nintersections\nx a b\ny b c\nz a b\n", "0"),
], ids=["tree", "core", "pair-meets-twice"])
def test_config_counts_pairs_only_when_some_pair_meets_twice(capsys, tmp_path, monkeypatch,
                                                             text, simple):
    # `simple` comes from the intersection graph's edges-versus-crossings test;
    # crossings are counted per pair only to name a pair that meets twice, and
    # that name is kept for the neighborhood's check.
    calls = []
    pair_counts = curveconf.CurveSystem.pair_counts
    monkeypatch.setattr(curveconf.CurveSystem, "pair_counts",
                        lambda self: calls.append(1) or pair_counts(self))
    path = tmp_path / "conf.txt"
    if text is not None:
        path.write_text(text)
    argv = ["--core"] if text is None else [str(path)]
    for fmt in ("machine", "human"):
        calls.clear()
        code, out, _ = run(capsys, "config", "analyze", *argv, "--format", fmt)
        assert code == 0 and len(calls) == (1 if simple == "0" else 0), (fmt, calls)
        assert fmt == "human" or parse_machine(out)["simple"] == simple


def test_winding_cli(capsys, tmp_path):
    path = tmp_path / "wind.txt"
    path.write_text(
        "context 1 0 4\n"
        "curve a : 1 0 : 0\n"
        "curve c : 0 1 : 1\n"
        "word c^2\n")
    code, out, _ = run(capsys, "winding", "act", str(path), "--format", "machine")
    assert code == 0
    pairs = parse_machine(out)
    assert pairs["curve_a"] == "1,2:2"  # class (1,0)+2*1*(0,1); winding 0+2*1*1
    code, out, _ = run(capsys, "winding", "census", "--g", "1", "--format", "machine")
    pairs = parse_machine(out)
    assert pairs["arf0"] == "3" and pairs["arf1"] == "1"


def test_assemblage_cli(capsys, tmp_path):
    path = tmp_path / "asm.txt"
    path.write_text(
        "modulus 0\n"
        "ambient 7 2\n"
        "core e6a7\n"
        "boundary dC -9\n"
        "boundary dD -3\n"
        "step t5 merge dC dD j1 -13\n"
        "step delta5 split j1 dC2 -10 dD2 -4\n")
    code, out, _ = run(capsys, "assemblage", "run", str(path), "--format", "machine")
    assert code == 0
    pairs = parse_machine(out)
    assert pairs["final_genus"] == "7" and pairs["capping_order"] == "3"


def _step_file(rng, core, genus, b, steps):
    """A random coherent split/merge file over `core` (genus, b boundary circles),
    shaped like the benchmark's step files."""
    modulus = rng.choice((0, 0, 2, 5, 12))
    values = [rng.randint(-10, 10) for _ in range(b - 1)]
    values.append(2 - 2 * genus - b - sum(values))
    state = [(f"bd{i + 1}", v) for i, v in enumerate(values)]
    lines = [f"modulus {modulus}", core] + [f"boundary {n} {v}" for n, v in state]
    for i in range(steps):
        if len(state) == 1 or (len(state) < 6 and rng.random() < 0.5):
            name, v = state.pop(rng.randrange(len(state)))
            v1 = rng.randint(-10, 10)
            lines.append(f"step h{i} split {name} n{i}a {v1} n{i}b {v - 1 - v1}")
            state += [(f"n{i}a", v1), (f"n{i}b", v - 1 - v1)]
        else:
            (n1, v1), (n2, v2) = rng.sample(state, 2)
            state = [s for s in state if s[0] not in (n1, n2)] + [(f"n{i}", v1 + v2 - 1)]
            lines.append(f"step h{i} merge {n1} {n2} n{i} {v1 + v2 - 1}")
            genus += 1
    ambient = (genus, len(state)) if rng.random() < 0.75 else (genus + 1, len(state))
    lines.insert(1, f"ambient {ambient[0]} {ambient[1]}")
    return "\n".join(lines) + "\n"


def _run_before_streaming(text, fmt):
    """`assemblage run` stdout as rendered when every step was parsed before the fold."""
    asm, values = parse_assemblage(text)
    cert = certify(asm, values)
    q = cli._certificate_quantities(cert)
    if fmt == "machine":
        return render_machine(q) + "\n"
    return "\n".join([
        f"core: genus {cert.core_genus}, type E: {cert.type_e}",
        f"after {len(asm.steps)} steps: g = {cert.final_genus}, "
        f"b = {cert.final_boundary}, chi = {cert.final_chi}",
        f"boundary values: {q['boundary_values']}",
        f"filling ambient {asm.ambient}: {cert.filling}",
        f"capping order: {q['capping_order']}",
        ("verdict: twists about the listed curves generate the framed "
         "mapping class group" if cert.verdict else
         "verdict: criteria not met (inapplicable)"),
    ]) + "\n"


@pytest.mark.parametrize("core,genus,b", [
    ("core e6a7", 6, 2), ("core chain 7", 3, 2), ("core dynkin A6", 3, 1),
    ("core dynkin E6", 3, 1),
    ("core inline\n  curves a b c d\n  intersections\n  x a b\n  y b c\n  z c d\nend",
     2, 1),
], ids=["e6a7", "chain", "dynkin-A", "dynkin-E6", "inline"])
def test_assemblage_run_output_is_unchanged_by_streaming(capsys, tmp_path, core, genus, b):
    rng = random.Random(core)
    path = tmp_path / "steps.asm"
    verdicts = set()
    for steps in (0, 1, 2, 50, 400):
        text = _step_file(rng, core, genus, b, steps)
        path.write_text(text)
        for fmt in ("human", "machine"):
            code, out, err = run(capsys, "assemblage", "run", str(path), "--format", fmt)
            assert (code, err) == (0, "")
            assert out == _run_before_streaming(text, fmt)
            if fmt == "machine":
                verdicts.add(parse_machine(out)["verdict"])
    if core == "core e6a7":
        assert verdicts >= {"generates", "inapplicable"}


_ASSEMBLAGE_HEADER = "ambient 7 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_assemblage_header_after_a_step_exit_one(capsys, tmp_path, fmt):
    path = tmp_path / "steps.asm"
    path.write_text(_ASSEMBLAGE_HEADER + "step t5 merge dC dD j1 -13\n"
                    "boundary dE 0  # too late\n")
    code, out, err = run(capsys, "assemblage", "run", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: header line 'boundary dE 0' comes after the first step\n"


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_assemblage_run_reports_the_first_error_in_the_file(capsys, tmp_path, fmt):
    # Steps fold as they are read, so the unknown component of step 2 is
    # found before the malformed last line is read.
    path = tmp_path / "steps.asm"
    path.write_text(_ASSEMBLAGE_HEADER + "step t5 merge dC dD j1 -13\n"
                    "step t6 split ghost a -5 b -5\n"
                    "step delta5 split j1 dC2 -10 dD2 -4\n"
                    "step t7 split\n")
    code, out, err = run(capsys, "assemblage", "run", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: no boundary component 'ghost'\n"


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("argv", [
    ("lattice", "FILE", "info"), ("config", "analyze", "FILE"), ("winding", "act", "FILE"),
    ("assemblage", "run", "FILE"), ("report", "--surface", "FILE", "--C", "6", "--D", "1"),
], ids=["lattice", "config", "winding", "assemblage", "report"])
def test_non_utf8_file_exit_one(capsys, tmp_path, argv, fmt):
    path = tmp_path / "input.txt"
    path.write_bytes(b"modulus 0\n\xff\n")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv),
                         "--format", fmt)
    assert code == 1 and out == ""
    assert err == f"error: {str(path)!r} is not UTF-8 text: invalid start byte at byte 10\n"


def test_lattice_cli(capsys):
    code, out, _ = run(capsys, "lattice", "P2", "adjoint", "5", "--format", "machine")
    pairs = parse_machine(out)
    assert pairs["adjoint"] == "2" and pairs["divisibility"] == "2"
    code, out, _ = run(capsys, "lattice", "P2", "intersect", "5", "5")
    assert "25" in out
    code, out, _ = run(capsys, "lattice", "P1xP1", "genus", "2,2",
                       "--format", "machine")
    assert parse_machine(out)["genus"] == "1"
    code, out, _ = run(capsys, "lattice", "P2", "hypothesis", "7",
                       "--format", "machine")
    assert parse_machine(out)["hypothesis"] == "certified"
    code, out, _ = run(capsys, "lattice", "P2", "hypothesis", "5",
                       "--format", "machine")
    assert parse_machine(out)["hypothesis"] == "not-certified"


def test_lattice_smoothed_genus_and_lefschetz(capsys):
    code, out, _ = run(capsys, "lattice", "P2", "smoothed-genus", "6", "1",
                       "--format", "machine")
    assert parse_machine(out)["genus"] == "15"
    code, out, _ = run(capsys, "lattice", "K3-4", "lefschetz",
                       "--format", "machine")
    pairs = parse_machine(out)
    assert pairs["classification"] == "K3" and pairs["exceptional"] == "1"


def test_lattice_genus_names_a_negative_genus_arithmetic(capsys):
    # On P1xP1, (4,0) is four disjoint fibers (arithmetic genus -3), and two
    # fibers (1,0) smooth to two disjoint fibers (-1): neither has a smooth
    # connected section.  The machine line keeps the bare number.
    for op, negative, human, machine, nonnegative, line in [
        ("genus", ["4,0"], "arithmetic genus: -3", "genus=-3",
         ["1,0"], "genus of a smooth section: 0"),
        ("smoothed-genus", ["1,0", "1,0"], "arithmetic genus of the smoothed union: -1",
         "genus=-1", ["1,0", "0,1"], "genus of the smoothed union: 0"),
    ]:
        code, out, _ = run(capsys, "lattice", "P1xP1", op, *negative)
        assert code == 0 and out == human + " (no smooth connected section exists)\n"
        code, out, _ = run(capsys, "lattice", "P1xP1", op, *negative, "--format", "machine")
        assert out == machine + "\n"
        code, out, _ = run(capsys, "lattice", "P1xP1", op, *nonnegative)
        assert out == line + "\n"


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("surface,c,d", [
    ("P1xP1", "6,8", "2,0"),  # g_D = -1
    ("P1xP1", "1,6", "6,1"),  # g_C = g_D = 0
    ("FILE", "1,3", "1,4"),  # g_C = g_D = 0 and g_E = 6, filled by the bare core
], ids=["negative-genus", "both-below-three", "file-bare-core"])
def test_report_outside_the_construction_exits_one(capsys, tmp_path, surface, c, d, fmt):
    if surface == "FILE":
        golden.write_inputs(tmp_path)
        surface = str(tmp_path / golden.LATTICE_FILE)
    for first, second in ((c, d), (d, c)):
        code, out, err = run(capsys, "report", "--surface", surface, "--C", first,
                             "--D", second, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("error: construction needs d >= 6 and section genera >= 0, "
                       "one of them >= 3\n")


@pytest.mark.parametrize("cls", ["-1", "3"])
def test_lefschetz_rejects_a_class_that_is_not_the_ample_generator(capsys, cls):
    # -H is anti-ample and 3H is not primitive (6H would have r = 3): neither
    # may stand for the generator of Pic(P2).
    code, out, err = run(capsys, "lattice", "P2", "lefschetz", cls, "--format", "machine")
    assert code == 1 and out == ""
    assert err == f"error: ({cls}) is not the ample generator (1) of the rank-1 lattice\n"


def test_lefschetz_takes_the_ample_side_from_the_ledger(capsys, tmp_path):
    # P2 in the basis -H: its very ample class is (-1), so K = (3) = -3 * (-1).
    path = tmp_path / "p2.lat"
    path.write_text("name P2\nrank 1\ngram 1\ncanonical 3\njets\n-1 1\n", encoding="utf-8")
    for args in ([], ["-1"]):
        code, out, _ = run(capsys, "lattice", str(path), "lefschetz", *args,
                           "--format", "machine")
        assert code == 0 and out == ("exists=1\nrank=1\nclassification=del Pezzo\n"
                                     "exceptional=1\nwitness_multiple=4\n")
    code, out, _ = run(capsys, "report", "--surface", str(path), "--C", "-6", "--D", "-1",
                       "--format", "machine")
    assert code == 0 and parse_machine(out)["certificate"] == "generates"
    code, _, err = run(capsys, "lattice", str(path), "lefschetz", "1")
    assert code == 1 and "is not the ample generator (-1)" in err


def test_config_dynkin_flag(capsys):
    code, out, _ = run(capsys, "config", "analyze", "--dynkin", "A7",
                       "--format", "machine")
    pairs = parse_machine(out)
    assert pairs["arboreal"] == "1" and pairs["e_arboreal"] == "0"
    assert pairs["genus"] == "3" and pairs["boundary"] == "2"


def test_config_chain_40_is_fast(capsys):
    # Exhaustive E6 search took seconds here (C(40, 6) subsets); the tree
    # criterion is linear.
    start = time.perf_counter()
    code, out, _ = run(capsys, "config", "analyze", "--chain", "40",
                       "--format", "machine")
    elapsed = time.perf_counter() - start
    pairs = parse_machine(out)
    assert code == 0 and pairs["arboreal"] == "1" and pairs["e_arboreal"] == "0"
    assert pairs["genus"] == "20"
    assert elapsed < 0.5, f"config analyze --chain 40 took {elapsed:.2f}s"


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_config_chain_zero_names_the_chain_length(capsys, fmt):
    # 0 is a given chain length, not a missing --chain.
    code, out, err = run(capsys, "config", "analyze", "--chain", "0", "--format", fmt)
    assert (code, out, err) == (1, "", "error: chain length must be >= 1\n")


def test_winding_census_large_genus(capsys):
    code, out, _ = run(capsys, "winding", "census", "--g", "7", "--format", "machine")
    assert code == 0
    pairs = parse_machine(out)
    assert pairs["arf0"] == "8256" and pairs["arf1"] == "8128"


def test_catalog_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "P1xP1" in out
    # A stray name is refused, as `lattice P2 info 1` refuses a stray vector.
    for fmt in ("human", "machine"):
        code, out, err = run(capsys, "catalog", "list", "P2", "--format", fmt)
        assert (code, out, err) == (1, "", "error: catalog list takes no name\n")
    code, out, _ = run(capsys, "catalog", "show", "P2")
    assert code == 0
    # The rendered lattice file parses back and reports identically.
    path = tmp_path / "p2.txt"
    path.write_text(out)
    code, out2, _ = run(capsys, "lattice", str(path), "adjoint", "7",
                        "--format", "machine")
    assert parse_machine(out2)["divisibility"] == "4"


def test_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "report", "--surface", "P2", "--C", "2", "--D", "1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "lattice", "NOPE", "info")
    assert code == 1
    code, _, err = run(capsys, "milnor", "y^2")
    assert code == 1


@pytest.mark.parametrize("argv,text", [
    # assemblage `modulus` with no value
    (("assemblage", "run", "FILE"),
     "modulus\nambient 6 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"),
    # lattice file that ends right after `name`
    (("lattice", "FILE", "info"), "rank 1\ngram 1\ncanonical -3\nname\n"),
    # winding `context` with two of its three integers
    (("winding", "act", "FILE"), "context 2 0\ncurve a : 1 0 0 0 : 0\nword a^1\n"),
], ids=["assemblage-modulus", "lattice-name", "winding-context"])
def test_truncated_input_line_exit_one(capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, _, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv),
                       "--format", "machine")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv,text,line,token", [
    (("winding", "act", "FILE"), "context 1 0 x\ncurve a : 1 0 : 0\n",
     "context 1 0 x", "x"),
    (("winding", "act", "FILE"), "context 1 0 4\ncurve a : 1 q : 0  # class\n",
     "curve a : 1 q : 0", "q"),
    (("winding", "act", "FILE"), "context 1 0 4\ncurve a : 1 0 : 2.5\n",
     "curve a : 1 0 : 2.5", "2.5"),
    (("winding", "act", "FILE"), "context 1 0 4\ncurve a : 1 0 : 0\nword a^x\n",
     "word a^x", "x"),
    (("winding", "act", "FILE"), "context 1 0 4\ncurve c : 0 1 : 1\nword c^\n",
     "word c^", ""),
    (("config", "analyze", "FILE"), "curves a b\nambient 1 one\nintersections\nx a b\n",
     "ambient 1 one", "one"),
    (("config", "analyze", "FILE"), "curves a b\nintersections\nx a b +\n",
     "x a b +", "+"),
    (("lattice", "FILE", "info"), "rank 1\ngram 1\ncanonical -3,\njets\n1 one\n",
     "1 one", "one"),
    (("milnor", "x^²"), "", "x^²", "²"),
], ids=["winding-context", "winding-class", "winding-value", "winding-exponent",
        "winding-bare-caret", "config-ambient", "config-sign", "lattice-jet",
        "milnor-exponent"])
def test_non_integer_token_exit_one(capsys, tmp_path, argv, text, line, token):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv),
                         "--format", "machine")
    assert code == 1 and out == ""
    assert err == f"error: expected an integer, got {token!r} in {line!r}\n"


@pytest.mark.parametrize("chunk", ["m(1)", "m(1,x)", "m(1,2)^x", "b(q)", "m(1,2,3)",
                                   "m(1,2)^"])
def test_psi_malformed_generator_exit_one(capsys, chunk):
    code, out, err = run(capsys, "psi", f"m(1,2) {chunk}", "--d", "6")
    assert code == 1 and out == ""
    assert err == f"error: cannot parse generator {chunk!r}\n"


@pytest.mark.parametrize("fmt", ["machine", "human"])
@pytest.mark.parametrize("argv", [("winding", "census", "--g", "10000"),
                                  ("lattice", "P2", "genus", "9" * 3000)],
                         ids=["census", "genus"])
def test_answer_too_long_to_print_exit_one(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "digits" in err


@pytest.mark.parametrize("text,cls,degree,l", [
    ("rank 1\ngram 1\ncanonical -3\njets\n1 1\n0 1\n", "(0)", 0, "7"),
    # dP1 with H and E1: E1.(H + E1) = -1
    ("rank 2\ngram 1 0 0 -1\ncanonical -3 1\njets\n1 0 1\n0 1 0\n", "(0,1)", -1, "7,0"),
], ids=["zero-class", "negative-degree"])
def test_hypothesis_ledger_class_without_positive_degree_exit_one(
        capsys, tmp_path, text, cls, degree, l):
    path = tmp_path / "ledger.lat"
    path.write_text(text)
    code, out, err = run(capsys, "lattice", str(path), "hypothesis", l)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: ledger class {cls} has degree {degree} ")


def test_hypothesis_search_past_the_limit_exit_one(capsys, tmp_path, monkeypatch):
    # dP1 with H at level 1 and the conic H - E1 at level 0: 9 * 9 sums lie below L.
    path = tmp_path / "ledger.lat"
    path.write_text("rank 2\ngram 1 0 0 -1\ncanonical -3 1\njets\n1 0 1\n1 -1 0\n")
    assert run(capsys, "lattice", str(path), "hypothesis", "16,-8")[0] == 0
    monkeypatch.setattr(picard, "SEARCH_LIMIT", 50)
    code, out, err = run(capsys, "lattice", str(path), "hypothesis", "16,-8")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == "error: the splitting search needs over 50 ledger sums\n"


def test_milnor_past_the_old_ceiling(capsys):
    code, out, _ = run(capsys, "milnor", "x^14+y^15", "--format", "machine")
    assert code == 0 and parse_machine(out)["mu"] == "182"
    assert parse_machine(out)["truncation"] == "26"
    code, out, err = run(capsys, "milnor", "x^4-2*x^2*y^3+y^6")
    assert code == 1 and out == ""
    assert err == "error: the partials share a component through the origin\n"


def test_milnor_basis_past_the_limit_exit_one(capsys, monkeypatch):
    code, out, err = run(capsys, "milnor", "x^100000+y^2")
    assert code == 1 and out == "" and err.count("\n") == 1
    monkeypatch.setattr(milnor, "SEARCH_LIMIT", 45)
    assert run(capsys, "milnor", "x^9+y^2")[0] == 0
    for fmt in ("human", "machine"):
        code, out, err = run(capsys, "milnor", "x^10+y^2", "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: the monomial basis needs over 45 columns\n"


def test_milnor_basis_search_refuses_fast(capsys):
    # mu = 299^2 needs truncation 596; matrices stop at truncation 510.
    start = time.perf_counter()
    code, out, err = run(capsys, "milnor", "x^300+y^300")
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert err == "error: the monomial basis needs over 131072 columns\n"
    assert elapsed < 3.0, f"milnor x^300+y^300 took {elapsed:.2f}s to refuse"


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- the usage contract -------------------------------------------------------
#
# One canonical argv per command and every dest it parses to, defaults
# included.  The help layout differs across Python versions, so only the
# first words of the usage line are pinned.

CANONICAL = {
    "lattice": (["lattice", "P2", "info"],
                {"lattice": "P2", "op": "info", "args": []}),
    "config": (["config", "analyze", "--core"],
               {"op": "analyze", "file": None, "chain": None, "dynkin": None, "core": True}),
    "winding act": (["winding", "act", "w.txt"], {"op": "act", "file": "w.txt"}),
    "winding census": (["winding", "census", "--g", "2"], {"op": "census", "g": 2}),
    "assemblage": (["assemblage", "run", "a.asm"], {"op": "run", "file": "a.asm"}),
    "milnor": (["milnor", "x^3+y^4"], {"polynomial": "x^3+y^4"}),
    "psi": (["psi", "m(1,2)", "--d", "6"], {"word": "m(1,2)", "d": 6}),
    "mainlemma": (["mainlemma", "--k", "2,0,0,0,0,0"],
                  {"k": "2,0,0,0,0,0", "arc": None, "third": 3}),
    "report": (["report", "--surface", "P2", "--C", "6", "--D", "1"],
               {"surface": "P2", "C": "6", "D": "1"}),
    "catalog": (["catalog", "list"], {"op": "list", "name": None}),
}


def _exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", ["", *CANONICAL, "winding"])
def test_help_exits_zero_with_the_command_in_its_usage(capsys, command):
    words = command.split()
    code, out, err = _exit_code(capsys, [*words, "-h"])
    assert code == 0 and err == ""
    assert out.split()[:2 + len(words)] == ["usage:", "rspin", *words]


@pytest.mark.parametrize("command", list(CANONICAL))
def test_canonical_argv_parses_to_fixed_dests(capsys, command):
    argv, dests = CANONICAL[command]
    for fmt in ("human", "machine"):
        args = vars(cli.parse_args(argv + ["--format", fmt]))
        assert callable(args.pop("func"))
        assert args == {"command": argv[0], **dests, "format": fmt}
    assert vars(cli.parse_args(argv))["format"] == "human"
    for bad in ("bad", "Machine", ""):
        code, out, err = _exit_code(capsys, argv + ["--format", bad])
        assert code == 2 and out == "" and err.startswith("usage: rspin ")


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--format", "machine"],
                                  ["winding"], ["winding", "frobnicate"]],
                         ids=["bare", "unknown", "format-only", "winding-bare",
                              "winding-unknown"])
def test_no_or_unknown_command_exits_two(capsys, argv):
    code, out, err = _exit_code(capsys, argv)
    assert code == 2 and out == "" and err.startswith("usage: rspin")


# A required argument left out, for each command and subcommand.
MISSING = {
    "lattice": ["lattice"],
    "config": ["config"],
    "winding": ["winding"],
    "winding act": ["winding", "act"],
    "winding census": ["winding", "census"],
    "assemblage": ["assemblage"],
    "milnor": ["milnor"],
    "psi": ["psi", "m(1,2)"],
    "mainlemma": ["mainlemma"],
    "report": ["report", "--surface", "P2"],
    "catalog": ["catalog"],
}


def test_usage_error_cases_cover_every_command():
    assert {command.split()[0] for command in CANONICAL} == set(cli.COMMANDS)
    assert set(MISSING) == {*CANONICAL, "winding"}


@pytest.mark.parametrize("command", list(CANONICAL))
def test_unknown_option_after_valid_arguments_exits_two(capsys, command):
    # The top-level parser reports what no subparser recognized.
    code, out, err = _exit_code(capsys, CANONICAL[command][0] + ["--bogus"])
    assert code == 2 and out == ""
    assert err.startswith("usage: rspin [-h]")
    assert err.endswith("rspin: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command", list(MISSING))
def test_missing_required_argument_exits_two(capsys, command):
    code, out, err = _exit_code(capsys, MISSING[command])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        f"rspin {command}: error: the following arguments are required:")


# -- only the invoked command's subparser gets arguments ----------------------
#
# `parse_args` keeps every subparser and its help but adds arguments only to
# those argv names.  The reference below adds every command's arguments, as
# the parser did before; `main` must print and exit the same through either.


def _parser_with_every_argument() -> argparse.ArgumentParser:
    def add_commands(parser, table, dest):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (help_, handler, *arguments) in table.items():
            p = sub.add_parser(name, help=help_)
            if isinstance(handler, dict):
                add_commands(p, handler, "op")
                continue
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.add_argument("--format", choices=("human", "machine"), default="human")
            p.set_defaults(func=handler)

    parser = argparse.ArgumentParser(
        prog="rspin",
        description="Winding-number calculus, assemblage certificates, and "
                    "Picard-lattice monodromy reports.")
    add_commands(parser, cli.COMMANDS, "command")
    return parser


def _usage_corpus():
    """Each command's canonical argv and its usage errors, and the top level."""
    for command, (argv, _) in CANONICAL.items():
        n = len(command.split())
        yield command, argv
        yield f"{command} -h", argv[:n] + ["-h"]
        yield f"{command} bogus-after", argv + ["--bogus"]
        yield f"{command} bogus-before", ["--bogus"] + argv
        yield f"{command} missing", MISSING[command]
        yield f"{command} bad-format", argv + ["--format", "bad"]
        yield f"{command} extra", argv + ["extra"]
        yield f"{command} dashes-before", ["--"] + argv
        yield f"{command} dashes-after", argv[:1] + ["--"] + argv[1:]
    yield "winding missing", MISSING["winding"]
    yield "winding -h", ["winding", "-h"]
    yield "bare", []
    yield "unknown", ["frobnicate"]
    yield "-h", ["-h"]
    yield "-h before a command", ["-h", "report"]
    # argparse takes a command only by its full name, so a subparser that argv
    # does not name is never parsed and needs no -h.
    yield "abbreviated -h", ["rep", "-h"]
    yield "abbreviated", ["repor", "--surface", "P2", "--C", "7", "--D", "3"]
    yield "abbreviated op -h", ["winding", "cen", "-h"]


USAGE_CORPUS = dict(_usage_corpus())


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def canonical_files(tmp_path, monkeypatch):
    """Run in a directory that holds the canonical argvs' files, so that every
    canonical command runs to the end."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_text("context 1 0 4\ncurve a : 1 0 : 0\nword a\n")
    (tmp_path / "a.asm").write_text(
        "modulus 0\nambient 7 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"
        "step t5 merge dC dD j1 -13\nstep delta5 split j1 dC2 -10 dD2 -4\n")


@pytest.mark.parametrize("case", list(USAGE_CORPUS))
def test_main_prints_what_the_parser_with_every_argument_prints(
        capsys, monkeypatch, canonical_files, case):
    argv = USAGE_CORPUS[case]
    got = _outcome(capsys, argv)
    assert got[0] == 0 or case not in CANONICAL, got
    monkeypatch.setattr(cli, "parse_args",
                        lambda argv: _parser_with_every_argument().parse_args(argv))
    assert got == _outcome(capsys, argv)


@pytest.mark.parametrize("argv,filled", [
    (["catalog", "list"], {"rspin", "rspin catalog"}),
    (["winding", "census", "--g", "2"], {"rspin", "rspin winding", "rspin winding census"}),
    (["report", "--surface", "P2", "--C", "7", "--D", "3"], {"rspin", "rspin report"}),
], ids=["catalog", "winding-census", "report"])
def test_only_the_invoked_command_gets_arguments(capsys, monkeypatch, argv, filled):
    made = []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    assert main(argv) == 0
    capsys.readouterr()
    # Every command keeps its subparser; winding's ops exist once winding is named.
    ops = ["rspin winding act", "rspin winding census"] if "winding" in argv else []
    assert sorted(p.prog for p in made) == sorted(
        ["rspin", *(f"rspin {c}" for c in cli.COMMANDS), *ops])
    # A command that argv does not name is never parsed, so it gets not even -h;
    # a named one has -h and then its arguments (or its commands).
    for p in made:
        usage, words = p.format_usage(), ["usage:", *p.prog.split()]
        if p.prog in filled:
            assert usage.split()[:len(words) + 1] == [*words, "[-h]"], usage
            assert len(usage.split()) > len(words) + 1, usage
        else:
            assert usage == f"usage: {p.prog}\n", usage


def test_main_without_argv_parses_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rspin", "catalog", "list", "--format", "machine"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("lattices=P2,")

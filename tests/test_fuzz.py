"""Seeded mutation fuzz over every text parser and the CLI.

Each seed input is valid; mutations delete, duplicate or swap tokens and
lines, insert `#`, `^`, `,`, `²` or `1.5`, truncate a line, and switch to
CRLF endings; some input files also get bytes that are not UTF-8.  A parser
may reject the result only with a DomainError, and the CLI may only exit 0,
1 or 2.
"""

import random
import re

import pytest

from rspin import braidcalc, cli, curveconf, milnor, picard, winding
from rspin.assemblage import parse_assemblage
from rspin.cli import parse_machine, render_machine
from rspin.errors import DomainError

LATTICE = [
    "name P2\nrank 1\ngram 1\ncanonical -3\njets\n1 1\n",
    "name Q  # a quadric\nrank 2\ngram 0,1 1,0\ncanonical -2,-2\n"
    "simply_connected 1\njets\n1,1 1\n",
]
CONFIG = [
    "curves a b c\nambient 1 1\nintersections\nx a b\ny b c -1\n",
    "curves a b c\nintersections\nx a b\ny b c\nribbon b y x\n",
]
WINDING = [
    "context 1 0 4\ncurve a : 1 0 : 0\ncurve c : 0 1 : 1\nword c^2 a\n",
    "context 1 2 0  # framing level\ncurve a : 1 0 1 0 : 3\nword a^-1 a\n",
]
ASSEMBLAGE = [
    "modulus 0\nambient 7 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"
    "step t5 merge dC dD j1 -13\nstep delta5 split j1 dC2 -10 dD2 -4\n",
    "modulus 2\nambient 1 1\ncore inline\n  curves a b\n  intersections\n"
    "  x a b\nend\nboundary d -1\n",
    "ambient 3 1\ncore chain 4\nboundary d1 -1\nboundary d2 -1\n"
    "step t merge d1 d2 e -3\n",
]
POLYNOMIAL = ["x^3 + y^4", "2*x^2*y - 3/4 y^5 + x^7", "y^2 + y*x^4",
              "x^14 + y^15", "x^4 - 2*x^2*y^3 + y^6", "x^600 + y^2"]
WORD = ["m(1,2)^2 b(3) s(tag)", "m(1,3)^-1 * m(2,4) m(1,2)"]
COORDINATES = ["2,0,0,0,0,0", "(1,2)", "-1,3,0,0,0,2"]
NAME = ["P2", "P1xP1", "dP6", "K3-4"]
# Mutations never make a genus larger than its seed, so every census stays small.
GENUS = ["0", "3", "12"]

# kind -> (parser, seeds, CLI argv templates); FILE is replaced by a path
# holding the input, TEXT by the input itself and CLASS by a class 7,...,7 of
# the rank the input declares.  Kinds with no parser of their own are fuzzed
# through the CLI only.
KINDS = {
    "lattice": (picard.parse_lattice, LATTICE,
                [["lattice", "FILE", "info"], ["lattice", "FILE", "lefschetz"],
                 ["lattice", "FILE", "hypothesis", "CLASS"],
                 ["report", "--surface", "FILE", "--C", "6", "--D", "1"],
                 ["report", "--surface", "FILE", "--C", "CLASS", "--D", "CLASS"]]),
    "config": (curveconf.parse_curve_system, CONFIG, [["config", "analyze", "FILE"]]),
    "winding": (winding.parse_winding, WINDING, [["winding", "act", "FILE"]]),
    "assemblage": (parse_assemblage, ASSEMBLAGE, [["assemblage", "run", "FILE"]]),
    "polynomial": (milnor.PlaneGerm.parse, POLYNOMIAL, [["milnor", "TEXT"]]),
    "word": (braidcalc.parse_word, WORD, [["psi", "TEXT", "--d", "6"]]),
    "coordinates": (cli._coords, COORDINATES,
                    [["mainlemma", "--k=TEXT"],
                     ["mainlemma", "--k=2,0,0,0,0,0", "--arc=TEXT"],
                     ["lattice", "P1xP1", "genus", "TEXT"]]),
    "name": (None, NAME, [["catalog", "show", "TEXT"]]),
    "genus": (None, GENUS, [["winding", "census", "--g", "TEXT"]]),
}

# A bad start byte, a stray continuation byte and an encoded surrogate: each
# leaves the file invalid UTF-8 wherever it is spliced in.
NOT_UTF8 = [b"\xff", b"\x80", b"\xed\xa0\x80"]

JUNK = ["#", "^", ",", "²", "1.5"]


def mutate(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        words = lines[i].split(" ")
        j, k = rng.randrange(len(words)), rng.randrange(len(words))
        op = rng.randrange(8)
        if op == 0:
            del words[j]
        elif op == 1:
            words.insert(j, words[j])
        elif op == 2:
            words[j], words[k] = words[k], words[j]
        elif op == 3:
            cut = rng.randint(0, len(words[j]))
            words[j] = words[j][:cut] + rng.choice(JUNK) + words[j][cut:]
        elif op == 4:
            cut = rng.randrange(len(words[j]) + 1)
            words[j] = words[j][:cut] + words[j][cut + 1:]
        elif op == 5:
            words = [" ".join(words)[:rng.randrange(len(lines[i]) + 1)]]
        elif op == 6:
            lines.insert(i, lines[i])
        else:
            del lines[i]
            if not lines:
                lines = [""]
            continue
        lines[i] = " ".join(words)
    out = "\n".join(lines)
    return out.replace("\n", "\r\n") if rng.random() < 0.25 else out


def corpus(seed: int, count: int, kinds: tuple[str, ...] = tuple(KINDS)):
    """`count` mutated inputs as (kind, text), cycling through `kinds`."""
    rng = random.Random(seed)
    for n in range(count):
        kind = kinds[n % len(kinds)]
        yield kind, mutate(rng, rng.choice(KINDS[kind][1]))


def test_parsers_raise_only_domain_errors():
    rejected = 0
    parsed = tuple(kind for kind, (parser, _, _) in KINDS.items() if parser)
    for kind, text in corpus(6, 10_500, parsed):
        try:
            KINDS[kind][0](text)
        except DomainError:
            rejected += 1
        except Exception as exc:
            pytest.fail(f"{kind} parser on {text!r} raised {exc!r}")
    # The mutations reach both sides of every parser.
    assert 2000 < rejected < 9000


def cli_cases(seed: int, count: int):
    """`count` CLI argv templates with a mutated input each, as text and as the
    bytes of its file; a quarter of the files also get bytes that are not UTF-8."""
    rng = random.Random(seed)
    for kind, text in corpus(seed, count):
        template = rng.choice(KINDS[kind][2])
        data = text.encode("utf-8")
        if "FILE" in template and rng.random() < 0.25:
            cut = rng.randrange(len(data) + 1)
            data = data[:cut] + rng.choice(NOT_UTF8) + data[cut:]
        yield template, text, data


def run_cli(capsys, path, template, text, fmt, data=None):
    if "FILE" in template:
        path.write_bytes(text.encode("utf-8") if data is None else data)
    rank = re.search(r"rank\s+(\d)\b", text)
    seven = ",".join("7" * int(rank.group(1) if rank else 1))
    argv = [a.replace("FILE", str(path)).replace("TEXT", text).replace("CLASS", seven)
            for a in template]
    try:
        code = cli.main(argv + ["--format", fmt])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_on_mutated_inputs(capsys, tmp_path):
    path = tmp_path / "input.txt"
    codes = set()
    not_utf8 = 0
    for template, text, data in cli_cases(7, 400):
        for fmt in ("machine", "human"):
            code, out, err = run_cli(capsys, path, template, text, fmt, data)
            codes.add(code)
            assert code in (0, 1, 2), (template, text)
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            if data != text.encode("utf-8"):
                assert code == 1 and " is not UTF-8 text: " in err, (template, data)
                not_utf8 += 1
            elif code == 0 and template[0] == "catalog":
                # `catalog show` prints a lattice file in either format.
                picard.parse_lattice(out)
            elif code == 0 and fmt == "machine":
                assert render_machine(parse_machine(out)) + "\n" == out
    assert codes >= {0, 1}
    assert not_utf8 > 40


def test_cli_hypothesis_on_mutated_ledgers(capsys, tmp_path):
    """Mutated lattice files through `lattice FILE hypothesis`, many reaching the search."""
    path = tmp_path / "input.txt"
    rng = random.Random(8)
    template = KINDS["lattice"][2][2]
    answered = []
    for _ in range(150):
        text = mutate(rng, rng.choice(LATTICE))
        for fmt in ("machine", "human"):
            code, out, err = run_cli(capsys, path, template, text, fmt)
            assert code in (0, 1), (text, err)
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            elif fmt == "machine":
                answered.append(parse_machine(out)["hypothesis"])
                assert render_machine(parse_machine(out)) + "\n" == out
    assert len(answered) > 25 and set(answered) == {"certified", "not-certified"}


def test_cli_milnor_on_mutated_germs(capsys, tmp_path):
    """Mutated germs through `milnor`: answers, non-isolated germs and the size bound."""
    rng = random.Random(9)
    outcomes = []
    for _ in range(100):
        text = mutate(rng, rng.choice(POLYNOMIAL))
        for fmt in ("machine", "human"):
            code, out, err = run_cli(capsys, tmp_path, ["milnor", "TEXT"], text, fmt)
            assert code in (0, 1, 2), (text, err)
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            elif code == 0 and fmt == "machine":
                assert render_machine(parse_machine(out)) + "\n" == out
            outcomes.append(err if code == 1 else code)
    assert 0 in outcomes
    assert "error: the partials share a component through the origin\n" in outcomes
    assert any("columns" in str(outcome) for outcome in outcomes)


def _messy(text: str) -> str:
    """The same content with comments, tabs, blank lines and CRLF endings."""
    out = ["# header", "", " \t "]
    for line in text.splitlines():
        out.append("\t" + line.replace(" ", " \t") + "   # note")
        out.append("")
    return "\r\n".join(out)


def _system(sys_):
    return (sys_.curves, sys_.crossings, sys_.ambient, sys_.ribbon, sys_.ribbon_given)


def _lattice(parsed):
    lattice, ledger = parsed
    return lattice, {c.coords: ledger.level(c) for c in ledger.classes()}


def _winding(parsed):
    ctx, curves, word = parsed
    return ctx, curves, word.letters


def _assemblage(parsed):
    asm, values = parsed
    return asm.steps, asm.ambient, asm.modulus, _system(asm.core), values


@pytest.mark.parametrize("parse,key,seeds", [
    (picard.parse_lattice, _lattice, LATTICE),
    (curveconf.parse_curve_system, _system, CONFIG),
    (winding.parse_winding, _winding, WINDING),
    (parse_assemblage, _assemblage, ASSEMBLAGE),
], ids=["lattice", "config", "winding", "assemblage"])
def test_layout_parses_like_the_plain_file(parse, key, seeds):
    for text in seeds:
        assert key(parse(_messy(text))) == key(parse(text))

"""Golden CLI corpus: each argv with its exit code and short hashes of its output.

Each line of `tests/golden/cli.txt` holds one argv (shell-quoted), its exit
code, and the first 16 hex digits of the sha256 of its stdout and of its
stderr, tab-separated.  `tests/test_golden.py` runs every argv in-process and
compares.  A change to the CLI's output shows as a diff of that file; to
regenerate it, run (with rspin importable, installed or on PYTHONPATH):

    python tests/golden.py --write

The corpus holds the report box (below), the catalog, the core and chain
configurations, the README examples that need no file, the Milnor germs CI
checks, three two-section refusals, the `lattice` ops on every catalog lattice
and the domain errors that `tests/test_cli.py` names, each in both formats.
The input files are written to fixed relative names, so no output holds a
path.  Usage errors and help stay out: argparse words them differently across
Python versions.  So does Python's int-to-str limit, so the answers too long to
print stay out too.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from rspin import cli
from rspin.picard import catalog_lattice, catalog_names

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

# Two sections of genus 0 meeting 7 times on this lattice smooth to genus 6,
# and the ledger certifies L = (2, 7) as (1, 6) + (1, 1).
LATTICE_FILE = "rank2.lat"
LATTICE_TEXT = "rank 2\ngram 0 1 1 0\ncanonical -2 -2\njets\n1 6 6\n1 1 1\n"


_ASSEMBLAGE_HEADER = "ambient 7 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n"

# The files of the domain errors below, as `tests/test_cli.py` writes them.
ERROR_INPUTS = {
    "late-header.asm": _ASSEMBLAGE_HEADER + "step t5 merge dC dD j1 -13\n"
                       "boundary dE 0  # too late\n",
    "ghost.asm": _ASSEMBLAGE_HEADER + "step t5 merge dC dD j1 -13\n"
                 "step t6 split ghost a -5 b -5\nstep delta5 split j1 dC2 -10 dD2 -4\n"
                 "step t7 split\n",
    "not-utf8.txt": b"modulus 0\n\xff\n",
    "minus-h.lat": "name P2\nrank 1\ngram 1\ncanonical 3\njets\n-1 1\n",
    "bare-modulus.asm": "modulus\nambient 6 2\ncore e6a7\nboundary dC -9\nboundary dD -3\n",
    "bare-name.lat": "rank 1\ngram 1\ncanonical -3\nname\n",
    "short-context.txt": "context 2 0\ncurve a : 1 0 0 0 : 0\nword a^1\n",
    "context-x.txt": "context 1 0 x\ncurve a : 1 0 : 0\n",
    "class-q.txt": "context 1 0 4\ncurve a : 1 q : 0  # class\n",
    "value-2.5.txt": "context 1 0 4\ncurve a : 1 0 : 2.5\n",
    "exponent-x.txt": "context 1 0 4\ncurve a : 1 0 : 0\nword a^x\n",
    "bare-caret.txt": "context 1 0 4\ncurve c : 0 1 : 1\nword c^\n",
    "ambient-one.txt": "curves a b\nambient 1 one\nintersections\nx a b\n",
    "sign-plus.txt": "curves a b\nintersections\nx a b +\n",
    "jet-one.lat": "rank 1\ngram 1\ncanonical -3,\njets\n1 one\n",
    "zero-class.lat": "rank 1\ngram 1\ncanonical -3\njets\n1 1\n0 1\n",
    "negative-degree.lat": "rank 2\ngram 1 0 0 -1\ncanonical -3 1\njets\n1 0 1\n0 1 0\n",
}


def _both_formats(argv):
    return [argv, argv + ["--format", "machine"]]


def _report(surface, c, d):
    return ["report", "--surface", surface, "--C", ",".join(map(str, c)),
            "--D", ",".join(map(str, d))]


def report_box():
    """C = aH, D = bH with a, b >= 1 and a + b <= 15, on every catalog surface
    whose ledger holds a very-ample class H."""
    argvs = []
    for name in catalog_names():
        for h in catalog_lattice(name)[1].classes():
            for s in range(2, 16):
                for a in range(1, s):
                    argvs += _both_formats(_report(
                        name, (a * x for x in h.coords), ((s - a) * x for x in h.coords)))
    return argvs


def lattice_ops():
    """Each `lattice` op but `hypothesis` (P2's are above) on every catalog
    lattice, with the first and last unit vectors e1 and en: e1 . en, the
    adjoint of e1, the genus of 2en and the smoothed genus of en and en, which
    is negative wherever en is a fiber or an exceptional curve."""
    argvs = []
    for name in catalog_names():
        rank = catalog_lattice(name)[0].rank
        e1, en, en2 = ("1" + ",0" * (rank - 1), "0," * (rank - 1) + "1",
                       "0," * (rank - 1) + "2")
        for op in (["info"], ["intersect", e1, en], ["adjoint", e1], ["genus", en2],
                   ["smoothed-genus", en, en], ["lefschetz"]):
            argvs += _both_formats(["lattice", name, *op])
    return argvs


def domain_errors():
    """The domain errors that `tests/test_cli.py` names, each on the input the
    test gives it, but those that need a patched limit or print Python's own
    int-to-str message; every one exits 1."""
    argvs = [["lattice", "not-utf8.txt", "info"], ["config", "analyze", "not-utf8.txt"],
             ["winding", "act", "not-utf8.txt"], ["assemblage", "run", "not-utf8.txt"],
             _report("not-utf8.txt", (6,), (1,)),
             # the two-section refusals above, with the sections swapped
             _report("P1xP1", (2, 0), (6, 8)), _report("P1xP1", (6, 1), (1, 6)),
             _report(LATTICE_FILE, (1, 4), (1, 3)),
             ["assemblage", "run", "late-header.asm"], ["assemblage", "run", "ghost.asm"],
             ["assemblage", "run", "bare-modulus.asm"],
             ["lattice", "P2", "lefschetz", "-1"], ["lattice", "P2", "lefschetz", "3"],
             ["lattice", "minus-h.lat", "lefschetz", "1"], ["lattice", "NOPE", "info"],
             ["lattice", "bare-name.lat", "info"], ["lattice", "jet-one.lat", "info"],
             ["lattice", "zero-class.lat", "hypothesis", "7"],
             ["lattice", "negative-degree.lat", "hypothesis", "7,0"],
             ["config", "analyze", "--chain", "0"], ["config", "analyze", "ambient-one.txt"],
             ["config", "analyze", "sign-plus.txt"], ["catalog", "list", "P2"],
             ["milnor", "y^2"], ["milnor", "x^4-2*x^2*y^3+y^6"], ["milnor", "x^300+y^300"]]
    argvs += [["winding", "act", name] for name in (
        "short-context.txt", "context-x.txt", "class-q.txt", "value-2.5.txt",
        "exponent-x.txt", "bare-caret.txt")]
    argvs += [["psi", f"m(1,2) {chunk}", "--d", "6"] for chunk in (
        "m(1)", "m(1,x)", "m(1,2)^x", "b(q)", "m(1,2,3)", "m(1,2)^")]
    return [both for argv in argvs for both in _both_formats(argv)]


def argvs():
    """Every argv of the corpus, in file order, each once."""
    out = report_box()
    out += _both_formats(["catalog", "list"])
    for name in catalog_names():
        out += _both_formats(["catalog", "show", name])
    out += _both_formats(["config", "analyze", "--core"])
    for n in range(1, 13):
        out += _both_formats(["config", "analyze", "--chain", str(n)])
    out += _both_formats(["config", "analyze", "--dynkin", "E6"])
    for argv in (["milnor", "x^3+y^4"], ["psi", "m(1,2)", "--d", "6"],
                 ["mainlemma", "--k", "2,0,0,0,0,0"], ["winding", "census", "--g", "2"],
                 ["lattice", "P2", "adjoint", "5"], ["lattice", "P2", "hypothesis", "7"],
                 ["lattice", "P2", "lefschetz", "1"], ["lattice", "P2", "hypothesis", "40"],
                 ["lattice", "P1xP1", "genus", "4,0"]):
        out += _both_formats(argv)
    for germ in ("x^14+y^15", "x^40+y^41", "x^12+y^70+x^7*y^9", "x^100000+y^2", "x^²"):
        out += _both_formats(["milnor", germ])
    # Outside the two-section construction's domain: a section of negative
    # genus, no section of genus >= 3, and both on a lattice file.
    for argv in (_report("P1xP1", (6, 8), (2, 0)), _report("P1xP1", (1, 6), (6, 1)),
                 _report(LATTICE_FILE, (1, 3), (1, 4))):
        out += _both_formats(argv)
    out += lattice_ops()
    out += domain_errors()
    return list({shlex.join(argv): argv for argv in out}.values())


def write_inputs(directory) -> None:
    for name, text in {LATTICE_FILE: LATTICE_TEXT, **ERROR_INPUTS}.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (Path(directory) / name).write_bytes(data)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def line(argv) -> str:
    """argv, exit code and the stdout and stderr digests of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return "\t".join((shlex.join(argv), str(code), _digest(out.getvalue()),
                      _digest(err.getvalue())))


def corpus_lines() -> list:
    """Every corpus line, run in the current directory (see `write_inputs`)."""
    return [line(argv) for argv in argvs()]


def read() -> list:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        os.chdir(tmp)
        try:
            lines = corpus_lines()
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {GOLDEN}")

"""Golden CLI corpus: each argv with its exit code and short hashes of its output.

Each line of `tests/golden/cli.txt` holds one argv (shell-quoted), its exit
code, and the first 16 hex digits of the sha256 of its stdout and of its
stderr, tab-separated.  `tests/test_golden.py` runs every argv in-process and
compares.  A change to the CLI's output shows as a diff of that file; to
regenerate it, run (with rspin importable, installed or on PYTHONPATH):

    python tests/golden.py --write

The corpus holds the report box (below), the catalog, the core and chain
configurations, the README examples that need no file, the Milnor germs CI
checks, three two-section refusals and the `lattice` ops on every catalog
lattice, each in both formats.  The one input file is written to a fixed
relative name, so no output holds a path.  Usage errors and help stay out:
argparse words them differently across Python versions.
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
    return list({shlex.join(argv): argv for argv in out}.values())


def write_inputs(directory) -> None:
    (Path(directory) / LATTICE_FILE).write_text(LATTICE_TEXT, encoding="utf-8")


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

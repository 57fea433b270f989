"""Seeded input generators for the three workloads.

A workload is an endless sequence of rounds; round i is generated from
(workload, seed, i) alone, so the same seed always yields the same inputs.
Every round has the same composition (the same op kinds, the same size
strata); the seed picks surfaces, shapes, labels and values within each
stratum.  That keeps the op mix, and so the medians, steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle as orc

FORMAT = ("--format", "machine")


@dataclass
class Op:
    group: str
    argv: list
    check: orc.Check
    size: dict = field(default_factory=dict)
    known_defect: str = ""


class Files:
    """Writes generated input files under one directory of the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.root / f"in{self.count}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)


LEDGER_SURFACES = [n for n in orc.CATALOG if orc.has_ledger(n)]


# -- report-grid ----------------------------------------------------------------


def _grid_pairs(name):
    gram, canonical, h = orc.CATALOG[name]
    return [(a, s - a) for s in range(7, 11) for a in range(1, s)
            if orc.report_certifies(gram, canonical, h, a, s - a)]


GRID_PAIRS = {n: _grid_pairs(n) for n in LEDGER_SURFACES}


def _report_op(surface, name, h, a, b, check, size):
    return Op("report", ["report", "--surface", surface, "--C", orc.join(orc.scale(a, h)),
                         "--D", orc.join(orc.scale(b, h)), *FORMAT], check, size)


def report_grid_round(rng: random.Random, files: Files, index: int) -> list[Op]:
    """One report per catalog surface with a ledger; C = aH, D = bH, a + b in 7..10."""
    ops = []
    for name in LEDGER_SURFACES:
        gram, canonical, h = orc.CATALOG[name]
        a, b = rng.choice(GRID_PAIRS[name])
        ops.append(_report_op(name, name, h, a, b,
                              orc.report_check(name, gram, canonical, h, a, b),
                              {"degree": a + b}))
    rng.shuffle(ops)
    return ops


# -- report-deep ----------------------------------------------------------------

# 1e4 .. 1e5 steps in five strata: with one op per stratum in every round,
# p50 is the middle stratum's median and p90 the top stratum's median, never
# a boundary between strata.
DEEP_STEP_STRATA = [10 ** (4 + i / 4) for i in range(5)]


def report_deep_round(rng: random.Random, files: Files, index: int) -> list[Op]:
    """Reports whose assemblage folds 1e4..1e5 steps, one per size stratum.

    The lattice file declares the true jet levels H:1 and (m-1)H:m-1 (kH is
    k-jet ample for very ample H), so every total degree m certifies.
    """
    ops = []
    for target in DEEP_STEP_STRATA:
        name = rng.choice(["P2", "P1xP1", "F1"])
        gram, canonical, h = orc.CATALOG[name]
        b = rng.choice([1, 2])
        target *= rng.uniform(0.97, 1.03)
        m = 8
        while True:
            g_c = orc.genus(gram, canonical, orc.scale(m - b, h))
            g_d = orc.genus(gram, canonical, orc.scale(b, h))
            d = orc.pair(gram, orc.scale(m - b, h), orc.scale(b, h))
            steps = orc.report_steps(g_c, g_d, d)
            if steps >= target:
                break
            m += 1
        path = files.write(orc.lattice_text(
            name, gram, canonical, [(h, 1), (orc.scale(m - 1, h), m - 1)]), ".lat")
        ops.append(_report_op(path, name, h, m - b, b,
                              orc.report_check(name, gram, canonical, h, m - b, b),
                              {"degree": m, "steps": steps}))
    rng.shuffle(ops)
    return ops


# -- toolkit --------------------------------------------------------------------


def _vector(rng, rank):
    # A nonnegative leading entry keeps argparse from reading it as an option.
    return (rng.randint(0, 6),) + tuple(rng.randint(-4, 6) for _ in range(rank - 1))


def _lattice_ops(rng, files):
    ops = []
    name = rng.choice(list(orc.CATALOG))
    gram, canonical, h = orc.CATALOG[name]
    jets = [(h, 1)] if orc.has_ledger(name) else []
    ops.append(Op("lattice", ["lattice", name, "info", *FORMAT],
                  orc.info_check(name, gram, canonical, jets)))
    name = rng.choice(LEDGER_SURFACES)
    gram, canonical, h = orc.CATALOG[name]
    jets = [(h, 1)] + [(orc.scale(k, h), k) for k in rng.sample(range(2, 7), 2)]
    path = files.write(orc.lattice_text(name, gram, canonical, jets), ".lat")
    ops.append(Op("lattice", ["lattice", path, "info", *FORMAT],
                  orc.info_check(name, gram, canonical, jets)))
    for _ in range(4):
        name = rng.choice(list(orc.CATALOG))
        gram, canonical, h = orc.CATALOG[name]
        v = (tuple(-x for x in canonical) if rng.random() < 0.2
             else _vector(rng, len(gram)))
        ops.append(Op("lattice", ["lattice", name, "adjoint", orc.join(v), *FORMAT],
                      orc.adjoint_check(canonical, v)))
        name = rng.choice(list(orc.CATALOG))
        gram, canonical, h = orc.CATALOG[name]
        v = _vector(rng, len(gram))
        ops.append(Op("lattice", ["lattice", name, "genus", orc.join(v), *FORMAT],
                      orc.expect({"genus": orc.genus(gram, canonical, v)})))
        name = rng.choice(list(orc.CATALOG))
        gram, canonical, h = orc.CATALOG[name]
        v = (orc.scale(rng.randint(1, 24), h) if rng.random() < 0.7
             else _vector(rng, len(gram)))
        ops.append(Op("lattice", ["lattice", name, "hypothesis", orc.join(v), *FORMAT],
                      orc.hypothesis_check(h, orc.has_ledger(name), v)))
        name = rng.choice(list(orc.CATALOG))
        gram, canonical, h = orc.CATALOG[name]
        ops.append(Op("lattice", ["lattice", name, "lefschetz", *FORMAT],
                      orc.lefschetz_check(gram, canonical)))
    return ops


def _tree(rng, n, shape):
    if shape == "random":  # random recursive tree
        return [(rng.randrange(i), i) for i in range(1, n)]
    if shape == "D":
        return [(i - 1, i) for i in range(1, n - 1)] + [(1, n - 1)]
    if shape == "broom":
        handle = rng.randint(2, n - 3)
        return ([(i - 1, i) for i in range(1, handle + 1)]
                + [(handle, i) for i in range(handle + 1, n)])
    return [(i - 1, i) for i in range(1, n)]  # path


def _config_op(rng, files, n, edges):
    labels = [f"k{i}" for i in rng.sample(range(100), n)]
    edges = rng.sample(edges, len(edges))
    lines = ["curves " + " ".join(rng.sample(labels, n))]
    ambient = None
    if rng.random() < 0.5:
        _, b, g = orc.tree_invariants(n, edges)
        ambient = (g, b) if rng.random() < 0.5 else (g + 1, b)
        lines.append(f"ambient {ambient[0]} {ambient[1]}")
    lines.append("intersections")
    lines += [f"x{i} {labels[u]} {labels[v]} {rng.choice((1, -1))}"
              for i, (u, v) in enumerate(edges)]
    path = files.write("\n".join(lines) + "\n", ".cfg")
    return Op("config", ["config", "analyze", path, *FORMAT],
              orc.config_check(n, edges, ambient), {"curves": n})


def _config_ops(rng, files, index):
    """Four random trees that contain E6, then E6-free trees of 8, 12, 16 and 20 curves.

    The E6-free sizes and shapes are fixed by the round index, because the
    exhaustive search costs C(n, 6) there; drawing them would make a round's
    cost depend on the seed.
    """
    ops = []
    for _ in range(4):
        n = rng.randint(8, 20)
        edges = _tree(rng, n, "random")
        while not orc.has_e6(n, edges):
            edges = _tree(rng, n, "random")
        ops.append(_config_op(rng, files, n, edges))
    for k, n in enumerate((8, 12, 16, 20)):
        shape = ("path", "D", "broom")[(index + k) % 3]
        ops.append(_config_op(rng, files, n, _tree(rng, n, shape)))
    return ops


ASSEMBLAGE_STEP_STRATA = (100, 300, 1000, 3000, 10000)


def _assemblage_op(rng, files, target):
    """A random coherent split/merge sequence over an e6a7, chain or dynkin core."""
    kind = rng.choice(["e6a7", "chain", "dynkin"])
    if kind == "e6a7":
        spec, n, type_e = "e6a7", 13, True
        core_genus, b0 = 6, 2
    else:
        n = rng.randint(5, 11)
        spec = f"chain {n}" if kind == "chain" else f"dynkin A{n}"
        type_e = False
        if kind == "dynkin" and rng.random() < 0.5:
            spec, n, type_e = "dynkin E6", 6, True
        core_genus, b0 = n // 2, n + 1 - 2 * (n // 2)  # every core here is a tree
        if spec == "dynkin E6":
            core_genus, b0 = 3, 1
    modulus = 0 if rng.random() < 0.5 else rng.randint(2, 12)
    chi = 2 - 2 * core_genus - b0
    values = [rng.randint(-10, 10) for _ in range(b0 - 1)]
    state = [(f"bd{i + 1}", v) for i, v in enumerate(values + [chi - sum(values)])]
    lines = [f"modulus {modulus}", f"core {spec}"]
    lines += [f"boundary {nm} {v}" for nm, v in state]
    genus, serial = core_genus, 0
    steps = int(target * rng.uniform(0.9, 1.1))
    for i in range(steps):
        serial += 2
        if len(state) == 1 or (len(state) < 6 and rng.random() < 0.5):
            k = rng.randrange(len(state))
            nm, v = state.pop(k)
            v1 = rng.randint(-10, 10)
            new = [(f"n{serial}", v1), (f"n{serial + 1}", v - 1 - v1)]
            lines.append(f"step h{i} split {nm} {new[0][0]} {new[0][1]} "
                         f"{new[1][0]} {new[1][1]}")
            state += new
        else:
            (n1, v1), (n2, v2) = rng.sample(state, 2)
            state = [s for s in state if s[0] not in (n1, n2)] + [(f"n{serial}", v1 + v2 - 1)]
            lines.append(f"step h{i} merge {n1} {n2} n{serial} {v1 + v2 - 1}")
            genus += 1
    ambient = (genus, len(state)) if rng.random() < 0.75 else (genus + 1, len(state))
    lines.insert(1, f"ambient {ambient[0]} {ambient[1]}")
    path = files.write("\n".join(lines) + "\n", ".asm")
    return Op("assemblage", ["assemblage", "run", path, *FORMAT],
              orc.assemblage_check(core_genus, type_e, genus, state, ambient, modulus),
              {"steps": steps, "curves": n})


def _brieskorn(a, b, rng):
    ca, cb = rng.choice(["", "2*", "3*"]), rng.choice(["", "2*", "3*"])
    terms = [f"{ca}x^{a}", f"{cb}y^{b}"]
    rng.shuffle(terms)
    return "+".join(terms)


def _milnor_ops(rng):
    """Brieskorn-Pham x^a + y^b (a + b <= 25), ADE normal forms and
    semi-quasi-homogeneous perturbations of x^a + y^b (same mu)."""
    ops = []
    for _ in range(2):
        a = rng.randint(2, 12)
        b = rng.randint(a, 25 - a)
        ops.append(Op("milnor", ["milnor", _brieskorn(a, b, rng), *FORMAT],
                      orc.milnor_check((a - 1) * (b - 1), max(a, b), box=(a, b)),
                      {"mu": (a - 1) * (b - 1)}))
    for _ in range(2):
        kind = rng.choice(["A", "D", "E"])
        if kind == "A":
            k = rng.randint(1, 12)
            poly, mu, deg = f"x^{k + 1}+y^2", k, max(k + 1, 2)
        elif kind == "D":
            k = rng.randint(4, 12)
            poly, mu, deg = f"x^2*y+y^{k - 1}", k, max(3, k - 1)
        else:
            poly, mu, deg = orc.ADE_MU[rng.choice(list(orc.ADE_MU))]
        ops.append(Op("milnor", ["milnor", poly, *FORMAT], orc.milnor_check(mu, deg),
                      {"mu": mu}))
    for _ in range(2):
        a = rng.randint(3, 9)
        b = rng.randint(a, 18 - a)
        i = rng.randint(1, a - 1)
        j = (a * b - i * b) // a + 1 + rng.randint(0, 1)  # i/a + j/b > 1
        poly = f"{_brieskorn(a, b, rng)}+{rng.randint(1, 5)}*x^{i}*y^{j}"
        ops.append(Op("milnor", ["milnor", poly, *FORMAT],
                      orc.milnor_check((a - 1) * (b - 1), max(a, b, i + j)),
                      {"mu": (a - 1) * (b - 1)}))
    return ops


def _winding_act_op(rng, files):
    g, nb = rng.randint(1, 4), rng.randint(0, 3)
    r = 0 if rng.random() < 0.3 else rng.randint(2, 12)
    curves = [(f"c{i}", tuple(rng.randint(-2, 2) for _ in range(2 * g + nb)),
               rng.randint(-6, 6)) for i in range(rng.randint(2, 6))]
    word = [(rng.choice(curves)[0], rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 30))]
    lines = [f"context {g} {nb} {r}"]
    lines += [f"curve {n} : {' '.join(map(str, cls))} : {w}" for n, cls, w in curves]
    lines.append("word " + " ".join(f"{c}^{e}" for c, e in word))
    path = files.write("\n".join(lines) + "\n", ".wnd")
    return Op("winding", ["winding", "act", path, *FORMAT],
              orc.act_check(g, r, curves, word), {"letters": len(word)})


def _psi_op(rng):
    d = rng.randint(6, 40)
    letters = []
    for _ in range(rng.randint(1, 20)):
        e = rng.choice([-3, -2, -1, 1, 2, 3])
        kind = rng.choices("mbs", weights=(7, 1.5, 1.5))[0]
        if kind == "m":
            letters.append(("m", tuple(sorted(rng.sample(range(1, d + 1), 2))), e))
        elif kind == "b":
            letters.append(("b", (rng.randint(1, d),), e))
        else:
            letters.append(("s", (f"t{rng.randint(0, 9)}",), e))
    if rng.random() < 0.25:  # a kernel element: the word times its inverse
        letters += [(k, idx, -e) for k, idx, e in reversed(letters)]
    text = " ".join(f"{k}({','.join(map(str, idx))})" + (f"^{e}" if e != 1 else "")
                    for k, idx, e in letters)
    return Op("braid", ["psi", text, "--d", str(d), *FORMAT], orc.psi_check(letters, d),
              {"d": d})


def _mainlemma_op(rng):
    d = rng.randint(6, 40)
    k = [rng.randint(-6, 6) for _ in range(d)]
    k[-1] += sum(k) % 2
    i, j, t = rng.sample(range(1, d + 1), 3)
    return Op("braid", ["mainlemma", f"--k={orc.join(k)}", "--arc", f"{i},{j}",
                        "--third", str(t), *FORMAT], orc.mainlemma_check(k, (i, j)), {"d": d})


# Inputs the program mishandles at the commit that introduced the benchmark.
# They stay in the mix, checked against the true answer, so a fix shows.
KNOWN_DEFECTS = ("assemblage-modulus", "lattice-name", "winding-context",
                 "hypothesis-bound", "milnor-ceiling")


def _known_defect_op(rng, files, kind):
    if kind == "assemblage-modulus":
        path = files.write("modulus\nambient 6 2\ncore e6a7\nboundary dC -9\n"
                           "boundary dD -3\n", ".asm")
        op = Op("assemblage", ["assemblage", "run", path, *FORMAT], orc.expect_domain_error())
    elif kind == "lattice-name":
        path = files.write("rank 1\ngram 1\ncanonical -3\nname\n", ".lat")
        op = Op("lattice", ["lattice", path, "info", *FORMAT], orc.expect_domain_error())
    elif kind == "winding-context":
        path = files.write("context 2 0\ncurve a : 1 0 0 0 : 0\nword a^1\n", ".wnd")
        op = Op("winding", ["winding", "act", path, *FORMAT], orc.expect_domain_error())
    elif kind == "hypothesis-bound":
        k = rng.randint(25, 40)
        op = Op("lattice", ["lattice", "P2", "hypothesis", str(k), *FORMAT],
                orc.hypothesis_check((1,), True, (k,)))
    else:
        op = Op("milnor", ["milnor", "x^14+y^15", *FORMAT],
                orc.milnor_check(182, 15, box=(14, 15)), {"mu": 182})
    op.known_defect = kind
    return op


def toolkit_round(rng: random.Random, files: Files, index: int) -> list[Op]:
    """Every subcommand but report, plus one known-defect input per round.

    The counts put p90 inside the dense 15-25 ms band (census at genus 5
    and 6, the 1000-step assemblage, large Brieskorn-Pham germs) rather than
    on the edge of the sparse tail above it, where it would jump with the seed.
    """
    ops = _lattice_ops(rng, files) + _config_ops(rng, files, index)
    ops += [_assemblage_op(rng, files, t) for t in ASSEMBLAGE_STEP_STRATA]
    ops += _milnor_ops(rng) + _milnor_ops(rng)
    ops += [Op("winding", ["winding", "census", "--g", str(g), *FORMAT],
               orc.census_check(g), {"g": g}) for g in (1, 2, 3, 4, 5, 5, 6, 6)]
    ops += [_winding_act_op(rng, files) for _ in range(8)]
    ops += [_psi_op(rng) for _ in range(8)] + [_mainlemma_op(rng) for _ in range(8)]
    ops.append(_known_defect_op(rng, files, KNOWN_DEFECTS[index % len(KNOWN_DEFECTS)]))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "report-grid": report_grid_round,
    "report-deep": report_deep_round,
    "toolkit": toolkit_round,
}


def make_round(workload: str, seed: int, index: int, files: Files) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return WORKLOADS[workload](rng, files, index)

"""Independent oracles for every benchmark operation.

Nothing here imports rspin.  Each expectation comes from a closed form of the
mathematics the CLI computes (adjunction, the two-section step count, tree
matchings, Brieskorn-Pham bases, Johnson's Arf count, twist linearity, the
psi homomorphism), or from a direct simulation of a documented file format.
A check returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Optional, Sequence

Check = Callable[[Optional[int], str, str], Optional[str]]


def parse_machine(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.strip().partition("=")
        if key:
            out[key] = value
    return out


def join(values) -> str:
    return ",".join(str(v) for v in values)


def gcd_all(values) -> int:
    out = 0
    for v in values:
        out = math.gcd(out, abs(v))
    return out


# -- Picard lattices ------------------------------------------------------------
#
# name -> (gram, canonical, very ample class H); every catalog ledger is
# {H: 1} except K3-2, whose ledger is empty.


def _hirzebruch(n):
    return ((-n, 1), (1, 0)), (-2, -(n + 2)), (1, n + 1)


def _del_pezzo(k):
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k + 1))
                 for i in range(k + 1))
    return gram, (-3,) + (1,) * k, (3,) + (-1,) * k


CATALOG = {
    "P2": (((1,),), (-3,), (1,)),
    "P1xP1": (((0, 1), (1, 0)), (-2, -2), (1, 1)),
    **{f"F{n}": _hirzebruch(n) for n in (1, 2, 3)},
    **{f"dP{k}": _del_pezzo(k) for k in range(1, 7)},
    **{f"K3-{m}": (((m,),), (0,), (1,)) for m in (2, 4, 6, 8)},
}


def has_ledger(name: str) -> bool:
    return name != "K3-2"


def pair(gram, x, y) -> int:
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def genus(gram, canonical, v) -> int:
    return 1 + (pair(gram, v, v) + pair(gram, canonical, v)) // 2


def scale(k, v) -> tuple:
    return tuple(k * x for x in v)


def multiple_of(v, h) -> Optional[int]:
    """k with v = k*h, or None."""
    i = next(i for i, x in enumerate(h) if x)
    k, rem = divmod(v[i], h[i])
    return k if rem == 0 and scale(k, h) == tuple(v) else None


def lattice_text(name, gram, canonical, jets) -> str:
    lines = [f"name {name}", f"rank {len(gram)}",
             "gram " + " ".join(str(x) for row in gram for x in row),
             "canonical " + " ".join(str(x) for x in canonical), "jets"]
    lines += [" ".join(str(x) for x in cls) + f" {lvl}" for cls, lvl in jets]
    return "\n".join(lines) + "\n"


def _coords(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _check_split(q: dict, total, h) -> Optional[str]:
    """L1 + L2 = L, with L1 = k1 H at jet in [6, k1] and L2 = k2 H at jet in [1, k2].

    kH is k-jet ample for very ample H, so a certified level above k would be
    unsound; the ledgers used here certify nothing that is not a multiple of H.
    """
    l1, l2 = _coords(q["L1"]), _coords(q["L2"])
    if tuple(a + b for a, b in zip(l1, l2)) != tuple(total):
        return f"L1 + L2 = {l1} + {l2} != L = {tuple(total)}"
    k1, k2 = multiple_of(l1, h), multiple_of(l2, h)
    j1, j2 = int(q["jet_L1"]), int(q["jet_L2"])
    if k1 is None or k2 is None or not (6 <= j1 <= k1 and 1 <= j2 <= k2):
        return f"unsound split jets {j1}, {j2} for {l1}, {l2}"
    return None


def expect(expected: dict, extra: Callable[[dict], Optional[str]] = None,
           extra_keys: Sequence[str] = ()) -> Check:
    """Exit 0, exactly the expected keys (plus extra_keys), and equal values."""
    want = {k: str(v) for k, v in expected.items()}

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        q = parse_machine(out)
        if set(q) != set(want) | set(extra_keys):
            return f"keys {sorted(set(q) ^ (set(want) | set(extra_keys)))} differ"
        for k, v in want.items():
            if q[k] != v:
                return f"{k}={q[k]!r}, expected {v!r}"
        return extra(q) if extra else None
    return check


def expect_domain_error() -> Check:
    def check(rc, out, err):
        if rc != 1 or not err.startswith("error:") or "Traceback" in err:
            return f"expected exit 1 with 'error:' on stderr; got exit {rc}"
        return None
    return check


def report_check(name, gram, canonical, h, a, b) -> Check:
    """The full two-section report for C = aH, D = bH; the input must certify."""
    c, d_cls = scale(a, h), scale(b, h)
    total = scale(a + b, h)
    adjoint = tuple(x + y for x, y in zip(canonical, total))
    r = gcd_all(adjoint)
    d = pair(gram, c, d_cls)
    g_c, g_d = genus(gram, canonical, c), genus(gram, canonical, d_cls)
    chi_c, chi_d = 2 - 2 * g_c, 2 - 2 * g_d
    if not report_certifies(gram, canonical, h, a, b):
        raise ValueError(f"{name}: C = {a}H, D = {b}H does not certify")
    return expect({
        "surface": name, "C": join(c), "D": join(d_cls), "d": d,
        "g_C": g_c, "g_D": g_d, "g_E": g_c + g_d + d - 1, "adjoint": join(adjoint),
        "r": r, "hypothesis": "certified", "core_h": 6,
        "steps": report_steps(g_c, g_d, d),
        "final_values": join((chi_c - d - 1, chi_d - d - 1)), "filling": 1,
        "r_prime": math.gcd(abs(chi_c - d), abs(chi_d - d)),
        "r_divides_r_prime": 1, "max_root_primitive": 1, "certificate": "generates",
        "conclusion": ("full mapping class group" if r == 1
                       else f"{r}-spin mapping class group"),
        "verdict": f"Gamma_L = Mod(E)[phi_M], r = {r}",
    }, extra=lambda q: _check_split(q, total, h),
        extra_keys=("L1", "L2", "jet_L1", "jet_L2"))


def report_steps(g_c: int, g_d: int, d: int) -> int:
    return 2 * (g_c - 3) + 2 * (d - 4) + 2 * g_d


def report_certifies(gram, canonical, h, a, b) -> bool:
    c, d_cls = scale(a, h), scale(b, h)
    d = pair(gram, c, d_cls)
    g_c, g_d = genus(gram, canonical, c), genus(gram, canonical, d_cls)
    return d >= 6 and g_c >= 3 and g_c + g_d + d - 1 >= 5


def info_check(name, gram, canonical, jets) -> Check:
    return expect({"name": name, "rank": len(gram), "canonical": join(canonical),
                   "jets": ";".join(f"{join(c)}:{lvl}" for c, lvl in sorted(jets))})


def adjoint_check(canonical, v) -> Check:
    adj = tuple(x + y for x, y in zip(canonical, v))
    degenerate = not any(adj)
    return expect({"adjoint": join(adj), "divisibility": 0 if degenerate else gcd_all(adj),
                   "degenerate": int(degenerate)})


def hypothesis_check(h, ledger: bool, v) -> Check:
    """The ledger {H: 1} certifies exactly the classes kH with k >= 7."""
    k = multiple_of(v, h) if ledger else None
    if k is not None and k >= 7:
        return expect({"hypothesis": "certified"}, extra=lambda q: _check_split(q, v, h),
                      extra_keys=("L1", "L2", "jet_L1", "jet_L2"))
    return expect({"hypothesis": "not-certified"})


def lefschetz_check(gram, canonical) -> Check:
    if len(gram) >= 2:
        return expect({"exists": 1, "rank": len(gram), "classification": "rank >= 2",
                       "exceptional": 0})
    n = canonical[0]  # K = n * generator, generator (1)
    if n == 0:
        return expect({"exists": 1, "rank": 1, "classification": "K3", "exceptional": 1,
                       "witness_multiple": 1})
    return expect({"exists": 1, "rank": 1, "classification": "del Pezzo",
                   "exceptional": 1, "witness_multiple": 1 - n})


# -- trees --------------------------------------------------------------------


def tree_invariants(n: int, edges) -> tuple[int, int, int]:
    """(chi, b, g) = (-(n-1), n+1-2nu, nu), nu the maximum matching size."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent, seen = [], {0: -1}, {0}
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                stack.append(w)
    matched, nu = set(), 0
    for u in reversed(order):  # greedy leaf matching is optimal on trees
        p = parent[u]
        if p >= 0 and u not in matched and p not in matched:
            matched |= {u, p}
            nu += 1
    return -(n - 1), n + 1 - 2 * nu, nu


def has_e6(n: int, edges) -> bool:
    """Some vertex has three branches of depth >= 1, >= 2 and >= 2."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def depth(prev, cur):
        best, stack = 1, [(prev, cur, 1)]
        while stack:
            p, c, dd = stack.pop()
            best = max(best, dd)
            stack.extend((c, w, dd + 1) for w in adj[c] if w != p)
        return best

    for v in range(n):
        if len(adj[v]) >= 3:
            depths = sorted((depth(v, w) for w in adj[v]), reverse=True)
            if depths[1] >= 2:
                return True
    return False


def config_check(n: int, edges, ambient=None) -> Check:
    chi, b, g = tree_invariants(n, edges)
    want = {"curves": n, "intersections": n - 1, "simple": 1, "arboreal": 1,
            "e_arboreal": int(has_e6(n, edges)), "chi": chi, "boundary": b, "genus": g}
    if ambient is not None:
        want["spanning"] = int(tuple(ambient) == (g, b))
    return expect(want)


# -- assemblage -----------------------------------------------------------------


def assemblage_check(core_genus, type_e, genus_final, boundaries, ambient, modulus) -> Check:
    """boundaries: final (name, integer value); the CLI reduces values mod r."""
    vals = {n: v % modulus if modulus else v for n, v in boundaries}
    b = len(vals)
    filling = (genus_final, b) == tuple(ambient)
    flags = [type_e, core_genus >= 5, ambient[0] >= 5, b >= 1, filling]
    want = {"core_h": core_genus, "final_genus": genus_final, "final_boundary": b,
            "final_chi": 2 - 2 * genus_final - b, "type_e": int(type_e),
            "core_genus_ok": int(core_genus >= 5), "ambient_genus_ok": int(ambient[0] >= 5),
            "boundary_ok": int(b >= 1), "filling": int(filling), "windings_zero": 1,
            "verdict": "generates" if all(flags) else "inapplicable",
            "capping_order": gcd_all(v + 1 for v in vals.values())}

    def values_match(q):
        got = dict(item.split(":") for item in q["boundary_values"].split(","))
        if {n: int(v) for n, v in got.items()} != vals:
            return "boundary values differ"
        return None
    return expect(want, extra=values_match, extra_keys=("boundary_values",))


# -- Milnor numbers -------------------------------------------------------------


def monomial(i: int, j: int) -> str:
    mono = ("x" + (f"^{i}" if i > 1 else "") if i else "") + \
           ("y" + (f"^{j}" if j > 1 else "") if j else "")
    return mono or "1"


def _degree(mono: str) -> int:
    m = re.fullmatch(r"1|(x(?:\^(\d+))?)?(y(?:\^(\d+))?)?", mono)
    if m is None:
        raise ValueError(f"not a monomial: {mono!r}")
    return (int(m[2] or 1) if m[1] else 0) + (int(m[4] or 1) if m[3] else 0)


def milnor_check(mu: int, degree: int, box: Optional[tuple[int, int]] = None) -> Check:
    """mu distinct basis monomials, jet requirement max(deg f + 2, top basis
    degree), truncation at least that top degree; for x^a + y^b (box=(a, b))
    the basis is the box {x^i y^j : i < a - 1, j < b - 1}."""

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        q = parse_machine(out)
        basis = q.get("basis", "").split(",")
        if int(q.get("mu", -1)) != mu or len(set(basis)) != mu:
            return f"mu={q.get('mu')}, expected {mu}"
        try:
            top = max(_degree(m) for m in basis)
        except ValueError as exc:
            return str(exc)
        if int(q["jet_requirement"]) != max(degree + 2, top) or int(q["truncation"]) < top:
            return "jet requirement or truncation inconsistent with the basis"
        if box and set(basis) != {monomial(i, j) for i in range(box[0] - 1)
                                  for j in range(box[1] - 1)}:
            return "basis is not the box basis"
        return None
    return check


# name -> (normal form, mu, degree)
ADE_MU = {"E6": ("x^3+y^4", 6, 4), "E7": ("x^3+x*y^3", 7, 4), "E8": ("x^3+y^5", 8, 5)}


# -- winding ------------------------------------------------------------------


def census_check(g: int) -> Check:
    """Johnson: 2^(g-1) (2^g + 1) forms with Arf 0 among 2^(2g)."""
    arf0 = 2 ** (g - 1) * (2 ** g + 1)
    return expect({"genus": g, "arf0": arf0, "arf1": 4 ** g - arf0})


def act_check(g: int, r: int, curves, word) -> Check:
    """Twist linearity phi(T_c^e a) = phi(a) + e<a,c>phi(c) with the transvection."""

    def omega(x, y):
        return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(g))

    red = (lambda v: v % r) if r else (lambda v: v)
    declared = dict((n, (cls, w)) for n, cls, w in curves)
    want = {"modulus": r, "word": " ".join(f"{c}^{e}" for c, e in word) or "(empty word)"}
    for name, cls, w in curves:
        cls, w = list(cls), red(w)
        for c, e in word:
            ccls, cw = declared[c]
            p = omega(cls, ccls)
            w = red(w + e * p * red(cw))
            cls = [x + e * p * y for x, y in zip(cls, ccls)]
        want[f"curve_{name}"] = f"{join(cls)}:{w}"
    return expect(want)


# -- psi and the main lemma -------------------------------------------------------


def psi_vector(letters, d: int) -> list[int]:
    """letters: (kind, indices, exponent); only meridians m(i,j) -> e_i + e_j."""
    vec = [0] * d
    for kind, idx, e in letters:
        if kind == "m":
            vec[idx[0] - 1] += e
            vec[idx[1] - 1] += e
    return vec


def psi_check(letters, d: int) -> Check:
    vec = psi_vector(letters, d)
    return expect({"psi": join(vec), "in_kernel": int(not any(vec))})


def parse_meridians(text: str):
    if text == "(identity)":
        return []
    out = []
    for chunk in text.split():
        body, _, exp = chunk.partition("^")
        if not (body.startswith("m(") and body.endswith(")")):
            raise ValueError(f"not a meridian: {chunk!r}")
        i, j = (int(x) for x in body[2:-1].split(","))
        out.append(("m", (i, j), int(exp) if exp else 1))
    return out


def mainlemma_check(k: Sequence[int], arc: tuple[int, int]) -> Check:
    """Re-parse the word; psi(word) + k = 0 and ell = k_i - k_j for the arc (i, j)."""
    d = len(k)

    def word_kills(q):
        try:
            letters = parse_meridians(q["word"])
        except ValueError as exc:
            return str(exc)
        if any(not (1 <= i < j <= d) for _, (i, j), _ in letters):
            return "meridian index out of range"
        if any(a + b for a, b in zip(psi_vector(letters, d), k)):
            return "psi(word) + k != 0"
        return None
    return expect({"ell": k[arc[0] - 1] - k[arc[1] - 1], "psi_after": join([0] * d),
                   "verified": 1}, extra=word_kills, extra_keys=("word",))

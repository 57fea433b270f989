"""Exact arithmetic on the Picard lattice of a simply connected surface.

A lattice is a free Z-module with a chosen basis, an integer Gram matrix of
signature (1, rank-1), and a distinguished canonical vector.  Divisor classes
are integer coordinate vectors against that basis.  Divisibility of a class
means the gcd of its coordinates, which on a torsion-free Picard group is the
order of its maximal root.

All values are immutable after construction except JetLedger, which is a
single-writer/multi-reader table of certified jet-ampleness levels.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    SEARCH_LIMIT,
    InconsistentInputError,
    LatticeMismatchError,
    NotRepresentableError,
    Record,
    UncertifiedError,
    int_token,
    read_lines,
    read_text,
)


def _signature(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia (n_pos, n_neg, n_zero) of a symmetric integer matrix, exactly.

    Its characteristic polynomial (Faddeev-LeVerrier) has only real roots, so
    Descartes' rule of signs counts the positive and the negative ones exactly.
    """
    n = len(gram)
    coeffs, m = [1], [[0] * n for _ in range(n)]  # p(x) = sum coeffs[i] x^(n-i)
    for k in range(1, n + 1):
        # M = G.M + c.I stays a polynomial in G, so symmetric: its rows are its columns.
        m = [[_dot(row, col) + coeffs[-1] * (i == j) for j, col in enumerate(m)]
             for i, row in enumerate(gram)]
        coeffs.append(-sum(map(_dot, gram, m)) // k)  # -tr(G.M) / k
    signs = [(c, n - i) for i, c in enumerate(coeffs) if c]
    pos, neg = (sum(a * b * s ** (i + j) < 0 for (a, i), (b, j) in zip(signs, signs[1:]))
                for s in (1, -1))
    return pos, neg, n - pos - neg


class _LatticeFields(NamedTuple):
    rank: int
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    name: str = ""
    simply_connected: bool = True


class PicardLattice(Record, _LatticeFields):
    """Free Z-module with intersection form and canonical vector."""

    __slots__ = ()

    def _check(self):
        if self.rank < 1:
            raise InconsistentInputError("rank must be positive")
        if len(self.gram) != self.rank or any(len(r) != self.rank for r in self.gram):
            raise InconsistentInputError("gram matrix shape does not match rank")
        if any(self.gram[i][j] != self.gram[j][i]
               for i in range(self.rank) for j in range(self.rank)):
            raise InconsistentInputError("gram matrix is not symmetric")
        if len(self.canonical) != self.rank:
            raise InconsistentInputError("canonical vector length does not match rank")
        sig = _signature(self.gram)
        if sig != (1, self.rank - 1, 0):
            raise InconsistentInputError(
                f"intersection form must have signature (1, rank-1); got inertia {sig}")

    def divisor(self, coords: Iterable[int]) -> "DivisorClass":
        return DivisorClass(tuple(int(c) for c in coords), self)

    @property
    def canonical_class(self) -> "DivisorClass":
        return self.divisor(self.canonical)

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(x[i] * self.gram[i][j] * y[j]
                   for i in range(self.rank) for j in range(self.rank))

    def __repr__(self):
        return f"PicardLattice({self.name or 'rank %d' % self.rank})"


class _DivisorFields(NamedTuple):
    coords: tuple[int, ...]
    lattice: PicardLattice


class DivisorClass(Record, _DivisorFields):
    """Integer coordinates against a lattice's basis; `n * D` and `D * n` scale."""

    __slots__ = ()

    def _check(self):
        if len(self.coords) != self.lattice.rank:
            raise InconsistentInputError("coordinate length does not match lattice rank")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_lattice(self, other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)),
                            self.lattice)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_lattice(self, other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)),
                            self.lattice)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords), self.lattice)

    def __rmul__(self, n: int) -> "DivisorClass":
        return DivisorClass(tuple(n * a for a in self.coords), self.lattice)

    __mul__ = __rmul__  # scaling, never the tuple's repetition

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def divisibility(self) -> int:
        """gcd of the coordinates; 0 for the zero class."""
        return math.gcd(*(abs(c) for c in self.coords)) if self.coords else 0

    def __repr__(self):
        return f"D{list(self.coords)}@{self.lattice.name or 'L'}"


def _same_lattice(a: DivisorClass, b: DivisorClass) -> None:
    if a.lattice != b.lattice:
        raise LatticeMismatchError(
            f"classes live on different lattices: {a.lattice!r} vs {b.lattice!r}")


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection product a.b = a^T G b; symmetric in its arguments."""
    _same_lattice(a, b)
    return a.lattice.pairing(a.coords, b.coords)


class AdjointReport(NamedTuple):
    adjoint: DivisorClass
    divisibility: int
    degenerate: bool


def adjoint_and_root(l: DivisorClass) -> AdjointReport:
    """Adjoint class K+L and the order of its maximal root.

    The divisibility is the gcd of the adjoint coordinates.  A vanishing
    adjoint is reported with the degenerate flag and divisibility 0, never
    as an infinite root order.
    """
    adj = l.lattice.canonical_class + l
    if adj.is_zero():
        return AdjointReport(adj, 0, True)
    return AdjointReport(adj, adj.divisibility(), False)


def genus_of_section(l: DivisorClass) -> int:
    """Genus of a smooth section via adjunction: 2g - 2 = L.(L+K)."""
    product = intersect(l, l.lattice.canonical_class + l)
    if product % 2 != 0:
        raise NotRepresentableError(
            f"L.(K+L) = {product} is odd; no smooth section genus exists")
    return 1 + product // 2


def smoothed_genus(c: DivisorClass, d: DivisorClass) -> int:
    """Genus of a smoothing of the union of transverse sections C and D.

    Two halves joined along C.D circles: g = g(C) + g(D) + C.D - 1.  Always
    equals genus_of_section(C+D).
    """
    return genus_of_section(c) + genus_of_section(d) + intersect(c, d) - 1


class JetLedger:
    """Certified jet-ampleness levels, keyed by divisor class.

    Levels only ever increase (composition never un-certifies anything).
    Every entry is a claim the caller vouches for; absence of an entry is
    not a claim of non-ampleness.
    """

    def __init__(self):
        self._entries: dict[DivisorClass, int] = {}

    def declare(self, cls: DivisorClass, level: int) -> int:
        if level < 0:
            raise InconsistentInputError("jet level must be nonnegative")
        self._entries[cls] = max(level, self._entries.get(cls, level))
        return self._entries[cls]

    def level(self, cls: DivisorClass) -> Optional[int]:
        return self._entries.get(cls)

    def classes(self) -> list[DivisorClass]:
        return list(self._entries)


def jet_compose(ledger: JetLedger, a: DivisorClass, b: DivisorClass) -> int:
    """Certify A+B at level jet(A) + jet(B); records the result in the ledger."""
    _same_lattice(a, b)
    la, lb = ledger.level(a), ledger.level(b)
    if la is None or lb is None:
        missing = a if la is None else b
        raise UncertifiedError(f"no ledger entry for {missing!r}")
    return ledger.declare(a + b, la + lb)


class JetSplitting(NamedTuple):
    """Witness that L = L1 + L2 with jet(L1) >= 6 and jet(L2) >= 1."""

    l1: DivisorClass
    l2: DivisorClass
    jet1: int
    jet2: int


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _cone_bounds(vectors: list, target: tuple) -> Optional[list]:
    """Integer functionals >= 0 on all vectors (all facets if they are independent),
    or None if target is outside their span."""
    from fractions import Fraction  # here: no one-line ledger, so no catalog, needs it

    rows = []  # (echelon row, its coordinates over the vectors, pivot)

    def reduce(v):
        v, coords = [Fraction(x) for x in v], [Fraction(0)] * len(vectors)
        for row, row_coords, p in rows:
            v, coords = ([a - v[p] * b for a, b in zip(v, row)],
                         [a + v[p] * b for a, b in zip(coords, row_coords)])
        return v, coords

    for i, vector in enumerate(vectors):
        rest, coords = reduce(vector)
        p = next((j for j, a in enumerate(rest) if a), None)
        if p is not None:
            coords[i] -= 1
            rows.append(([a / rest[p] for a in rest], [-a / rest[p] for a in coords], p))
    if any(reduce(target)[0]):
        return None
    # The coordinate of each vector against the independent ones, as a functional.
    units = (reduce([int(i == j) for j in range(len(target))])[1] for i in range(len(target)))
    bounds = [[int(a * math.lcm(*(b.denominator for b in phi))) for a in phi]
              for phi in zip(*units)]
    return [phi for phi in bounds if any(phi) and all(_dot(phi, v) >= 0 for v in vectors)]


def _best_entry(steps: list) -> tuple:
    """The (degree, coords, level) entry of highest level per degree, ties to the
    smaller degree; level * (lcm // degree) ranks level / degree exactly."""
    lcm = math.lcm(*(degree for degree, _, _ in steps))
    return max(steps, key=lambda s: (s[2] * (lcm // s[0]), -s[0]))


def jet_splitting_certificate(l: DivisorClass, ledger: JetLedger) -> Optional[JetSplitting]:
    """Search for L = L1 + L2 with certified jet(L1) >= 6 and jet(L2) >= 1.

    Exact relative to the ledger (no claim about the surface): L1, L2 range over
    sums of ledger classes at their best levels under jet(A+B) >= jet(A) + jet(B),
    L1 least in coordinate order.  The ledger's claims make the sum H of its
    classes ample.  Dominated multiples, entries k.w (k >= 2) at a level at most
    k.jet(w), are dropped after the checks on the whole ledger; then sums x are
    visited by H-degree up to H.L with L - x in the ledger's cone: cost
    O(T n log T) for n kept entries and T <= SEARCH_LIMIT sums.  When all entries
    are multiples a.c of one class, T <= (a* + 11).max(a) + a* + 1 independent of
    L, for a* the best kept entry and max(a) the largest kept one.
    """
    lattice = l.lattice
    classes = [cls for cls in ledger.classes() if not cls.is_zero() or ledger.level(cls)]
    h = tuple(map(sum, zip(*(cls.coords for cls in classes))))
    steps = sorted((lattice.pairing(h, cls.coords), cls.coords, ledger.level(cls))
                   for cls in classes)
    if all(level == 0 for *_, level in steps):
        return None
    degree, coords, _ = steps[0]
    if degree <= 0:
        raise InconsistentInputError(f"ledger class ({','.join(map(str, coords))}) has "
                                     f"degree {degree} <= 0 against the ledger's sum")
    # A sum using v = k.w (k >= 2) at level <= k.jet(w) has a form with k copies
    # of w instead at the same level or higher, so dropping v changes no answer.
    steps = [(d, v, lv) for d, v, lv in steps if not any(
        d > e and d % e == 0 and v == tuple(d // e * x for x in w) and lv <= d // e * jet
        for e, w, jet in steps)]
    c = tuple(x // math.gcd(*h) for x in h)
    unit, copies, bounds = lattice.pairing(h, c), 0, []
    if all(coords == tuple(deg // unit * x for x in c) for deg, coords, _ in steps):
        # Entries a.c, and a* one of best level per multiple.  Among a* other
        # entries some subset sums to a multiple of a*, which copies of a*
        # replace without losing level, so every sum of t >= B = (a*-1).max(a) + 1
        # multiples has a best form holding a*: best(t) = best(t - a*) + jet(a*).
        # The chosen L1 (at most six positive entries) or, when c < 0 in
        # coordinate order, L2 (one entry) is at most 6.max(a) multiples, so
        # copies of a* taken out of L while n stays >= B + 12.max(a) belong to
        # the other part and change nothing else.
        star = _best_entry(steps)
        a_star, a_max = star[0] // unit, steps[-1][0] // unit
        n = lattice.pairing(h, l.coords) // unit  # L = n.c when L is on this line
        copies = max(0, (n - (a_star + 11) * a_max - 1) // a_star)
        l = l - copies * lattice.divisor(star[1])
    elif (bounds := _cone_bounds([coords for _, coords, _ in steps], l.coords)) is None:
        return None
    caps, bound = [_dot(phi, l.coords) for phi in bounds], lattice.pairing(h, l.coords)
    zero = (0,) * len(h)
    best, frontier = {zero: 0}, [(0, zero)]
    while frontier:
        degree, x = heapq.heappop(frontier)
        for step, coords, level in steps:
            if degree + step > bound:
                break
            y = tuple(a + b for a, b in zip(x, coords))
            if y not in best:
                if bounds and any(_dot(phi, y) > cap for phi, cap in zip(bounds, caps)):
                    continue
                if len(best) == SEARCH_LIMIT:
                    raise NotRepresentableError(
                        f"the splitting search needs over {SEARCH_LIMIT} ledger sums")
                heapq.heappush(frontier, (degree + step, y))
            best[y] = max(best.get(y, 0), best[x] + level)
    for l1 in sorted(x for x, level in best.items() if level >= 6):
        l2 = tuple(a - b for a, b in zip(l.coords, l1))
        if best.get(l2, 0) >= 1:
            split = [lattice.divisor(l1), lattice.divisor(l2), best[l1], best[l2]]
            if copies:  # back to the large part: L2 if c > 0 in coordinate order
                side = int(c > zero)
                split[side] += copies * lattice.divisor(star[1])
                split[side + 2] += copies * star[2]
            return JetSplitting(*split)
    return None


class LefschetzDecision(NamedTuple):
    exists: bool
    rank: int
    classification: str
    exceptional: bool = False
    witness_multiple: Optional[int] = None


def lefschetz_full_decision(
    lattice: PicardLattice,
    ample_generator: Optional[DivisorClass] = None,
    ledger: Optional[JetLedger] = None,
) -> LefschetzDecision:
    """Decide whether a full-monodromy pencil exists on the surface.

    Rank >= 2 always admits one (the corollary excludes only rank-1
    exceptions).  In rank 1 with canonical = n * generator, a full mapping
    class group is achievable iff |m+n| <= 1 for some effective m >= 1,
    which classifies the surface as K3 (n = 0), del Pezzo (n < 0, hence the
    plane), or neither.  The generator is the primitive class on the ample
    side: the side of the ledger's classes of level >= 1, which are very
    ample, or of (1) when it has none.  Any other `ample_generator` is an
    InconsistentInputError.
    """
    if not lattice.simply_connected:
        raise InconsistentInputError("decision requires a simply connected surface")
    if lattice.rank >= 2:
        return LefschetzDecision(True, lattice.rank, "rank >= 2")
    sides = {(cls.coords[0] > 0) - (cls.coords[0] < 0)
             for cls in (ledger.classes() if ledger else ()) if ledger.level(cls) >= 1}
    if len(sides) > 1 or 0 in sides:
        raise InconsistentInputError("the ledger's very ample classes are not all "
                                     "positive or all negative multiples of one class")
    g0 = sides.pop() if sides else 1
    gen = ample_generator if ample_generator is not None else lattice.divisor((g0,))
    if gen.lattice is not lattice:
        raise LatticeMismatchError("generator lives on a different lattice")
    if gen.coords != (g0,):
        raise InconsistentInputError(
            f"({gen.coords[0]}) is not the ample generator ({g0}) of the rank-1 lattice")
    n = lattice.canonical[0] * g0  # K = n * generator, since g0 = +-1
    if n > 0:
        return LefschetzDecision(False, 1, "general type")
    # m = 1-n >= 1 realizes |m+n| = 1 without degenerating the adjoint class.
    witness = 1 - n
    if n == 0:
        return LefschetzDecision(True, 1, "K3", exceptional=True,
                                 witness_multiple=witness)
    return LefschetzDecision(True, 1, "del Pezzo", exceptional=True,
                             witness_multiple=witness)


# ---------------------------------------------------------------------------
# Catalog


def _validate_genera(lattice: PicardLattice,
                     expected: Sequence[tuple[Sequence[int], int]]) -> PicardLattice:
    # Build-time oracle: the canonical vector must reproduce known genera.
    for coords, genus in expected:
        got = genus_of_section(lattice.divisor(coords))
        if got != genus:
            raise InconsistentInputError(
                f"catalog lattice {lattice.name}: genus of {tuple(coords)} is "
                f"{got}, expected {genus}")
    return lattice


# Each builder returns its lattice and the one class its ledger certifies as
# very ample (jet level 1), or None for an empty ledger.


def _projective_plane() -> tuple[PicardLattice, tuple]:
    lat = _validate_genera(
        PicardLattice(1, ((1,),), (-3,), name="P2"),
        [((1,), 0), ((2,), 0), ((3,), 1), ((5,), 6)])
    return lat, (1,)  # the hyperplane class


def _quadric() -> tuple[PicardLattice, tuple]:
    lat = _validate_genera(
        PicardLattice(2, ((0, 1), (1, 0)), (-2, -2), name="P1xP1"),
        [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((2, 2), 1)])
    return lat, (1, 1)  # bidegree (1,1)


def _hirzebruch(n: int) -> tuple[PicardLattice, tuple]:
    # Basis (s, f): s the negative section, f the fiber.
    lat = _validate_genera(
        PicardLattice(2, ((-n, 1), (1, 0)), (-2, -(n + 2)), name=f"F{n}"),
        [((1, 0), 0), ((0, 1), 0)])
    return lat, (1, n + 1)  # s + (n+1)f


def _del_pezzo(k: int) -> tuple[PicardLattice, tuple]:
    # Blowup of the plane at k general points; basis (H, E1, ..., Ek).
    rank = k + 1
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(rank))
                 for i in range(rank))
    canonical = (-3,) + (1,) * k
    checks = [((1,) + (0,) * k, 0)]
    checks += [(tuple(1 if j == i else 0 for j in range(rank)), 0)
               for i in range(1, rank)]
    checks.append(((1, -1) + (0,) * (k - 1), 0))
    lat = _validate_genera(PicardLattice(rank, gram, canonical, name=f"dP{k}"), checks)
    return lat, (3,) + (-1,) * k  # the anticanonical class


def _k3(two_n: int) -> tuple[PicardLattice, Optional[tuple]]:
    n = two_n // 2
    lat = _validate_genera(
        PicardLattice(1, ((two_n,),), (0,), name=f"K3-{two_n}"),
        [((1,), n + 1)])
    return lat, (1,) if two_n >= 4 else None  # the polarization


_CATALOG = {
    "P2": _projective_plane,
    "P1xP1": _quadric,
    "F1": lambda: _hirzebruch(1),
    "F2": lambda: _hirzebruch(2),
    "F3": lambda: _hirzebruch(3),
    "dP1": lambda: _del_pezzo(1),
    "dP2": lambda: _del_pezzo(2),
    "dP3": lambda: _del_pezzo(3),
    "dP4": lambda: _del_pezzo(4),
    "dP5": lambda: _del_pezzo(5),
    "dP6": lambda: _del_pezzo(6),
    "K3-2": lambda: _k3(2),
    "K3-4": lambda: _k3(4),
    "K3-6": lambda: _k3(6),
    "K3-8": lambda: _k3(8),
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


@functools.cache
def _catalog_entry(name: str) -> tuple[PicardLattice, Optional[DivisorClass]]:
    """A catalog entry's lattice and very-ample class, built and validated once.

    Both are immutable; a builder that raises is not cached and raises again.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise InconsistentInputError(
            f"unknown catalog lattice {name!r}; known: {', '.join(_CATALOG)}") from None
    lattice, very_ample = builder()
    return lattice, lattice.divisor(very_ample) if very_ample else None


def catalog_lattice(name: str) -> tuple[PicardLattice, JetLedger]:
    """The shared catalog lattice and a fresh ledger the caller may extend."""
    lattice, very_ample = _catalog_entry(name)
    ledger = JetLedger()
    if very_ample is not None:
        ledger.declare(very_ample, 1)
    return lattice, ledger


# ---------------------------------------------------------------------------
# Textual lattice format
#
#   name P2
#   rank 1
#   gram 1
#   canonical -3
#   jets
#   1 1
#
# Token-based and whitespace-insensitive; `gram` is row-major and needs
# `rank` to appear first; each `jets` group is rank coordinates then a level.

_KEYWORDS = {"name", "rank", "gram", "canonical", "jets", "simply_connected"}


def parse_lattice(text: str) -> tuple[PicardLattice, JetLedger]:
    # Each token keeps its line, so int_token can quote it.
    tokens = [(token, line) for line, _ in read_lines(text)
              for token in line.replace(",", " ").split()]
    pos = 0

    def ints(n: int) -> tuple[int, ...]:
        """The next n tokens (none if n <= 0) as integers, read in order."""
        nonlocal pos
        taken = tokens[pos:pos + max(n, 0)]
        pos += len(taken)
        values = tuple(int_token(token, line) for token, line in taken)
        if len(taken) < n:
            raise InconsistentInputError("unexpected end of lattice description")
        return values

    name = ""
    rank = None
    gram = None
    canonical = None
    simply_connected = True
    jets: list[tuple[tuple[int, ...], int]] = []
    while pos < len(tokens):
        key = tokens[pos][0]
        pos += 1
        if key == "name":
            if pos >= len(tokens):
                raise InconsistentInputError("lattice description ends after 'name'")
            name = tokens[pos][0]
            pos += 1
        elif key == "rank":
            (rank,) = ints(1)
        elif key == "simply_connected":
            simply_connected = bool(ints(1)[0])
        elif key == "gram":
            if rank is None:
                raise InconsistentInputError("rank must precede gram")
            gram = tuple(ints(rank) for _ in range(rank))
        elif key == "canonical":
            if rank is None:
                raise InconsistentInputError("rank must precede canonical")
            canonical = ints(rank)
        elif key == "jets":
            if rank is None:
                raise InconsistentInputError("rank must precede jets")
            while pos < len(tokens) and tokens[pos][0] not in _KEYWORDS:
                coords = ints(rank)
                jets.append((coords, ints(1)[0]))
        else:
            raise InconsistentInputError(f"unknown lattice key {key!r}")
    if rank is None or gram is None or canonical is None:
        raise InconsistentInputError("lattice description needs rank, gram, canonical")
    lattice = PicardLattice(rank, gram, canonical, name=name,
                            simply_connected=simply_connected)
    ledger = JetLedger()
    for coords, level in jets:
        ledger.declare(lattice.divisor(coords), level)
    return lattice, ledger


def render_lattice(lattice: PicardLattice, ledger: Optional[JetLedger] = None) -> str:
    lines = []
    if lattice.name:
        lines.append(f"name {lattice.name}")
    lines.append(f"rank {lattice.rank}")
    lines.append("gram " + " ".join(str(x) for row in lattice.gram for x in row))
    lines.append("canonical " + " ".join(str(x) for x in lattice.canonical))
    if not lattice.simply_connected:
        lines.append("simply_connected 0")
    if ledger is not None and ledger.classes():
        lines.append("jets")
        for cls in sorted(ledger.classes(), key=lambda c: c.coords):
            lines.append(" ".join(str(x) for x in cls.coords) + f" {ledger.level(cls)}")
    return "\n".join(lines) + "\n"


def resolve_lattice(spec: str) -> tuple[PicardLattice, JetLedger]:
    """Catalog name, or path to a lattice description file."""
    if spec in _CATALOG:
        return catalog_lattice(spec)
    try:
        text = read_text(spec)
    except OSError:
        raise InconsistentInputError(
            f"{spec!r} is neither a catalog name nor a readable file") from None
    return parse_lattice(text)

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    InconsistentInputError,
    LatticeMismatchError,
    NotRepresentableError,
    UncertifiedError,
    int_token,
    read_lines,
)


def _signature(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia (n_pos, n_neg, n_zero) of a symmetric matrix, exactly over Q.

    Congruence diagonalization (Lagrange): simultaneous row/column
    elimination never changes the inertia.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if pivot is not None:
                for k in range(n):
                    a[i][k], a[pivot][k] = a[pivot][k], a[i][k]
                for k in range(n):
                    a[k][i], a[k][pivot] = a[k][pivot], a[k][i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                for sign in (1, -1):
                    if a[i][i] + 2 * sign * a[i][j] + a[j][j] != 0:
                        break
                for k in range(n):
                    a[i][k] += sign * a[j][k]
                for k in range(n):
                    a[k][i] += sign * a[k][j]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[i][j] != 0:
                f = a[i][j] / d
                for k in range(n):
                    a[j][k] -= f * a[i][k]
                for k in range(n):
                    a[k][j] -= f * a[k][i]
    return pos, neg, zero


@dataclass(frozen=True)
class PicardLattice:
    """Free Z-module with intersection form and canonical vector."""

    rank: int
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    name: str = ""
    simply_connected: bool = True

    def __post_init__(self):
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


@dataclass(frozen=True)
class DivisorClass:
    coords: tuple[int, ...]
    lattice: PicardLattice

    def __post_init__(self):
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


@dataclass(frozen=True)
class AdjointReport:
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
        self._entries: dict[DivisorClass, tuple[int, str]] = {}

    def declare(self, cls: DivisorClass, level: int, note: str = "declared") -> int:
        if level < 0:
            raise InconsistentInputError("jet level must be nonnegative")
        old = self._entries.get(cls)
        if old is None or level > old[0]:
            self._entries[cls] = (level, note)
        return self._entries[cls][0]

    def level(self, cls: DivisorClass) -> Optional[int]:
        entry = self._entries.get(cls)
        return entry[0] if entry else None

    def note(self, cls: DivisorClass) -> Optional[str]:
        entry = self._entries.get(cls)
        return entry[1] if entry else None

    def classes(self) -> list[DivisorClass]:
        return list(self._entries)

    def copy(self) -> "JetLedger":
        dup = JetLedger()
        dup._entries = dict(self._entries)
        return dup

    def __len__(self):
        return len(self._entries)


def jet_compose(ledger: JetLedger, a: DivisorClass, b: DivisorClass) -> int:
    """Certify A+B at level jet(A) + jet(B); records the result in the ledger."""
    _same_lattice(a, b)
    la, lb = ledger.level(a), ledger.level(b)
    if la is None or lb is None:
        missing = a if la is None else b
        raise UncertifiedError(f"no ledger entry for {missing!r}")
    return ledger.declare(a + b, la + lb, "composition")


@dataclass(frozen=True)
class JetSplitting:
    """Witness that L = L1 + L2 with jet(L1) >= 6 and jet(L2) >= 1."""

    l1: DivisorClass
    l2: DivisorClass
    jet1: int
    jet2: int


_POOL_MULTIPLICITY = 12


def _composition_pool(ledger: JetLedger) -> dict[tuple[int, ...], int]:
    """All sums of ledger classes with bounded total multiplicity.

    Sound but bounded: every pooled level is genuinely certified by the
    composition rule; nothing beyond the bound is explored.
    """
    base = [(cls, ledger.level(cls)) for cls in ledger.classes()]
    pool: dict[tuple[int, ...], int] = {}

    def extend(idx: int, coords: tuple[int, ...], level: int, budget: int):
        if level > 0:
            if level > pool.get(coords, -1):
                pool[coords] = level
        if idx == len(base) or budget == 0:
            return
        cls, lvl = base[idx]
        extend(idx + 1, coords, level, budget)
        new = coords
        for mult in range(1, budget + 1):
            new = tuple(x + y for x, y in zip(new, cls.coords))
            extend(idx + 1, new, level + mult * lvl, budget - mult)

    if base:
        # Large ledgers get a shallower search; soundness is unaffected.
        budget = _POOL_MULTIPLICITY if len(base) <= 8 else 3
        zero = tuple(0 for _ in base[0][0].coords)
        extend(0, zero, 0, budget)
    return pool


def jet_splitting_certificate(l: DivisorClass, ledger: JetLedger) -> Optional[JetSplitting]:
    """Search for L = L1 + L2 with certified jet(L1) >= 6 and jet(L2) >= 1.

    Sound, not complete: a None result means "not certified", never
    "the hypotheses fail".  Every bounded composition of ledger entries is
    tried.
    """
    pool = _composition_pool(ledger)

    def pooled(cls: DivisorClass) -> int:
        return pool.get(cls.coords, 0)

    firsts = sorted((l.lattice.divisor(co) for co, lv in pool.items() if lv >= 6),
                    key=lambda c: c.coords)
    for l1 in firsts:
        l2 = l - l1
        if pooled(l2) >= 1:
            return JetSplitting(l1, l2, pooled(l1), pooled(l2))
    return None


@dataclass(frozen=True)
class LefschetzDecision:
    exists: bool
    rank: int
    classification: str
    exceptional: bool = False
    witness_multiple: Optional[int] = None


def lefschetz_full_decision(
    lattice: PicardLattice,
    ample_generator: Optional[DivisorClass] = None,
) -> LefschetzDecision:
    """Decide whether a full-monodromy pencil exists on the surface.

    Rank >= 2 always admits one (the corollary excludes only rank-1
    exceptions).  In rank 1 with canonical = n * generator, a full mapping
    class group is achievable iff |m+n| <= 1 for some effective m >= 1,
    which classifies the surface as K3 (n = 0), del Pezzo (n < 0, hence the
    plane), or neither.
    """
    if not lattice.simply_connected:
        raise InconsistentInputError("decision requires a simply connected surface")
    if lattice.rank >= 2:
        return LefschetzDecision(True, lattice.rank, "rank >= 2")
    gen = ample_generator if ample_generator is not None else lattice.divisor((1,))
    if gen.lattice is not lattice:
        raise LatticeMismatchError("generator lives on a different lattice")
    g0 = gen.coords[0]
    k0 = lattice.canonical[0]
    if g0 == 0 or k0 % g0 != 0:
        raise InconsistentInputError(
            "rank-1 canonical class is not an integer multiple of the generator")
    n = k0 // g0
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


def _projective_plane() -> tuple[PicardLattice, JetLedger]:
    lat = _validate_genera(
        PicardLattice(1, ((1,),), (-3,), name="P2"),
        [((1,), 0), ((2,), 0), ((3,), 1), ((5,), 6)])
    ledger = JetLedger()
    ledger.declare(lat.divisor((1,)), 1, "hyperplane class, very ample")
    return lat, ledger


def _quadric() -> tuple[PicardLattice, JetLedger]:
    lat = _validate_genera(
        PicardLattice(2, ((0, 1), (1, 0)), (-2, -2), name="P1xP1"),
        [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((2, 2), 1)])
    ledger = JetLedger()
    ledger.declare(lat.divisor((1, 1)), 1, "bidegree (1,1), very ample")
    return lat, ledger


def _hirzebruch(n: int) -> tuple[PicardLattice, JetLedger]:
    # Basis (s, f): s the negative section, f the fiber.
    lat = _validate_genera(
        PicardLattice(2, ((-n, 1), (1, 0)), (-2, -(n + 2)), name=f"F{n}"),
        [((1, 0), 0), ((0, 1), 0)])
    ledger = JetLedger()
    ledger.declare(lat.divisor((1, n + 1)), 1, "s + (n+1)f, very ample")
    return lat, ledger


def _del_pezzo(k: int) -> tuple[PicardLattice, JetLedger]:
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
    ledger = JetLedger()
    ledger.declare(lat.divisor((3,) + (-1,) * k), 1, "anticanonical, very ample")
    return lat, ledger


def _k3(two_n: int) -> tuple[PicardLattice, JetLedger]:
    n = two_n // 2
    lat = _validate_genera(
        PicardLattice(1, ((two_n,),), (0,), name=f"K3-{two_n}"),
        [((1,), n + 1)])
    ledger = JetLedger()
    if two_n >= 4:
        ledger.declare(lat.divisor((1,)), 1, "polarization, very ample")
    return lat, ledger


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


def catalog_lattice(name: str) -> tuple[PicardLattice, JetLedger]:
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise InconsistentInputError(
            f"unknown catalog lattice {name!r}; known: {', '.join(_CATALOG)}") from None
    return builder()


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
        ledger.declare(lattice.divisor(coords), level, "declared in file")
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
    if ledger is not None and len(ledger):
        lines.append("jets")
        for cls in sorted(ledger.classes(), key=lambda c: c.coords):
            lines.append(" ".join(str(x) for x in cls.coords) + f" {ledger.level(cls)}")
    return "\n".join(lines) + "\n"


def resolve_lattice(spec: str) -> tuple[PicardLattice, JetLedger]:
    """Catalog name, or path to a lattice description file."""
    if spec in _CATALOG:
        return catalog_lattice(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_lattice(fh.read())
    except OSError:
        raise InconsistentInputError(
            f"{spec!r} is neither a catalog name nor a readable file") from None

"""Abelianized simple-braid calculus on a surface half with d boundary circles.

Words are free products of generators: meridian twists m(i,j) about a curve
enclosing boundary circles i and j, boundary twists b(i), declared principal-
stabilizer elements s(tag), and point-pushes carrying a homology label.  The
psi homomorphism sends m(i,j) to e_i + e_j and kernel generators to zero; it
is defined on free words because its target is abelian.  No braid relations
are modeled and none are needed.

Point-pushes have no stated psi image; feeding one to psi is an error, and
kernel elements must be declared explicitly through the stabilizer kind.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import (
    InconsistentInputError,
    ParityError,
    Record,
    UnsupportedTypeError,
    power,
)

MERIDIAN = "meridian"
BOUNDARY = "boundary"
STABILIZER = "stabilizer"
PUSH = "push"


class _GeneratorFields(NamedTuple):
    kind: str
    indices: tuple[int, ...] = ()
    tag: str = ""
    label: Optional[tuple[int, ...]] = None
    exponent: int = 1


class BraidGenerator(Record, _GeneratorFields):
    __slots__ = ()

    def _check(self):
        if self.kind == MERIDIAN:
            if len(self.indices) != 2 or not (1 <= self.indices[0] < self.indices[1]):
                raise InconsistentInputError(
                    f"{self.kind} needs indices 1 <= i < j; got {self.indices}")
        elif self.kind == BOUNDARY:
            if len(self.indices) != 1 or self.indices[0] < 1:
                raise InconsistentInputError("boundary twist needs one index >= 1")
        elif self.kind == STABILIZER:
            if not self.tag:
                raise InconsistentInputError(
                    "stabilizer elements need an explicit provenance tag")
        elif self.kind == PUSH:
            if self.label is None:
                raise InconsistentInputError("point-push needs a homology label")
        else:
            raise UnsupportedTypeError(f"unknown generator kind {self.kind!r}")

    def __pow__(self, n: int) -> "BraidGenerator":
        return BraidGenerator(self.kind, self.indices, self.tag, self.label,
                              self.exponent * n)

    def inverse(self) -> "BraidGenerator":
        return self ** -1


def meridian(i: int, j: int, exponent: int = 1) -> BraidGenerator:
    i, j = min(i, j), max(i, j)
    return BraidGenerator(MERIDIAN, (i, j), exponent=exponent)


def boundary_twist(i: int, exponent: int = 1) -> BraidGenerator:
    return BraidGenerator(BOUNDARY, (i,), exponent=exponent)


def stabilizer_element(tag: str, exponent: int = 1) -> BraidGenerator:
    return BraidGenerator(STABILIZER, tag=tag, exponent=exponent)


def point_push(label: Sequence[int], exponent: int = 1) -> BraidGenerator:
    return BraidGenerator(PUSH, label=tuple(label), exponent=exponent)


class _PsiFields(NamedTuple):
    vec: tuple[int, ...]


class PsiImage(Record, _PsiFields):
    """Vector in Z^d with even coordinate sum (membership in the index-two
    subgroup spanned by the e_i + e_j)."""

    __slots__ = ()

    def _check(self):
        if sum(self.vec) % 2 != 0:
            raise ParityError("psi images have even coordinate sum")

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.vec)

    def __add__(self, other: "PsiImage") -> "PsiImage":
        if len(self.vec) != len(other.vec):
            raise InconsistentInputError("psi images of different lengths")
        return PsiImage(tuple(a + b for a, b in zip(self.vec, other.vec)))


def psi(word: Sequence[BraidGenerator], d: int) -> PsiImage:
    """Linear extension of m(i,j) -> e_i + e_j; kernel kinds map to zero."""
    if d < 3:
        raise InconsistentInputError("psi needs d >= 3 boundary circles")
    vec = [0] * d
    for gen in word:
        if gen.kind == MERIDIAN:
            i, j = gen.indices
            if j > d:
                raise InconsistentInputError(
                    f"meridian index {j} out of range for d = {d}")
            vec[i - 1] += gen.exponent
            vec[j - 1] += gen.exponent
        elif gen.kind == BOUNDARY:
            if gen.indices[0] > d:
                raise InconsistentInputError(
                    f"boundary index {gen.indices[0]} out of range for d = {d}")
        elif gen.kind == STABILIZER:
            pass
        else:
            raise InconsistentInputError(
                f"psi is not defined on {gen.kind} generators; declare kernel "
                "elements with an explicit stabilizer tag")
    return PsiImage(tuple(vec))


def in_stabilizer(word: Sequence[BraidGenerator], d: int) -> bool:
    """Membership test for the principal-stabilizer intersection: psi = 0."""
    return psi(word, d).is_zero()


def homology_trace(word: Sequence[BraidGenerator], genus: int) -> tuple[int, ...]:
    """Total homology class a braid traces out: sum of labels times exponents.

    Point-pushes contribute their declared loop class; meridian, boundary
    and tagged stabilizer generators contribute zero.
    """
    total = [0] * (2 * genus)
    for gen in word:
        if gen.kind == PUSH:
            label = gen.label
            if len(label) != 2 * genus:
                raise InconsistentInputError(
                    f"homology label length {len(label)} != 2g = {2 * genus}")
            for k, v in enumerate(label):
                total[k] += gen.exponent * v
    return tuple(total)


class CorrectionPlan(NamedTuple):
    """Word and twist exponent that kill a braid's psi image.

    Prepending the word to any braid with psi image k yields psi = 0, and
    ell is the exponent of the final boundary-adjacent twist that turns the
    corrected arc into a vanishing cycle.
    """

    word: tuple[BraidGenerator, ...]
    exponent: int
    k_reduced: tuple[int, int, int]


def correction_plan(
    k: Sequence[int],
    arc_endpoints: tuple[int, int] = (1, 2),
    third: int = 3,
) -> CorrectionPlan:
    """Three-stage correction word for a braid with psi image k.

    Stage one dumps the coordinates above the third index onto it with
    meridians m(3,i); stage two adjusts the third coordinate in steps of two
    with the kernel-neutral combination m(3,4) m(3,5) m(4,5)^{-1}; stage
    three clears the remaining image with m(1,2) and m(2,3), leaving the
    twist exponent ell = k_1 - k_2.  Indices are relabeled so that the arc
    endpoints and the enclosing index play the roles of (1, 2, 3).

    The returned plan is machine-verified: psi(word) + k = 0.
    """
    d = len(k)
    if d < 6:
        raise InconsistentInputError("correction plan needs d >= 6")
    if sum(k) % 2 != 0:
        raise ParityError("input is not in the even-sum subgroup")
    if len(arc_endpoints) != 2:
        raise InconsistentInputError("arc endpoints must be two indices i,j")
    i1, i2 = arc_endpoints
    i3 = third
    if len({i1, i2, i3}) != 3 or not all(1 <= x <= d for x in (i1, i2, i3)):
        raise InconsistentInputError("arc endpoints and third index must be "
                                     "three distinct indices in 1..d")

    # Relabel so the distinguished indices are (1, 2, 3).
    order = [i1, i2, i3] + [x for x in range(1, d + 1) if x not in (i1, i2, i3)]
    to_std = {orig: pos + 1 for pos, orig in enumerate(order)}
    from_std = {v: o for o, v in to_std.items()}
    ks = [k[order[pos] - 1] for pos in range(d)]

    k1p, k2p = ks[0], ks[1]
    k3p = ks[2] - sum(ks[3:])
    if (k1p + k2p + k3p) % 2 != 0:
        raise ParityError("reduced image has odd sum; input was malformed")

    word_std: list[BraidGenerator] = []
    ell = k1p - k2p
    word_std.append(meridian(2, 3, ell))
    word_std.append(meridian(1, 2, -k1p))
    half = (k2p - k1p - k3p) // 2
    word_std.append(meridian(3, 4, half))
    word_std.append(meridian(3, 5, half))
    word_std.append(meridian(4, 5, -half))
    for i in range(4, d + 1):
        word_std.append(meridian(3, i, -ks[i - 1]))

    word = tuple(meridian(from_std[g.indices[0]], from_std[g.indices[1]], g.exponent)
                 for g in word_std if g.exponent != 0)
    check = psi(word, d)
    if any(a + b != 0 for a, b in zip(check.vec, k)):
        raise InconsistentInputError(
            "internal check failed: correction word does not kill the image")
    return CorrectionPlan(word, ell, (k1p, k2p, k3p))


# -- word grammar: m(i,j)^e  b(i)^e  s(tag)^e ---------------------------------


def parse_word(text: str) -> list[BraidGenerator]:
    gens = []
    for chunk in text.replace("*", " ").split():
        body, exp = power(chunk)
        if not (len(body) >= 3 and body[1] == "(" and body.endswith(")")):
            raise InconsistentInputError(f"cannot parse generator {chunk!r}")
        kind, args = body[0], body[2:-1]
        try:
            exponent = int(exp)
            if kind == "m":
                i, j = (int(x) for x in args.split(","))
                gens.append(meridian(i, j, exponent))
            elif kind == "b":
                gens.append(boundary_twist(int(args), exponent))
            elif kind == "s":
                gens.append(stabilizer_element(args, exponent))
            else:
                raise InconsistentInputError(f"unknown generator kind {kind!r}")
        except ValueError:
            raise InconsistentInputError(
                f"cannot parse generator {chunk!r}") from None
    return gens


def render_word(word: Sequence[BraidGenerator]) -> str:
    bits = []
    for g in word:
        if g.kind == MERIDIAN:
            body = f"m({g.indices[0]},{g.indices[1]})"
        elif g.kind == BOUNDARY:
            body = f"b({g.indices[0]})"
        elif g.kind == STABILIZER:
            body = f"s({g.tag})"
        else:
            body = f"{g.kind}"
        bits.append(body if g.exponent == 1 else f"{body}^{g.exponent}")
    return " ".join(bits) if bits else "(identity)"

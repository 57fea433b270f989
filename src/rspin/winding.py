"""Winding-number calculus mod r and its homology-level shadows.

Values live on named, tracked curves only; a value is a residue mod r, with
r = 0 meaning plain integers (framing level).  Twists act by twist
linearity, phi(T_c(a)) = phi(a) + <a,c> phi(c), alongside the symplectic
transvection on the homology class.  Arc values are stored doubled so that
half-integers stay exact; the geometric sign convention for arcs is the
caller's (see README), this module only fixes the representation.

Orientation convention, fixed once: homological coherence sums boundary
values of a subsurface oriented with the subsurface to the LEFT, giving
sum phi(c_i) = chi(S').  coherence_check takes caller-oriented values and
never re-orients.

The only homology-level model exposed for winding values is the mod-2
quadratic form q(x) = phi(x) + 1 refining the intersection pairing
(q(x+y) = q(x) + q(y) + <x,y>).  In that dictionary the transvection along
x preserves q exactly when q(x) = 1, i.e. when x is the class of a curve
with winding 0 -- the admissible case.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import (
    InconsistentInputError,
    Record,
    RefinementOrderError,
    UnknownComponentError,
    int_token,
    power,
    read_lines,
)


def reduce_residue(value: int, r: int) -> int:
    """Canonical representative: [0, r) for r > 0, the integer itself for r = 0."""
    if r < 0:
        raise InconsistentInputError("modulus must be nonnegative")
    return value % r if r > 0 else value


def residues_equal(a: int, b: int, r: int) -> bool:
    if r < 0:
        raise InconsistentInputError("modulus must be nonnegative")
    return (a - b) % r == 0 if r > 0 else a == b


class _ContextFields(NamedTuple):
    modulus: int
    genus: int
    boundary: tuple[str, ...] = ()


class WindingContext(Record, _ContextFields):
    __slots__ = ()

    def _check(self):
        if self.modulus < 0 or self.genus < 0:
            raise InconsistentInputError("modulus and genus must be nonnegative")

    @property
    def class_length(self) -> int:
        return 2 * self.genus + len(self.boundary)

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Standard symplectic form on (a1, b1, ..., a_g, b_g), zero on boundary."""
        if len(x) != self.class_length or len(y) != self.class_length:
            raise InconsistentInputError("class vector length mismatch")
        total = 0
        for i in range(self.genus):
            total += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
        return total


class HomologyCurve(NamedTuple):
    name: str
    hclass: tuple[int, ...]
    winding: int

    def capped_class(self, ctx: WindingContext) -> tuple[int, ...]:
        """Image in the homology of the capped closed surface (boundary -> 0)."""
        return self.hclass[:2 * ctx.genus]

    def normalized(self, ctx: WindingContext) -> "HomologyCurve":
        return HomologyCurve(self.name, tuple(self.hclass),
                             reduce_residue(self.winding, ctx.modulus))


class WindingFunction:
    """Partial assignment of residues to curves and doubled values to arcs."""

    def __init__(
        self,
        context: WindingContext,
        values: Optional[Mapping[str, int]] = None,
        arc_values_doubled: Optional[Mapping[str, int]] = None,
    ):
        self.context = context
        r = context.modulus
        self.values = {k: reduce_residue(v, r) for k, v in (values or {}).items()}
        # Arc residues live in (1/2)Z / rZ, i.e. doubled integers mod 2r.
        self.arc_values_doubled = {k: reduce_residue(v, 2 * r)
                                   for k, v in (arc_values_doubled or {}).items()}

    def value(self, curve: str) -> int:
        if curve not in self.values:
            raise UnknownComponentError(f"no winding value stored for curve {curve!r}")
        return self.values[curve]


def reduce_mod(phi: WindingFunction, r_new: int) -> WindingFunction:
    """Unique reduction to a coarser modulus; r = 0 reduces to every r_new."""
    r = phi.context.modulus
    if r_new < 0:
        raise RefinementOrderError("target modulus must be nonnegative")
    if r == 0 or (r_new > 0 and r % r_new == 0):
        ctx = WindingContext(r_new, phi.context.genus, phi.context.boundary)
        return WindingFunction(ctx, phi.values, phi.arc_values_doubled)
    raise RefinementOrderError(f"{r_new} does not divide modulus {r}")


def twist_value(phi_a: int, phi_c: int, pairing: int, exponent: int, r: int) -> int:
    """Value of a after exponent-many twists about c: phi(a) + e <a,c> phi(c)."""
    return reduce_residue(phi_a + exponent * pairing * phi_c, r)


class TwistWord:
    """Product of Dehn twists about named curves, applied left to right."""

    def __init__(self, letters: Sequence[tuple[str, int]]):
        self.letters = tuple((str(c), int(e)) for c, e in letters)

    def inverse(self) -> "TwistWord":
        return TwistWord([(c, -e) for c, e in reversed(self.letters)])

    def __iter__(self):
        return iter(self.letters)

    def __repr__(self):
        return " ".join(f"{c}^{e}" for c, e in self.letters) or "(empty word)"


def act(
    word: TwistWord,
    curve: HomologyCurve,
    declared: Mapping[str, HomologyCurve],
    ctx: WindingContext,
) -> HomologyCurve:
    """Apply the word to one tracked curve.

    Each letter T_c^e uses the *declared* (class, winding) of c -- the word
    is a fixed product of twists -- while the tracked curve's class and
    winding evolve by transvection and twist linearity.
    """
    r = ctx.modulus
    cls = list(curve.hclass)
    w = reduce_residue(curve.winding, r)
    for name, exp in word:
        if name not in declared:
            raise UnknownComponentError(f"twist word references unknown curve {name!r}")
        twist = declared[name]
        pair = ctx.pairing(cls, twist.hclass)
        w = twist_value(w, reduce_residue(twist.winding, r), pair, exp, r)
        cls = [x + exp * pair * c for x, c in zip(cls, twist.hclass)]
    return HomologyCurve(curve.name, tuple(cls), w)


def coherence_check(values: Sequence[int], chi: int, r: int) -> bool:
    """Homological coherence: sum of boundary values == chi(S') mod r.

    Values must be oriented with the subsurface to the left (caller's
    responsibility).
    """
    return residues_equal(sum(values), chi, r)


def is_admissible(curve: HomologyCurve, ctx: WindingContext) -> bool:
    """Nonseparating (nonzero class in the capped closed surface) and winding 0."""
    capped = curve.capped_class(ctx)
    return any(c != 0 for c in capped) and residues_equal(curve.winding, 0, ctx.modulus)


def orbit_gcd(ks: Sequence[int], r: int, r_prime: int) -> int:
    """gcd of observed orbit winding values {k_i * r} together with r'.

    This is the reduction order produced when an orbit of admissible curves
    exhibits refined winding values k_i * r mod r'; requires r | r'.
    """
    if r_prime > 0 and (r == 0 or r_prime % r != 0):
        raise RefinementOrderError(f"{r} does not divide {r_prime}")
    if r_prime == 0 and r != 0:
        raise RefinementOrderError("r' = 0 refines only r = 0")
    if not ks:
        raise InconsistentInputError("need at least one observed value")
    out = abs(r_prime)
    for k in ks:
        out = math.gcd(out, abs(k * r))
    return out


# -- mod-2 quadratic forms and the Arf invariant ------------------------------


class QuadraticFormMod2:
    """Quadratic refinement of the mod-2 intersection form on Z_2^{2g}.

    Determined by its values on the standard symplectic basis
    (a1, b1, ..., a_g, b_g) through q(x+y) = q(x) + q(y) + <x,y>.
    """

    def __init__(self, genus: int, basis_values: Sequence[int]):
        if len(basis_values) != 2 * genus:
            raise InconsistentInputError("need one value per basis vector")
        self.genus = genus
        self.basis_values = tuple(v % 2 for v in basis_values)

    @classmethod
    def from_windings(cls, genus: int, winding_values: Sequence[int]) -> "QuadraticFormMod2":
        """Dictionary between mod-2 winding values and the form: q = phi + 1."""
        return cls(genus, [(v + 1) % 2 for v in winding_values])

    def __call__(self, vector: Sequence[int]) -> int:
        if len(vector) != 2 * self.genus:
            raise InconsistentInputError("vector length must be 2g")
        v = [x % 2 for x in vector]
        total = 0
        for i in range(self.genus):
            x, y = v[2 * i], v[2 * i + 1]
            total += x * self.basis_values[2 * i] + y * self.basis_values[2 * i + 1]
            total += x * y
        return total % 2

    def arf(self) -> int:
        return sum(self.basis_values[2 * i] * self.basis_values[2 * i + 1]
                   for i in range(self.genus)) % 2

    def transvect(self, vector: Sequence[int], x: Sequence[int]) -> list[int]:
        pair = sum(vector[2 * i] * x[2 * i + 1] + vector[2 * i + 1] * x[2 * i]
                   for i in range(self.genus)) % 2
        return [(v + pair * xi) % 2 for v, xi in zip(vector, x)]


def enumerate_forms(genus: int) -> dict[int, int]:
    """Number of the 2^{2g} forms with each Arf invariant, in closed form.

    2^{g-1}(2^g + 1) forms have Arf 0 and 2^{g-1}(2^g - 1) have Arf 1
    (Johnson, Spin structures and quadratic forms on surfaces, 1980).
    """
    if genus < 0:
        raise InconsistentInputError("genus must be nonnegative")
    return {0: (4 ** genus + 2 ** genus) // 2, 1: (4 ** genus - 2 ** genus) // 2}


# -- textual winding format ---------------------------------------------------
#
#   context 1 0 4          # genus, boundary count, modulus
#   curve a : 1 0 : 0      # name : homology class : winding value
#   curve c : 0 1 : 1
#   word c^2 a             # twist letters, applied left to right


def parse_winding(text: str) -> tuple[WindingContext, dict[str, HomologyCurve], TwistWord]:
    ctx = None
    curves: dict[str, HomologyCurve] = {}
    word = TwistWord([])
    for line, parts in read_lines(text):
        if parts[0] == "context":
            if len(parts) != 4:
                raise InconsistentInputError(
                    f"context line needs 'context <genus> <boundary> <modulus>'; "
                    f"got {line!r}")
            g, b, r = (int_token(t, line) for t in parts[1:])
            ctx = WindingContext(r, g, tuple(f"bd{i}" for i in range(1, b + 1)))
        elif parts[0] == "curve":
            if ctx is None:
                raise InconsistentInputError("context line must come first")
            body = " ".join(parts[1:])
            bits = [b.strip() for b in body.split(":")]
            if len(bits) != 3:
                raise InconsistentInputError(
                    f"curve line needs 'curve <name> : <class> : <value>'; got {line!r}")
            name = bits[0]
            hclass = tuple(int_token(x, line) for x in bits[1].split())
            if len(hclass) != ctx.class_length:
                raise InconsistentInputError(
                    f"curve {name}: class needs {ctx.class_length} entries")
            value = int_token(bits[2], line)
            curves[name] = HomologyCurve(name, hclass, value)
        elif parts[0] == "word":
            word = TwistWord([(name, int_token(exp, line))
                              for name, exp in map(power, parts[1:])])
        else:
            raise InconsistentInputError(f"unrecognized winding line {line!r}")
    if ctx is None:
        raise InconsistentInputError("winding description needs a context line")
    return ctx, curves, word

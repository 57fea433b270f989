"""Milnor numbers and monomial bases of isolated plane-curve singularities.

The Milnor number is the dimension of C[[x,y]] / (f_x, f_y).  It is computed
by exact linear algebra: assemble the matrix of all monomial multiples of the
two partials up to total degree N, row reduce it over the integers without
fractions, and count the standard monomials (non-pivot columns) under graded
lex order.  N is increased until two consecutive degrees agree and the
standard set is the complement of a monomial staircase; a hard ceiling
converts non-isolated singularities into a clean error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .errors import (
    InconsistentInputError,
    NonIsolatedError,
    UnsupportedTypeError,
    int_token,
)
from .curveconf import CurveSystem, chain, dynkin

Monomial = tuple[int, int]

DEGREE_CEILING = 24


class PlaneGerm:
    """Polynomial germ in two variables with rational coefficients."""

    def __init__(self, terms):
        coeffs: dict[Monomial, Fraction] = {}
        for (i, j), c in dict(terms).items():
            if i < 0 or j < 0:
                raise InconsistentInputError("exponents must be nonnegative")
            c = Fraction(c)
            if c == 0:
                raise InconsistentInputError("zero coefficients are not stored")
            if (i, j) in coeffs:
                raise InconsistentInputError(f"duplicate exponent pair {(i, j)}")
            coeffs[(i, j)] = c
        self.terms = coeffs

    @classmethod
    def parse(cls, text: str) -> "PlaneGerm":
        return PlaneGerm(_parse_poly(text))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((i + j for i, j in self.terms), default=0)

    def swapped(self) -> "PlaneGerm":
        return PlaneGerm({(j, i): c for (i, j), c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items(),
                                key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0])):
            mono = (f"x^{i}" if i > 1 else "x" if i == 1 else "") + \
                   (f"y^{j}" if j > 1 else "y" if j == 1 else "")
            if c == 1 and mono:
                bits.append(mono)
            elif c == -1 and mono:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out


def jacobian(f: PlaneGerm) -> tuple[PlaneGerm, PlaneGerm]:
    """Formal partial derivatives (f_x, f_y)."""
    fx = {(i - 1, j): c * i for (i, j), c in f.terms.items() if i > 0}
    fy = {(i, j - 1): c * j for (i, j), c in f.terms.items() if j > 0}
    return PlaneGerm(fx), PlaneGerm(fy)


@dataclass(frozen=True)
class MilnorResult:
    mu: int
    basis: tuple[Monomial, ...]
    truncation: int

    def basis_strings(self) -> list[str]:
        out = []
        for i, j in self.basis:
            mono = ("x" + (f"^{i}" if i > 1 else "") if i else "") + \
                   ("y" + (f"^{j}" if j > 1 else "") if j else "")
            out.append(mono or "1")
        return out


def _integer_terms(g: PlaneGerm) -> dict[Monomial, int]:
    """The terms of g scaled by the lcm of their denominators: same ideal, over Z."""
    scale = math.lcm(*(c.denominator for c in g.terms.values()))
    return {m: int(c * scale) for m, c in g.terms.items()}


def _quotient_monomials(f: PlaneGerm, n: int) -> Optional[list[Monomial]]:
    """Standard monomials of the quotient truncated at degree n, in ascending
    graded lex order with x > y (1, x, y, x^2, xy, y^2, ...).

    Works modulo m^{n+1}: every monomial multiple of the two partials (any
    multiplier of degree <= n) is truncated to degree <= n and row reduced.
    The quotient dimension is then exactly dim C[x,y]/(J + m^{n+1}), so a
    repeat value at n+1 certifies the Jacobian ideal has been saturated.
    Returns None when the standard set is not the complement of the
    monomial staircase of the pivots (not yet stable).

    Elimination is fraction-free: each partial is scaled to integer
    coefficients, and a row is reduced against a pivot row by integer
    cross-multiplication.  The rows span the same space over Q as the
    rational elimination's, so the pivot columns (the leading monomials of
    that space) are the same.
    """
    # Descending graded lex with x > y, so the leading monomial comes first.
    columns = [(i, d - i) for d in range(n, -1, -1) for i in range(d + 1)]
    col_index = {m: k for k, m in enumerate(columns)}

    rows: list[dict[int, int]] = []
    for g in jacobian(f):
        if g.is_zero():
            continue
        terms = _integer_terms(g).items()
        for a in range(n + 1):
            for b in range(n + 1 - a):
                row = {col_index[(i + a, j + b)]: c
                       for (i, j), c in terms if i + a + j + b <= n}
                if row:
                    rows.append(row)

    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                pivot_rows[lead] = row
                break
            # row <- p * row - c * pivot, with c / p the two leading
            # coefficients in lowest terms, clears the lead.
            c = row.pop(lead)
            p = pivot[lead]
            g = math.gcd(c, p)
            c, p = c // g, p // g
            if p != 1:
                for k in row:
                    row[k] *= p
            for k, v in pivot.items():
                if k != lead:
                    new = row.get(k, 0) - c * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
    pivot_monos = {columns[p] for p in pivot_rows}
    standard = [m for m in reversed(columns) if m not in pivot_monos]

    # Staircase stability: the standard set must be exactly the complement
    # of the monomial ideal generated by the pivot leading monomials.
    if set(standard) != _staircase_complement(pivot_monos, n):
        return None
    return standard


def _staircase_complement(generators: Iterable[Monomial], n: int) -> set[Monomial]:
    """Monomials of degree <= n outside the ideal the generators span, O(n^2).

    lowest[a] is the least j over generators (i, j) with i <= a, so (a, b)
    lies in the ideal iff b >= lowest[a].  Generators have degree <= n.
    """
    lowest = [n + 1] * (n + 1)
    for i, j in generators:
        lowest[i] = min(lowest[i], j)
    lowest = list(accumulate(lowest, min))
    return {(a, b) for a in range(n + 1) for b in range(min(lowest[a], n + 1 - a))}


def milnor_number(f: PlaneGerm, ceiling: int = DEGREE_CEILING) -> MilnorResult:
    """Milnor number and monomial basis of the Jacobian quotient algebra.

    Stabilization criterion: two consecutive truncation degrees produce the
    same staircase-stable standard set.
    """
    if f.is_zero():
        raise NonIsolatedError("zero germ has no isolated singularity")
    fx, fy = jacobian(f)
    if fx.is_zero() and fy.is_zero():
        raise NonIsolatedError("constant germ has no isolated singularity")
    start = max(1, fx.degree() if not fx.is_zero() else 0,
                fy.degree() if not fy.is_zero() else 0)
    prev: Optional[list[Monomial]] = None
    for n in range(start, ceiling + 1):
        cur = _quotient_monomials(f, n)
        if cur is not None and prev is not None and cur == prev:
            return MilnorResult(len(cur), tuple(cur), n)
        prev = cur
    raise NonIsolatedError(
        f"no stabilization below degree {ceiling}: singularity is not "
        "isolated or too deep for the cost bound")


def jet_requirement(f: PlaneGerm, basis: Sequence[Monomial]) -> int:
    """Minimal k with k >= deg(f) + 2 and k >= max basis degree."""
    basis_deg = max((i + j for i, j in basis), default=0)
    return max(f.degree() + 2, basis_deg)


def morsification_reference(kind: str) -> CurveSystem:
    """Reference vanishing-cycle configuration for a singularity type.

    A_n gives the n-chain; E6 the standard tree.  For A7 the curves carry
    role markers recording which become boundary circles of the smoothed
    union (odd index) and which cross it in a single arc (even index).
    """
    kind = kind.strip().upper().replace("_", "")
    if kind == "E6":
        return dynkin("E6")
    if kind.startswith("A"):
        try:
            n = int(kind[1:])
        except ValueError:
            raise UnsupportedTypeError(f"unsupported type {kind!r}") from None
        sys = chain(n, prefix="a")
        if n == 7:
            roles = {f"a{i}": ("boundary-circle" if i % 2 == 1 else "cross-arc")
                     for i in range(1, 8)}
            return CurveSystem(sys.curves, sys.crossings, roles=roles,
                               note="local smoothing picture recorded as "
                                    "reference data (divide-theoretic input)")
        return sys
    raise UnsupportedTypeError(f"unsupported type {kind!r}")


# -- tiny polynomial parser ---------------------------------------------------
#
# Grammar: terms joined by + and -; a term is factors joined by * (or
# juxtaposed), each factor an integer, a rational a/b, or x/y with an
# optional ^exponent.


def _parse_poly(text: str) -> dict[Monomial, Fraction]:
    tokens = _tokenize(text)
    terms: dict[Monomial, Fraction] = {}
    pos = 0
    sign = 1
    if pos < len(tokens) and tokens[pos] in ("+", "-"):
        sign = -1 if tokens[pos] == "-" else 1
        pos += 1
    while pos < len(tokens):
        coeff = Fraction(sign)
        expo = [0, 0]
        saw_factor = False
        while pos < len(tokens) and tokens[pos] not in ("+", "-"):
            tok = tokens[pos]
            if tok == "*":
                pos += 1
                continue
            if tok in ("x", "y"):
                var = 0 if tok == "x" else 1
                pos += 1
                e = 1
                if pos < len(tokens) and tokens[pos] == "^":
                    pos += 1
                    if pos >= len(tokens) or not tokens[pos].isdigit():
                        raise InconsistentInputError("^ needs an integer exponent")
                    e = int_token(tokens[pos], text)
                    pos += 1
                expo[var] += e
            elif tok == "^":
                raise InconsistentInputError("exponent must follow x or y")
            else:
                try:
                    coeff *= Fraction(tok)
                except (ValueError, ZeroDivisionError):
                    raise InconsistentInputError(
                        f"bad coefficient {tok!r}") from None
                pos += 1
            saw_factor = True
        if not saw_factor:
            raise InconsistentInputError("empty term in polynomial")
        key = (expo[0], expo[1])
        total = terms.get(key, Fraction(0)) + coeff
        if total == 0:
            terms.pop(key, None)
        else:
            terms[key] = total
        sign = 1
        if pos < len(tokens):
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
    return terms


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^xy":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise InconsistentInputError(f"unexpected character {ch!r} in polynomial")
    return tokens

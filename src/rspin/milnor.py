"""Milnor numbers and monomial bases of isolated plane-curve singularities.

The Milnor number mu = dim C[[x,y]] / (f_x, f_y) is the intersection number
I_0(f_x, f_y), computed exactly by Fulton's algorithm; a total past the Bezout
bound deg f_x * deg f_y certifies that the germ is not isolated.  The basis:
assemble all monomial multiples of the two partials up to total degree n, row
reduce them over the integers without fractions, and take the standard
monomials (non-pivot columns) under graded lex order at the least n with mu
of them.  When the partials' tangent cones are transversal (mu = ord f_x *
ord f_y) that n is ord f_x + ord f_y - 2 and one elimination answers;
otherwise n is raised in jumps that never pass it.  No degree ceiling
applies, only the shared size bound `SEARCH_LIMIT` on the matrix's columns.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import curveconf
from .errors import (
    SEARCH_LIMIT,
    InconsistentInputError,
    NonIsolatedError,
    NotRepresentableError,
    UnsupportedTypeError,
    int_token,
)

Monomial = tuple[int, int]


class PlaneGerm:
    """Polynomial germ in two variables with rational coefficients."""

    def __init__(self, terms):
        coeffs: dict[Monomial, Fraction] = {}
        for (i, j), c in terms.items() if isinstance(terms, dict) else terms:
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

    def order(self) -> int:
        """The least total degree of a term, the multiplicity at the origin."""
        return min((i + j for i, j in self.terms), default=0)

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


class MilnorResult(NamedTuple):
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


def _too_many_columns() -> NotRepresentableError:
    return NotRepresentableError(f"the monomial basis needs over {SEARCH_LIMIT} columns")


def _quotient_monomials(f: PlaneGerm, n: int) -> list[Monomial]:
    """Standard monomials of the quotient truncated at degree n, in ascending
    graded lex order with x > y (1, x, y, x^2, xy, y^2, ...).

    Works modulo m^{n+1}: every monomial multiple of the two partials is
    truncated to degree <= n and row reduced.  Only multipliers of degree
    <= n - ord(g) for a partial g leave a term; the rest are zero mod m^{n+1}
    and give no row.  The quotient dimension is then exactly
    dim C[x,y]/(J + m^{n+1}), and the standard set is a staircase: the rows
    span an ideal mod m^{n+1}.

    Elimination is fraction-free: each partial is scaled to integer
    coefficients, and a row is reduced against a pivot row by integer
    cross-multiplication.  The rows span the same space over Q as the
    rational elimination's, so the pivot columns (the leading monomials of
    that space) are the same.
    """
    if (n + 1) * (n + 2) // 2 > SEARCH_LIMIT:
        raise _too_many_columns()
    # Descending graded lex with x > y, so the leading monomial comes first.
    columns = [(i, d - i) for d in range(n, -1, -1) for i in range(d + 1)]
    col_index = {m: k for k, m in enumerate(columns)}

    rows: list[dict[int, int]] = []
    for g in jacobian(f):
        if g.is_zero():
            continue
        terms = _integer_terms(g).items()
        # A multiplier of degree past n - ord(g) truncates every term away.
        room = n - g.order()
        for a in range(room + 1):
            for b in range(room + 1 - a):
                rows.append({col_index[(i + a, j + b)]: c
                             for (i, j), c in terms if i + a + j + b <= n})

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
    return [m for m in reversed(columns) if m not in pivot_monos]


def _axis(g: dict[Monomial, int]) -> tuple[float, dict[int, int], dict[Monomial, int]]:
    """(r, u, g) with g(x, 0) = x^r u(x), u(0) != 0; r = inf when y divides g."""
    axis = {i: c for (i, j), c in g.items() if j == 0}
    r = min(axis, default=math.inf)
    return r, {i - r: c for i, c in axis.items()}, g


def _intersection(p: dict[Monomial, int], q: dict[Monomial, int], bound: int) -> int:
    """I_0(p, q) at the origin for integer polynomials (Fulton, Algebraic Curves 3.3).

    With p(x, 0) = x^r u, q(x, 0) = x^s v, u(0), v(0) != 0 and r <= s,
    I_0(p, q) = r + I_0(p, (u q - v x^(s-r) p) / y): the unit u changes nothing
    and the whole axis part cancels.  A variable dividing both, or a total past
    bound = deg p * deg q (Bezout, which survives cancelling a common factor
    that misses the origin), is a shared component through the origin.
    """
    total = 0
    while (0, 0) not in p and (0, 0) not in q:
        # Past the bound both are truncated to 0, which every variable divides.
        if any(all(m[k] for m in (*p, *q)) for k in (0, 1)):
            raise NonIsolatedError("the partials share a component through the origin")
        (r, u, p), (s, v, q) = sorted(map(_axis, (p, q)), key=lambda t: t[0])
        # u q - v x^(s-r) p, or q itself when y divides q (v = 0).
        new: Counter = Counter()
        for g, w in ((q, u if v else {0: 1}), (p, {a + s - r: -b for a, b in v.items()})):
            for (i, j), c in g.items():
                for a, b in w.items():
                    new[i + a, j] += b * c
        total += r
        # Terms past the remaining budget do not change I_0 if it is within it.
        content, budget = math.gcd(*new.values()), bound - total
        q = {(i, j - 1): c // content for (i, j), c in new.items() if c and i + j <= budget + 1}
        p = {m: c for m, c in p.items() if sum(m) <= budget}
    return total


def milnor_number(f: PlaneGerm) -> MilnorResult:
    """Milnor number mu = I_0(f_x, f_y) and monomial basis of the Jacobian algebra.

    The truncated quotient's dimension rises strictly with n until it is mu
    (equal values at n and n + 1 put m^(n+1) in the Jacobian ideal, by
    Nakayama, and the standard sets agree from then on); truncation n + 1 is
    the first degree that repeats the basis.  The rise from n - 1 to n is
    H(n), the Hilbert function of the graded ring of C[[x,y]]/J.

    When the partials' tangent cones share no line, that least n is known:
    mu = d1 d2 with d1 = ord f_x, d2 = ord f_y exactly then (Fulton,
    Algebraic Curves 3.3, property (5)).  The initial forms of the partials
    are coprime, their complete intersection has colength d1 d2 = mu, so it
    is the whole graded ring, and H is last nonzero in degree d1 + d2 - 2.
    One elimination there (or at the start degree, if later) is the basis.

    Otherwise the least n is found without passing it.  In two variables H
    never grows past the least degree of J (Macaulay), so from the start
    degree on.  Each later rise is at most the mean rise over the last jump,
    and the jump after a count below mu is the fewest degrees that can make
    up the deficit at that rise.  Every probe is one the degree-by-degree
    scan would make.  A probe past the largest truncation whose matrix fits
    `SEARCH_LIMIT` columns proves the basis does not fit, and raises before
    that matrix is built.
    """
    fx, fy = jacobian(f)
    mu = _intersection(_integer_terms(fx), _integer_terms(fy), fx.degree() * fy.degree())
    # Below isqrt(2 mu) - 1 the truncated matrix has fewer than mu columns.
    n = max(1, fx.degree(), fy.degree(), math.isqrt(2 * mu) - 1)
    d1, d2 = fx.order(), fy.order()
    if d1 and d2 and mu == d1 * d2:
        n = max(n, d1 + d2 - 2)
    top = (math.isqrt(8 * SEARCH_LIMIT + 1) - 3) // 2  # (n+1)(n+2)/2 <= SEARCH_LIMIT
    if n > top:
        raise _too_many_columns()
    standard, rise = _quotient_monomials(f, n), n + 1  # H(n + 1) <= H(n) <= n + 1
    while len(standard) < mu:
        jump = -(-(mu - len(standard)) // rise)
        if n + jump > top:
            raise _too_many_columns()
        longer = _quotient_monomials(f, n + jump)
        # A zero mean rise below mu cannot happen; 1 keeps the scan finite anyway.
        rise = max(1, (len(longer) - len(standard)) // jump)
        n, standard = n + jump, longer
    return MilnorResult(mu, tuple(standard), n + 1)


def jet_requirement(f: PlaneGerm, basis: Sequence[Monomial]) -> int:
    """Minimal k with k >= deg(f) + 2 and k >= max basis degree."""
    basis_deg = max((i + j for i, j in basis), default=0)
    return max(f.degree() + 2, basis_deg)


def morsification_reference(kind: str) -> curveconf.CurveSystem:
    """Reference vanishing-cycle configuration for a singularity type.

    A_n gives the n-chain; E6 the standard tree.  For A7 the curves carry
    role markers recording which become boundary circles of the smoothed
    union (odd index) and which cross it in a single arc (even index).
    """
    kind = kind.strip().upper().replace("_", "")
    if kind == "E6":
        return curveconf.dynkin("E6")
    if kind.startswith("A"):
        try:
            n = int(kind[1:])
        except ValueError:
            raise UnsupportedTypeError(f"unsupported type {kind!r}") from None
        sys = curveconf.chain(n, prefix="a")
        if n == 7:
            roles = {f"a{i}": ("boundary-circle" if i % 2 == 1 else "cross-arc")
                     for i in range(1, 8)}
            return curveconf.CurveSystem(sys.curves, sys.crossings, roles=roles,
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

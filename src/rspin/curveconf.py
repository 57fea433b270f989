"""Combinatorial models of simple-closed-curve configurations.

A CurveSystem records named curves, signed intersection points, and ribbon
data: for each curve, the cyclic order of its intersections.  The regular
neighborhood of the union is the thickening of the 4-valent graph whose
vertices are the intersection points; its boundary circles are traced
combinatorially, which pins down (chi, b, g).  A system derives its
intersection graph and these invariants once, on first use, and keeps them.

Ribbon data may be omitted for arboreal (tree-patterned) configurations,
where the canonical plumbing is well-defined; anything else must supply the
embedding explicitly.  Intersection signs are stored for the algebraic
pairing used elsewhere and do not enter chi/b/g (orientable plumbing).
"""

from __future__ import annotations

from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    DisconnectedError,
    InconsistentInputError,
    NotSimpleError,
    Record,
    RibbonError,
    UnsupportedTypeError,
    int_token,
    read_lines,
)


class _CrossingFields(NamedTuple):
    ident: str
    curves: tuple[str, str]
    sign: int = 1


class Crossing(Record, _CrossingFields):
    __slots__ = ()

    def _check(self):
        if self.curves[0] == self.curves[1]:
            raise InconsistentInputError(
                f"crossing {self.ident}: simple closed curves cannot self-intersect")
        if self.sign not in (-1, 1):
            raise InconsistentInputError(f"crossing {self.ident}: sign must be +-1")


def _incidence(curves: Sequence[str], crossings: Sequence[Crossing]) -> dict[str, list[str]]:
    """Each curve's crossing ids in crossing order (the canonical tree ribbon)."""
    if len(set(curves)) != len(curves):
        raise InconsistentInputError("duplicate curve names")
    incident: dict[str, list[str]] = {c: [] for c in curves}
    seen = set()
    for x in crossings:
        if x.ident in seen:
            raise InconsistentInputError(f"duplicate crossing id {x.ident}")
        seen.add(x.ident)
        for c in x.curves:
            if c not in incident:
                raise InconsistentInputError(
                    f"crossing {x.ident} references unknown curve {c}")
            incident[c].append(x.ident)
    return incident


class CurveSystem:
    """Named curves + signed crossings + (possibly derived) ribbon data."""

    def __init__(
        self,
        curves: Iterable[str],
        crossings: Iterable[Crossing] = (),
        ribbon: Optional[Mapping[str, Sequence[str]]] = None,
        ambient: Optional[tuple[int, int]] = None,
        roles: Optional[Mapping[str, str]] = None,
        note: str = "",
    ):
        self.curves = tuple(curves)
        self.crossings = tuple(crossings)
        self.ambient = ambient
        self.roles = MappingProxyType(dict(roles or {}))
        self.note = note
        incident = _incidence(self.curves, self.crossings)
        self.ribbon_given = ribbon is not None
        if ribbon is None:
            ribbon = incident
        else:
            for c, idents in incident.items():
                if sorted(ribbon.get(c, ())) != sorted(idents):
                    raise InconsistentInputError(
                        f"ribbon data for {c} must list each incident crossing once")
        self.ribbon = MappingProxyType({c: tuple(ribbon.get(c, ())) for c in self.curves})

    # -- derived structure, computed on first use and kept --------------------

    @cached_property
    def _graph(self) -> "IntersectionGraph":
        return IntersectionGraph(
            self.curves, frozenset(frozenset(x.curves) for x in self.crossings))

    @cached_property
    def _met_twice(self) -> Optional[str]:
        """Why the system is not simple, naming a pair that meets twice; or None.

        Fewer edges than crossings means some pair meets twice; only then are
        the pairs counted, to name it.
        """
        if len(self._graph.edges) == len(self.crossings):
            return None
        pair, n = next((p, n) for p, n in self.pair_counts().items() if n > 1)
        a, b = sorted(pair)
        return f"curves {a}, {b} meet in {n} points"

    @cached_property
    def _invariants(self) -> "NeighborhoodInvariants":
        components = self._graph.component_count
        if components == 0:
            raise InconsistentInputError("empty curve system")
        if components > 1:
            raise DisconnectedError(f"system has {components} components")
        if not self.crossings:
            return NeighborhoodInvariants(0, 2, 0)
        if not self.ribbon_given and not intersection_graph(self).is_tree():
            raise RibbonError(
                "neighborhood of a non-tree configuration needs explicit ribbon data")
        chi = -len(self.crossings)
        b = _trace_faces(self)
        if (2 - chi - b) % 2 != 0:
            raise InconsistentInputError("boundary walk produced non-integral genus")
        g = (2 - chi - b) // 2
        if g < 0:
            raise InconsistentInputError("boundary walk produced negative genus")
        return NeighborhoodInvariants(chi, b, g)

    # -- basic queries ------------------------------------------------------

    def crossing(self, ident: str) -> Crossing:
        for x in self.crossings:
            if x.ident == ident:
                return x
        raise InconsistentInputError(f"no crossing {ident}")

    def pair_counts(self) -> dict[frozenset, int]:
        counts: dict[frozenset, int] = {}
        for x in self.crossings:
            key = frozenset(x.curves)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def relabeled(self, mapping: Mapping[str, str]) -> "CurveSystem":
        ren = lambda c: mapping.get(c, c)
        curves = [ren(c) for c in self.curves]
        xs = [Crossing(x.ident, (ren(x.curves[0]), ren(x.curves[1])), x.sign)
              for x in self.crossings]
        rib = {ren(c): seq for c, seq in self.ribbon.items()} if self.ribbon_given else None
        return CurveSystem(curves, xs, ribbon=rib, ambient=self.ambient,
                           roles={ren(c): r for c, r in self.roles.items()},
                           note=self.note)

    def __repr__(self):
        return f"CurveSystem({len(self.curves)} curves, {len(self.crossings)} crossings)"


class _GraphFields(NamedTuple):
    vertices: tuple[str, ...]
    edges: frozenset


class IntersectionGraph(_GraphFields):
    """Curves and the pairs that meet; one per `CurveSystem`, kept on it.

    Without `__slots__`, so each instance keeps a `__dict__` for its
    adjacency, its component count (one DFS) and its E6 centre test, each
    found once on first use.
    """

    @cached_property
    def _adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for ws in adj.values():
            ws.sort()
        return adj

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def neighbors(self, v: str) -> list[str]:
        return list(self._adjacency[v])

    @cached_property
    def _has_e6_centre(self) -> bool:
        """Some vertex of degree >= 3 has two neighbours of degree >= 2."""
        adj = self._adjacency
        return any(len(ws) >= 3 and sum(len(adj[w]) >= 2 for w in ws) >= 2
                   for ws in adj.values())

    @cached_property
    def component_count(self) -> int:
        adj, seen, count = self._adjacency, set(), 0
        for v in self.vertices:
            if v in seen:
                continue
            count += 1
            seen.add(v)
            stack = [v]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count

    def is_connected(self) -> bool:
        return self.component_count <= 1

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and self.is_connected()


class _NeighborhoodFields(NamedTuple):
    euler: int
    boundary: int
    genus: int


class NeighborhoodInvariants(Record, _NeighborhoodFields):
    __slots__ = ()

    def _check(self):
        if self.euler != 2 - 2 * self.genus - self.boundary:
            raise InconsistentInputError("chi = 2 - 2g - b violated")


def intersection_graph(sys: CurveSystem) -> IntersectionGraph:
    """Vertices are curves; an edge means exactly one geometric intersection.

    The graph, and the pair that meets twice if one does, are found once
    and kept on `sys`.
    """
    if sys._met_twice is not None:
        raise NotSimpleError(sys._met_twice)
    return sys._graph


def is_arboreal(sys: CurveSystem) -> bool:
    return intersection_graph(sys).is_tree()


def has_induced_e6(graph: IntersectionGraph) -> bool:
    """True iff a tree has an induced E6 (a 5-chain plus a branch at its middle).

    Requires a tree.  There every connected vertex set induces a subtree, so
    an E6 exists iff some vertex of degree >= 3 has two neighbours of degree
    >= 2: it is the centre, and the two arms of length 2 run through those
    neighbours.  One O(V + E) pass over the adjacency, kept on the graph.
    """
    if not graph.is_tree():
        raise UnsupportedTypeError("the E6 criterion needs a tree intersection graph")
    return graph._has_e6_centre


def is_e_arboreal(sys: CurveSystem) -> bool:
    graph = intersection_graph(sys)
    return graph.is_tree() and has_induced_e6(graph)


# -- regular neighborhood via face tracing ----------------------------------
#
# Darts: for curve c with cyclic crossing sequence (i_1 .. i_k), edge j runs
# from i_j to i_{j+1 (mod k)} and carries darts (c, j, 0) at its tail and
# (c, j, 1) at its head.  At each crossing the four darts interleave the two
# strands counterclockwise: (a_out, b_out, a_in, b_in), the transverse-
# crossing pattern.  Boundary circles of the thickened graph are the orbits
# of dart -> rotate(opposite(dart)).


def _trace_faces(sys: CurveSystem) -> int:
    out_dart: dict[tuple[str, str], tuple] = {}
    in_dart: dict[tuple[str, str], tuple] = {}
    for c in sys.curves:
        cyc = sys.ribbon[c]
        for j, ident in enumerate(cyc):
            out_dart[(c, ident)] = (c, j, 0)
            in_dart[(c, cyc[(j + 1) % len(cyc)])] = (c, j, 1)

    rotate: dict[tuple, tuple] = {}
    for x in sys.crossings:
        a, b = x.curves
        ring = [out_dart[(a, x.ident)], out_dart[(b, x.ident)],
                in_dart[(a, x.ident)], in_dart[(b, x.ident)]]
        for i, d in enumerate(ring):
            rotate[d] = ring[(i + 1) % 4]

    def opposite(d):
        c, j, end = d
        return (c, j, 1 - end)

    seen = set()
    faces = 0
    for start in rotate:
        if start in seen:
            continue
        faces += 1
        d = start
        while True:
            seen.add(d)
            d = rotate[opposite(d)]
            if d == start:
                break
    return faces


def neighborhood_invariants(sys: CurveSystem) -> NeighborhoodInvariants:
    """(chi, b, g) of a regular neighborhood of the union, kept on `sys`.

    chi is minus the number of intersection points; b comes from the
    boundary walk on the 4-valent ribbon graph; g from chi = 2 - 2g - b.
    An isolated curve is an annulus; a disconnected system is an error.  A
    system that raises keeps nothing and raises again on every call.
    """
    return sys._invariants


def is_spanning(sys: CurveSystem, ambient: Optional[tuple[int, int]] = None) -> bool:
    """True iff the neighborhood invariants match the ambient (g, b)."""
    target = ambient if ambient is not None else sys.ambient
    if target is None:
        raise InconsistentInputError("no ambient (genus, boundary) supplied")
    inv = neighborhood_invariants(sys)
    return (inv.genus, inv.boundary) == tuple(target)


# -- standard configurations -------------------------------------------------


def chain(n: int, prefix: str = "c") -> CurveSystem:
    """The n-curve chain: consecutive curves meet once (A_n plumbing)."""
    if n < 1:
        raise UnsupportedTypeError("chain length must be >= 1")
    curves = [f"{prefix}{i}" for i in range(1, n + 1)]
    xs = [Crossing(f"x{i}", (curves[i - 1], curves[i])) for i in range(1, n)]
    return CurveSystem(curves, xs)


def dynkin(kind: str) -> CurveSystem:
    """Standard plumbing configuration for a Dynkin type (A_n or E6)."""
    kind = kind.strip().upper().replace("_", "")
    if kind.startswith("A"):
        try:
            n = int(kind[1:])
        except ValueError:
            raise UnsupportedTypeError(f"unsupported Dynkin type {kind!r}") from None
        return chain(n)
    if kind == "E6":
        curves = [f"v{i}" for i in range(1, 7)]
        xs = [Crossing("x1", ("v1", "v2")), Crossing("x2", ("v2", "v3")),
              Crossing("x3", ("v3", "v4")), Crossing("x4", ("v4", "v5")),
              Crossing("x5", ("v3", "v6"))]
        return CurveSystem(curves, xs)
    raise UnsupportedTypeError(f"unsupported Dynkin type {kind!r}")


@cache
def e6_a7_core() -> CurveSystem:
    """The 13-curve core: an A7 chain joined to an E6 tree by one edge.

    Curves a1..a7 form the chain, b1..b6 the E6 tree (branch vertex b3,
    short-arm leaf b6), and b6 meets a4 once.  The tree thickens to a
    genus-6 surface with two boundary circles, which is what the spanning
    check certifies.  Built once: every caller shares the one read-only system.
    """
    curves = [f"a{i}" for i in range(1, 8)] + [f"b{i}" for i in range(1, 7)]
    xs = [Crossing(f"xa{i}", (f"a{i}", f"a{i+1}")) for i in range(1, 7)]
    xs += [Crossing(f"xb{i}", (f"b{i}", f"b{i+1}")) for i in range(1, 5)]
    xs.append(Crossing("xb5", ("b3", "b6")))
    xs.append(Crossing("xj", ("b6", "a4")))
    return CurveSystem(curves, xs, ambient=(6, 2),
                       note="joined A7+E6 tree; canonical tree plumbing")


# -- textual configuration format --------------------------------------------
#
#   curves a1 a2 a3
#   ambient 1 2
#   intersections
#   x1 a1 a2 +1
#   x2 a2 a3 -1
#   ribbon a2 x1 x2
#
# One intersection per line: id, the two curves, an optional sign.
# Ribbon lines are optional; omitted curves get canonical (tree) order.


def parse_curve_system(text: str) -> CurveSystem:
    curves: list[str] = []
    ambient = None
    xs: list[Crossing] = []
    ribbon: dict[str, list[str]] = {}
    mode = None
    for line, parts in read_lines(text):
        head = parts[0]
        if head == "curves":
            curves.extend(parts[1:])
            mode = None
        elif head == "ambient":
            if len(parts) != 3:
                raise InconsistentInputError("ambient needs genus and boundary count")
            ambient = (int_token(parts[1], line), int_token(parts[2], line))
            mode = None
        elif head == "intersections":
            mode = "intersections"
        elif head == "ribbon":
            if len(parts) < 2:
                raise InconsistentInputError("ribbon line needs a curve name")
            ribbon[parts[1]] = list(parts[2:])
            mode = None
        elif mode == "intersections":
            if len(parts) not in (3, 4):
                raise InconsistentInputError(
                    f"intersection line {line!r} needs: id curve curve [sign]")
            sign = int_token(parts[3], line) if len(parts) == 4 else 1
            xs.append(Crossing(parts[0], (parts[1], parts[2]), sign))
        else:
            raise InconsistentInputError(f"unrecognized configuration line {line!r}")
    if ribbon:
        # Fill the remaining curves with canonical order so partial ribbon
        # files stay usable for tree configurations.
        full = {c: tuple(idents) for c, idents in _incidence(curves, xs).items()}
        full.update({c: tuple(seq) for c, seq in ribbon.items()})
        return CurveSystem(curves, xs, ribbon=full, ambient=ambient)
    return CurveSystem(curves, xs, ambient=ambient)

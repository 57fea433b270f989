import itertools
import random
import time

import pytest

from rspin.curveconf import (
    Crossing,
    CurveSystem,
    IntersectionGraph,
    chain,
    dynkin,
    e6_a7_core,
    has_induced_e6,
    intersection_graph,
    is_arboreal,
    is_e_arboreal,
    is_spanning,
    neighborhood_invariants,
    parse_curve_system,
)
from rspin.errors import (
    DisconnectedError,
    InconsistentInputError,
    NotSimpleError,
    RibbonError,
    UnsupportedTypeError,
)


def triangle():
    return CurveSystem(
        ["a", "b", "c"],
        [Crossing("x", ("a", "b")), Crossing("y", ("b", "c")),
         Crossing("z", ("c", "a"))],
        ribbon={"a": ("x", "z"), "b": ("x", "y"), "c": ("y", "z")})


def test_intersection_graph_basics():
    two = CurveSystem(["a", "b"])
    g = intersection_graph(two)
    assert len(g.vertices) == 2 and len(g.edges) == 0
    a2 = chain(2)
    g = intersection_graph(a2)
    assert len(g.edges) == 1


def test_core_graph_is_a_tree_with_twelve_edges():
    g = intersection_graph(e6_a7_core())
    assert len(g.vertices) == 13 and len(g.edges) == 12 and g.is_tree()


def test_not_simple_rejected():
    sys_ = CurveSystem(
        ["a", "b"],
        [Crossing("x", ("a", "b")), Crossing("y", ("a", "b"))])
    with pytest.raises(NotSimpleError):
        intersection_graph(sys_)


def test_self_intersection_rejected():
    with pytest.raises(InconsistentInputError):
        Crossing("x", ("a", "a"))


def test_arboreal_predicates():
    assert is_arboreal(chain(7)) and not is_e_arboreal(chain(7))
    e6 = dynkin("E6")
    assert is_arboreal(e6) and is_e_arboreal(e6)
    assert not is_arboreal(triangle())


def test_e6_search_rejects_wrong_trees():
    # D6: 5-chain with the branch at the second vertex, not the middle.
    curves = [f"v{i}" for i in range(1, 7)]
    xs = [Crossing("x1", ("v1", "v2")), Crossing("x2", ("v2", "v3")),
          Crossing("x3", ("v3", "v4")), Crossing("x4", ("v4", "v5")),
          Crossing("x5", ("v2", "v6"))]
    d6 = CurveSystem(curves, xs)
    assert is_arboreal(d6) and not is_e_arboreal(d6)
    assert not has_induced_e6(intersection_graph(chain(12)))


def _branch_lengths(graph, root):
    lengths = []
    for first in graph.neighbors(root):
        n, prev, cur = 1, root, first
        while True:
            nxt = [w for w in graph.neighbors(cur) if w != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            n += 1
        lengths.append(n)
    return sorted(lengths)


def _induced_is_e6(graph, verts):
    sub = frozenset(e for e in graph.edges if e <= set(verts))
    induced = IntersectionGraph(verts, sub)
    if len(sub) != 5 or not induced.is_tree():
        return False
    centers = [v for v in verts if induced.degree(v) == 3]
    if len(centers) != 1:
        return False
    return _branch_lengths(induced, centers[0]) == [1, 2, 2]


def brute_has_e6(graph):
    """Oracle: try every 6-vertex subset for an induced E6 (C(n, 6) subsets)."""
    return any(_induced_is_e6(graph, sub)
               for sub in itertools.combinations(graph.vertices, 6))


def tree_graph(n, edges):
    return IntersectionGraph(tuple(f"v{i}" for i in range(n)),
                             frozenset(frozenset((f"v{a}", f"v{b}")) for a, b in edges))


def tree_system(n, edges):
    return CurveSystem([f"v{i}" for i in range(n)],
                       [Crossing(f"x{k}", (f"v{a}", f"v{b}")) for k, (a, b) in enumerate(edges)])


def prufer_edges(seq, n):
    """The labelled tree on 0..n-1 with Pruefer sequence seq."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (u for u in range(n) if degree[u] == 1)
    return edges + [(u, w)]


def broom_edges(n, handle):
    """A path v0..v(handle-1) whose last vertex carries the remaining n - handle leaves."""
    return [(i, i + 1) for i in range(handle - 1)] + [(handle - 1, i) for i in range(handle, n)]


def d_edges(n):
    """D_n: a path v0..v(n-2) with a second leaf v(n-1) on v1."""
    return [(i, i + 1) for i in range(n - 2)] + [(1, n - 1)]


def test_e6_criterion_matches_brute_force_on_all_small_trees():
    count = 0
    for n in range(1, 8):
        for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
            graph = tree_graph(n, prufer_edges(seq, n) if n > 1 else [])
            assert graph.is_tree()
            assert has_induced_e6(graph) == brute_has_e6(graph), (n, seq)
            count += 1
    assert count == sum(n ** (n - 2) for n in range(2, 8)) + 1


def test_e6_criterion_matches_brute_force_on_random_and_named_trees():
    rng = random.Random(20251017)
    cases = []
    for n in range(8, 11):
        for _ in range(40):
            cases.append((n, prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)))
        cases.append((n, [(i, i + 1) for i in range(n - 1)]))
        cases.append((n, d_edges(n)))
        cases += [(n, broom_edges(n, h)) for h in range(1, n)]
    core = intersection_graph(e6_a7_core())
    graphs = [tree_graph(n, edges) for n, edges in cases] + [core]
    assert any(brute_has_e6(g) for g in graphs) and not all(brute_has_e6(g) for g in graphs)
    for graph in graphs:
        assert has_induced_e6(graph) == brute_has_e6(graph), sorted(map(sorted, graph.edges))


def test_e6_criterion_refuses_non_trees():
    with pytest.raises(UnsupportedTypeError):
        has_induced_e6(intersection_graph(triangle()))


def test_e_arboreal_is_linear_time():
    # The exhaustive search needed C(n, 6) subsets; these are far out of its reach.
    start = time.perf_counter()
    assert not is_e_arboreal(chain(1000))
    assert not is_e_arboreal(tree_system(1000, broom_edges(1000, 3)))
    path_with_leaf = [(i, i + 1) for i in range(998)] + [(500, 999)]
    assert is_e_arboreal(tree_system(1000, path_with_leaf))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"is_e_arboreal on 1000 curves took {elapsed:.2f}s"


def test_dynkin_graph_shapes():
    g = intersection_graph(dynkin("A5"))
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2, 2, 2]
    g = intersection_graph(dynkin("E6"))
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 2, 2, 3]
    with pytest.raises(UnsupportedTypeError):
        dynkin("F4")


def test_single_curve_is_annulus():
    inv = neighborhood_invariants(CurveSystem(["a"]))
    assert (inv.euler, inv.boundary, inv.genus) == (0, 2, 0)


def test_a2_invariants():
    inv = neighborhood_invariants(chain(2))
    assert (inv.euler, inv.boundary, inv.genus) == (-1, 1, 1)


def test_chain_pattern():
    # Frozen from hand-enumerated boundary walks: chi = -(n-1),
    # b alternates 2, 1 with parity, g = floor(n/2).
    for n in range(1, 13):
        inv = neighborhood_invariants(chain(n))
        assert inv.euler == -(n - 1)
        assert inv.boundary == (2 if n % 2 == 1 else 1)
        assert inv.genus == n // 2


def test_e6_invariants():
    inv = neighborhood_invariants(dynkin("E6"))
    assert (inv.euler, inv.boundary, inv.genus) == (-5, 1, 3)


def test_core_invariants_and_spanning():
    core = e6_a7_core()
    inv = neighborhood_invariants(core)
    assert (inv.euler, inv.boundary, inv.genus) == (-12, 2, 6)
    assert is_spanning(core, (6, 2))
    assert is_e_arboreal(core)
    assert not is_spanning(core, (6, 1))


def test_spanning_examples():
    assert is_spanning(dynkin("E6"), (3, 1))
    assert not is_spanning(chain(2), (1, 2))


def test_euler_always_counts_crossings():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 10)
        sys_ = chain(n)
        assert neighborhood_invariants(sys_).euler == -len(sys_.crossings)


def test_relabel_and_rotate_invariance():
    core = e6_a7_core()
    ren = {c: f"curve_{i}" for i, c in enumerate(core.curves)}
    inv0 = neighborhood_invariants(core)
    inv1 = neighborhood_invariants(core.relabeled(ren))
    assert inv0 == inv1
    # Rotating a cyclic ribbon sequence changes nothing.
    rib = {c: core.ribbon[c][1:] + core.ribbon[c][:1] for c in core.curves}
    rotated = CurveSystem(core.curves, core.crossings, ribbon=rib)
    assert neighborhood_invariants(rotated) == inv0


def test_triangle_needs_ribbon():
    no_ribbon = CurveSystem(
        ["a", "b", "c"],
        [Crossing("x", ("a", "b")), Crossing("y", ("b", "c")),
         Crossing("z", ("c", "a"))])
    with pytest.raises(RibbonError):
        neighborhood_invariants(no_ribbon)
    inv = neighborhood_invariants(triangle())
    assert inv.euler == -3


def test_two_point_pair_storable_with_ribbon():
    # Pairs meeting twice are legal containers; only graph predicates refuse.
    bigon = CurveSystem(
        ["a", "b"],
        [Crossing("x", ("a", "b"), 1), Crossing("y", ("a", "b"), -1)],
        ribbon={"a": ("x", "y"), "b": ("x", "y")})
    with pytest.raises(NotSimpleError):
        intersection_graph(bigon)
    inv = neighborhood_invariants(bigon)
    assert inv.euler == -2
    assert 2 - 2 * inv.genus - inv.boundary == -2


def test_disconnected_handling():
    sys_ = CurveSystem(["a", "b", "c"], [Crossing("x", ("a", "b"))])
    for _ in range(2):  # an error is not cached: each call raises again
        with pytest.raises(DisconnectedError, match="^system has 2 components$"):
            neighborhood_invariants(sys_)


def _random_forest(rng, sizes):
    """Random trees of the given sizes on one curve set, with random signs and
    random explicit ribbon orders; returns the system and its edges."""
    n = sum(sizes)
    labels = rng.sample(range(n), n)
    edges, start = [], 0
    for size in sizes:
        for v in range(start + 1, start + size):
            edges.append((labels[rng.randrange(start, v)], labels[v]))
        start += size
    rng.shuffle(edges)
    xs = [Crossing(f"x{k}", (f"v{a}", f"v{b}") if rng.random() < 0.5 else (f"v{b}", f"v{a}"),
                   rng.choice((-1, 1)))
          for k, (a, b) in enumerate(edges)]
    ribbon = {f"v{v}": [] for v in range(n)}
    for x in xs:
        for c in x.curves:
            ribbon[c].append(x.ident)
    for seq in ribbon.values():
        rng.shuffle(seq)
    return CurveSystem([f"v{v}" for v in range(n)], xs, ribbon=ribbon), edges


def _tree_closed_form(n, edges):
    """(chi, b, g) = (-(n - 1), n + 1 - 2 nu, nu), nu the maximum matching of
    the tree: the intersection form on H_1 has rank 2 nu whatever the ribbon
    order and signs.  Greedy leaf matching finds nu."""
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order, parent = [0], {0: None}
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    matched, nu = set(), 0
    for u in reversed(order):
        p = parent[u]
        if p is not None and u not in matched and p not in matched:
            matched |= {u, p}
            nu += 1
    return -(n - 1), n + 1 - 2 * nu, nu


def test_neighborhood_of_random_trees_matches_the_closed_form():
    rng = random.Random(20261019)
    for _ in range(2000):
        n = rng.randint(1, 25)
        sys_, edges = _random_forest(rng, [n])
        assert tuple(neighborhood_invariants(sys_)) == _tree_closed_form(n, edges), edges


def test_random_forests_name_their_tree_count():
    rng = random.Random(14)
    for _ in range(200):
        sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 5))]
        sys_, _ = _random_forest(rng, sizes)
        with pytest.raises(DisconnectedError, match=f"^system has {len(sizes)} components$"):
            neighborhood_invariants(sys_)
        assert intersection_graph(sys_).component_count == len(sizes)


def test_parse_round_trip():
    text = """
    curves a b c
    ambient 1 2
    intersections
    x a b 1
    y b c -1
    """
    sys_ = parse_curve_system(text)
    assert sys_.curves == ("a", "b", "c")
    assert sys_.ambient == (1, 2)
    assert sys_.crossing("y").sign == -1
    inv = neighborhood_invariants(sys_)
    assert (inv.euler, inv.boundary, inv.genus) == (-2, 2, 1)


def test_parse_with_ribbon():
    text = """
    curves a b c
    intersections
    x a b
    y b c
    z c a
    ribbon a x z
    ribbon b x y
    ribbon c y z
    """
    sys_ = parse_curve_system(text)
    assert sys_.ribbon_given
    assert neighborhood_invariants(sys_).euler == -3

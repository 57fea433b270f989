"""Tests of the benchmark itself: python -m pytest bench

They check, at the current commit, that tracing leaves every op's stdout
byte-identical, that every op outside the known-defect list passes its
oracle, and that the oracles agree with brute force where it is cheap.
"""

import itertools
import json
import random

import pytest

import oracle as orc
import run
import spans
import workloads as wl

CLI = run.import_cli()
SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def _round(workload, files, index=0, seed=7):
    ops = wl.make_round(workload, seed, index, files)
    if workload == "report-deep":  # the two smallest strata keep the test short
        ops = sorted(ops, key=lambda op: op.size["steps"])[:2]
    return ops


def _run(ops, tracer=None):
    results, cal = [], run.Calibration()
    if tracer:
        tracer.install()
    try:
        run.run_round(CLI, ops, results, cal, tracer, keep_output=True)
    finally:
        if tracer:
            tracer.uninstall()
    cal.scale(results)
    return results


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tracing_keeps_stdout_and_every_op_passes(workload, tmp_path):
    files = wl.Files(tmp_path)
    ops = [op for i in range(5 if workload == "toolkit" else 1)
           for op in _round(workload, files, i)]
    plain = _run(ops)
    tracer = spans.Tracer()
    traced = _run(ops, tracer)
    assert [r.out for r in plain] == [r.out for r in traced]
    failures = [(r.argv, r.reason) for r in plain + traced
                if not r.passed and not r.known_defect]
    assert failures == []
    roots = [s for s in tracer.spans if s[spans.PARENT] == -1]
    assert len(roots) == len(ops) and {s[spans.LAYER] for s in roots} == {"cli"}
    assert set(run.end_to_end(plain, 0.04)) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(run.per_layer(tracer, traced, plain)) == {m["name"] for m in SPEC["per_layer"]}


def test_toolkit_rounds_cycle_through_every_known_defect(tmp_path):
    files = wl.Files(tmp_path)
    kinds = {op.known_defect for i in range(len(wl.KNOWN_DEFECTS))
             for op in _round("toolkit", files, i) if op.known_defect}
    assert kinds == set(wl.KNOWN_DEFECTS)


def test_rounds_depend_only_on_seed_and_index(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _round("report-deep", wl.Files(tmp_path / "a"), 3)
    b = _round("report-deep", wl.Files(tmp_path / "b"), 3)
    assert [op.argv[3:] for op in a] == [op.argv[3:] for op in b]
    assert [open(op.argv[2]).read() for op in a] == [open(op.argv[2]).read() for op in b]


def test_tracer_uninstall_restores_every_binding():
    import rspin.assemblage
    import rspin.picard
    before = (rspin.assemblage.jet_splitting_certificate, rspin.picard.jet_splitting_certificate)
    tracer = spans.Tracer()
    tracer.install()
    assert rspin.assemblage.jet_splitting_certificate is not before[0]
    tracer.uninstall()
    assert (rspin.assemblage.jet_splitting_certificate,
            rspin.picard.jet_splitting_certificate) == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [[0, 0, -1, "cli", "main", 0, 100, False, None],
                    [0, 1, 0, "curveconf", "is_e_arboreal", 10, 70, False, None],
                    [0, 2, 1, "curveconf", "is_arboreal", 20, 30, False, None]]
    totals = tracer.layer_totals()
    assert totals["cli"] == [40, 1, 0] and totals["curveconf"] == [60, 2, 0]
    assert tracer.inclusive_ns({"is_e_arboreal", "is_arboreal"}) == 60


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_cli()
    assert exc.value.code != 0


# -- the oracles against brute force -------------------------------------------------


def _brute_e6(n, edges):
    """Some 6-vertex subtree is the E6 tree: arms of 1, 2 and 2 edges from one centre."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for sub in itertools.combinations(range(n), 6):
        s = set(sub)
        deg = {v: len(adj[v] & s) for v in s}
        if sum(deg.values()) != 10 or sorted(deg.values()) != [1, 1, 1, 2, 2, 3]:
            continue
        seen, stack = {sub[0]}, [sub[0]]
        while stack:
            for w in adj[stack.pop()] & s - seen:
                seen.add(w)
                stack.append(w)
        centre = next(v for v in s if deg[v] == 3)
        arms = sorted(1 + (deg[w] == 2) for w in adj[centre] & s)
        if seen == s and arms == [1, 2, 2]:
            return True
    return False


def test_e6_criterion_matches_brute_force():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(6, 10)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        assert orc.has_e6(n, edges) == _brute_e6(n, edges)


def test_tree_invariants_on_known_cores():
    assert orc.tree_invariants(13, [(i, i + 1) for i in range(6)]
                               + [(7 + i, 8 + i) for i in range(4)]
                               + [(9, 12), (12, 3)]) == (-12, 2, 6)  # e6a7 core
    assert orc.tree_invariants(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]) == (-5, 1, 3)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_arf_census_formula_matches_brute_force(g):
    arf0 = sum(sum(v[2 * i] * v[2 * i + 1] for i in range(g)) % 2 == 0
               for v in itertools.product((0, 1), repeat=2 * g))
    assert orc.census_check(g)(0, f"genus={g}\narf0={arf0}\narf1={4 ** g - arf0}", "") is None

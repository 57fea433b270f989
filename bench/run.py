"""rspin benchmark: one closed-loop client calling the CLI in-process.

    python3 bench/run.py --workload report-grid --seed 1 --seconds 30 --trace 0

The client calls rspin.cli.main(argv) with stdout captured, one op after the
other with no think time, in one thread of one process.  Inputs come from the
seed; every output is checked against bench/oracle.py, which does not import
rspin.  Whole rounds of ops run until the next would pass --seconds.  Op
times are scaled to a reference machine speed (see Calibration).

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round twice,
untraced and with every public layer function wrapped (bench/spans.py),
checks that stdout is byte-identical, and prints the per-layer metrics; the
spans go to bench/.out/.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.  bench/WORKLOADS.md describes the design.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
sys.path.insert(0, str(HERE))

import spans as tr  # noqa: E402
import oracle as orc  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_RUNS = 15
GROUPS = ("report", "lattice", "config", "assemblage", "milnor", "winding", "braid")


def import_cli():
    """rspin.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "rspin" / "cli.py").is_file():
        raise SystemExit(f"error: no rspin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from rspin import cli
    if Path(cli.__file__).resolve().parent != SRC / "rspin":
        raise SystemExit(f"error: imported rspin from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median time to import rspin.cli in a fresh interpreter, bytecode cached.

    The first import is untimed; it writes the bytecode cache.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import rspin.cli; print(time.perf_counter() - t)")
    times = []
    for i in range(SETUP_RUNS + 1):
        res = subprocess.run([sys.executable, "-E", "-s", "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(res.stdout))
    return statistics.median(times)


@dataclass(slots=True)
class Result:
    """One op's outcome.  It keeps no reference to the Op (whose oracle holds
    the expected output), and untraced runs drop the captured text once
    checked, so the benchmark's own memory barely grows with the op count
    and peak_rss_mb reflects the program."""

    argv: Optional[list]
    group: str
    known_defect: str
    ns: int
    rc: Optional[int]
    out: Optional[str]
    err: Optional[str]
    exc: Optional[BaseException] = None
    reason: Optional[str] = None
    cal_index: int = 0  # the calibration sample taken last before the op
    scaled_ns: float = 0.0  # ns at the reference speed, see Calibration

    @property
    def passed(self) -> bool:
        return self.reason is None


def run_op(cli, op: wl.Op, tracer: Optional[tr.Tracer]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                tracer.op_id += 1
                rc = tracer.call("cli", "main", cli.main, (op.argv,), {}, op.size)
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    except Exception as e:  # an uncaught exception fails the op; the loop goes on
        rc, exc = None, e
    ns = perf_counter_ns() - t0
    return Result(op.argv, op.group, op.known_defect, ns, rc, out.getvalue(), err.getvalue(),
                  exc)


def check(res: Result, oracle: orc.Check) -> None:
    if res.exc is not None:
        res.reason = f"uncaught {type(res.exc).__name__}: {res.exc}"
        return
    try:
        res.reason = oracle(res.rc, res.out, res.err)
    except (KeyError, ValueError, IndexError) as exc:  # output the oracle cannot read
        res.reason = f"malformed output: {exc!r}"


class Calibration:
    """Speed of this shared machine, sampled between ops.

    The host gives the process a speed that drifts by 10-40 % within
    seconds, so the same op can take 1.1 s or 1.5 s.  Two fixed stdlib loops
    slow with it the way rspin's ops do: building and running an argparse
    parser (what dominates a small CLI call) and Fraction elimination (the
    exact arithmetic of picard and milnor).  A sample, the geometric mean of
    their times, is taken before an op once CALIBRATE_EVERY_NS of busy time
    has passed, so long ops are bracketed tightly.  Each op's time is scaled
    by NOMINAL_NS over the mean of the two samples around it, which reports
    it at one reference speed.  No rspin code runs in the loops, so a change
    to rspin cannot move them.
    """

    NOMINAL_NS = 1_450_000  # the typical sample on the 2-core reference host
    CALIBRATE_EVERY_NS = 100_000_000

    def __init__(self):
        self.samples: list[float] = []
        self._since = self.CALIBRATE_EVERY_NS

    @staticmethod
    def _argparse():
        parser = argparse.ArgumentParser(prog="calibrate")
        sub = parser.add_subparsers(dest="command", required=True)
        for i in range(9):
            p = sub.add_parser(f"cmd{i}", help="calibration")
            p.add_argument("arg")
            p.add_argument("--k", type=int)
            p.add_argument("--format", choices=("human", "machine"), default="human")
        parser.parse_args(["cmd3", "v", "--k", "4", "--format", "machine"])

    @staticmethod
    def _fractions():
        rows = [[Fraction(i * j + 1, i + j + 1) for j in range(8)] for i in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                f = rows[j][i] / rows[i][i]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[i])]

    def sample(self) -> None:
        gc.disable()  # keep the heap the ops leave behind out of the sample
        try:
            times = []
            for loop in (self._argparse, self._fractions):
                t0 = perf_counter_ns()
                loop()
                times.append(perf_counter_ns() - t0)
        finally:
            gc.enable()
        self.samples.append(math.sqrt(times[0] * times[1]))
        self._since = 0

    def before_op(self) -> int:
        if self._since >= self.CALIBRATE_EVERY_NS:
            self.sample()
        return len(self.samples) - 1

    def after_op(self, ns: int) -> None:
        self._since += ns

    def scale(self, results) -> None:
        """Set scaled_ns on every result; call once, after the timed rounds."""
        self.sample()  # closes the bracket of the last ops
        for r in results:
            around = self.samples[r.cal_index] + self.samples[r.cal_index + 1]
            r.scaled_ns = r.ns * self.NOMINAL_NS / (around / 2)


def run_round(cli, ops, results: list, cal: Calibration, tracer=None,
              keep_output: bool = False) -> int:
    """Run one round, check it, append the results; return the busy ns.

    Busy time counts only the CLI calls, not input generation, calibration
    or checks.  keep_output keeps stdout for comparing traced runs.
    """
    batch = []
    for op in ops:
        k = cal.before_op()
        batch.append(run_op(cli, op, tracer))
        batch[-1].cal_index = k
        cal.after_op(batch[-1].ns)
    for r, op in zip(batch, ops):
        check(r, op.check)
        if not keep_output:
            r.out = r.err = r.exc = None
            if r.passed:
                r.argv = None
    results += batch
    return sum(r.ns for r in batch)


def closed_loop(rounds, seconds: float, run) -> int:
    """Call run(ops) -> busy ns on whole rounds until the next would likely
    pass `seconds`; return the number of rounds run."""
    busy = n = 0
    for ops in rounds:
        busy += run(ops)
        n += 1
        if busy + busy / n > seconds * 1e9:
            break
    return n


def percentile_ms(results, q: float, raw: bool = False) -> float:
    """Nearest-rank percentile of scaled (or raw) op times; an op that failed
    counts as slower than all others."""
    vals = sorted((r.ns if raw else r.scaled_ns) / 1e6 if r.passed else math.inf
                  for r in results)
    return vals[max(0, math.ceil(q * len(vals)) - 1)]


def speed_factor(results) -> float:
    return sum(r.scaled_ns for r in results) / sum(r.ns for r in results)


def is_failure(res: Result) -> bool:
    return not res.passed and not res.known_defect


def summarize(workload, seed, results, n_rounds) -> None:
    failed = sum(map(is_failure, results))
    probes = [r for r in results if r.known_defect]
    beyond = len(results) - math.ceil(0.9 * len(results))
    print(f"# {workload} seed={seed} rounds={n_rounds} ops={len(results)} failed={failed} "
          f"failed_ratio={failed / len(results):.4f} "
          f"known_defects_failing={sum(not r.passed for r in probes)}/{len(probes)} "
          f"p90_samples={len(results)} beyond_p90={beyond}")
    print(f"# wall time: {sum(r.ns for r in results) / 1e9:.3f} s busy, "
          f"op_p50 {percentile_ms(results, 0.5, raw=True):.4f} ms, "
          f"op_p90 {percentile_ms(results, 0.9, raw=True):.4f} ms; "
          f"speed factor {speed_factor(results):.4f}")
    for r in [r for r in results if not r.passed][:10]:
        tag = f"known defect {r.known_defect}" if r.known_defect else "FAILED"
        print(f"{tag}: {' '.join(r.argv)}: {r.reason}", file=sys.stderr)


def group_p50(results) -> dict:
    out = {}
    for g in GROUPS:
        rs = [r for r in results if r.group == g]
        out[f"{g}_p50_ms"] = (percentile_ms(rs, 0.5) if rs else 0.0, "ms")
    return out


def end_to_end(results, setup_s) -> dict:
    passed = sum(r.passed for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed / (sum(r.scaled_ns for r in results) / 1e9), "1/s"),
        "op_p50_ms": (percentile_ms(results, 0.5), "ms"),
        "op_p90_ms": (percentile_ms(results, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tr.Tracer, traced, plain) -> dict:
    """Per-layer figures of the traced rounds, averaged over their ops and
    scaled by the traced ops' mean speed factor."""
    per_op = lambda v: v / len(traced)  # noqa: E731
    scale = speed_factor(traced)
    m = {}
    for layer, (self_ns, calls, errors) in tracer.layer_totals().items():
        m[f"{layer}.busy_s"] = (per_op(self_ns * scale / 1e9), "s/op")
        m[f"{layer}.calls"] = (per_op(calls), "count/op")
        m[f"{layer}.errors"] = (per_op(errors), "count/op")

    def secs(*names):
        return per_op(tracer.inclusive_ns(set(names)) * scale / 1e9), "s/op"

    steps = tracer.attr_sum("certify", "steps")
    certs = [s for s in tracer.spans if s[tr.NAME] == "jet_splitting_certificate"]
    probes = [r for r in plain if r.known_defect]
    m.update({
        "curveconf.e6_search_s": secs("is_e_arboreal"),
        "curveconf.e6_curves": (per_op(tracer.attr_sum("is_e_arboreal", "curves")), "count/op"),
        "curveconf.neighborhood_s": secs("neighborhood_invariants"),
        "assemblage.build_s": secs("smoothing_assemblage"),
        "assemblage.certify_s": secs("certify"),
        "assemblage.parse_s": secs("parse_assemblage"),
        "assemblage.steps_folded": (per_op(steps), "count/op"),
        "assemblage.us_per_step": (tracer.self_ns("certify") * scale / 1e3 / steps
                                   if steps else 0.0, "us"),
        "picard.lattice_s": secs("resolve_lattice", "catalog_lattice", "parse_lattice"),
        "picard.certificate_s": secs("jet_splitting_certificate"),
        "picard.certified_ratio": (sum(s[tr.ATTRS]["certified"] for s in certs) / len(certs)
                                   if certs else 0.0, "ratio"),
        "milnor.number_s": secs("milnor_number"),
        "milnor.truncation_sum": (per_op(tracer.attr_sum("milnor_number", "truncation")),
                                  "count/op"),
        "milnor.mu_sum": (per_op(tracer.attr_sum("milnor_number", "mu")), "count/op"),
        "winding.census_s": secs("enumerate_forms"),
        "winding.act_s": secs("act"),
        "braidcalc.psi_s": secs("psi"),
        "braidcalc.plan_s": secs("correction_plan"),
        "trace.overhead_ratio": (sum(r.ns for r in traced) / sum(r.ns for r in plain),
                                 "ratio"),
        "known_defects.failing_ratio": (sum(not r.passed for r in probes) / len(probes)
                                        if probes else 0.0, "ratio"),
    })
    m.update(group_p50(plain))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_cli()
    setup_s = measure_setup()

    inputs = OUT / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        files = wl.Files(inputs)

        def rounds(start=0):
            i = start
            while True:
                yield wl.make_round(args.workload, args.seed, i, files)
                i += 1

        # Warm-up: lazy imports and first-call costs.
        closed_loop(rounds(-1), 0.3, lambda ops: run_round(cli, ops, [], Calibration()))
        gc.collect()
        cal = Calibration()
        if not args.trace:
            results = []
            n = closed_loop(rounds(), args.seconds,
                            lambda ops: run_round(cli, ops, results, cal))
            cal.scale(results)
            summarize(args.workload, args.seed, results, n)
            failed = sum(map(is_failure, results))
            metrics = end_to_end(results, setup_s)
            for name, (value, _) in group_p50(results).items():
                if value:
                    print(f"# {name}={value:.4f}")
        else:
            # Each round runs untraced and traced, alternating which goes first:
            # a round's second run is faster, traced or not.
            plain, traced, turn = [], [], [0]
            tracer = tr.Tracer()

            def run_traced(ops):
                tracer.install()
                try:
                    return run_round(cli, ops, traced, cal, tracer, keep_output=True)
                finally:
                    tracer.uninstall()

            def both(ops):
                turn[0] += 1
                busy = run_traced(ops) if turn[0] % 2 == 0 else 0
                busy += run_round(cli, ops, plain, cal, keep_output=True)
                return busy + (run_traced(ops) if turn[0] % 2 else 0)

            n = closed_loop(rounds(), args.seconds, both)
            cal.scale(plain + traced)
            summarize(args.workload, args.seed, plain, n)
            mismatched = 0
            for a, b in zip(plain, traced):
                if a.out != b.out:
                    mismatched += 1
                    print(f"FAILED: traced stdout differs: {' '.join(a.argv)}",
                          file=sys.stderr)
            results = plain + traced
            failed = sum(map(is_failure, results)) + mismatched
            metrics = per_layer(tracer, traced, plain)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                "ops": len(traced), "rounds": n,
                                "speed_factor": speed_factor(traced)})
            print(f"# spans: {len(tracer.spans)} written to {path.relative_to(HERE.parent)}")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

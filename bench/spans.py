"""Span recorder that wraps rspin's public functions from outside the package.

Each wrapped call becomes a span (op id, span id, parent span, layer, name,
start and end in ns, whether it raised, size attributes).  Spans stay in
memory and are written out once, when the run ends.  Per-step functions such
as apply_step and intersect are never wrapped; step counts come from the
arguments of certify instead.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

LAYERS = ("cli", "picard", "curveconf", "winding", "assemblage", "milnor", "braidcalc")


def _steps(args, result):
    return {"steps": len(args[0].steps)}


def _curves(args, result):
    return {"curves": len(args[0].curves)}


# layer -> function name -> size attributes taken from (args, result), or None.
WRAPPED = {
    "picard": {"resolve_lattice": None, "catalog_lattice": None, "parse_lattice": None,
               "jet_splitting_certificate":
                   lambda args, res: {"certified": int(res is not None)},
               "adjoint_and_root": None, "genus_of_section": None,
               "smoothed_genus": None, "lefschetz_full_decision": None},
    "curveconf": {"is_e_arboreal": _curves, "is_arboreal": None,
                  "neighborhood_invariants": _curves, "is_spanning": None,
                  "parse_curve_system": None, "chain": None, "dynkin": None,
                  "e6_a7_core": None},
    "winding": {"enumerate_forms": None, "act": None, "is_admissible": None},
    "assemblage": {"monodromy_report": None,
                   "smoothing_assemblage": lambda args, res: {"steps": len(res[0].steps)},
                   "certify": _steps, "verify_core": None, "parse_assemblage": None,
                   "capping_order": None},
    "milnor": {"milnor_number": lambda args, res: {"truncation": res.truncation,
                                                   "mu": res.mu},
               "jet_requirement": None},
    "braidcalc": {"psi": None, "correction_plan": None, "parse_word": None,
                  "render_word": None},
}

# Span record fields.
OP, SID, PARENT, LAYER, NAME, T0, T1, ERR, ATTRS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, layer, name, fn, args, kwargs, attrs=None):
        rec = [self.op_id, len(self.spans), self._stack[-1] if self._stack else -1,
               layer, name, 0, 0, False, None]
        self.spans.append(rec)
        self._stack.append(rec[SID])
        rec[T0] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[ERR] = True
            raise
        finally:
            rec[T1] = perf_counter_ns()
            self._stack.pop()
        if attrs is not None:
            rec[ATTRS] = attrs(args, result) if callable(attrs) else attrs
        return result

    def _wrap(self, layer, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, attrs)
        return wrapper

    def install(self) -> None:
        """Patch each wrapped name in every rspin module that binds it.

        assemblage and the package root import names from picard and
        curveconf, so patching only the defining module would miss calls.
        """
        modules = [m for n, m in sys.modules.items() if n == "rspin" or n.startswith("rspin.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"rspin.{layer}"]
            for name, attrs in names.items():
                fn = getattr(home, name)
                wrapper = self._wrap(layer, name, fn, attrs)
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    # -- aggregation ------------------------------------------------------------

    def _child_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[T1] - s[T0]
        return child

    def layer_totals(self) -> dict:
        """layer -> [self ns, calls, errors]; self time excludes child spans."""
        child = self._child_ns()
        out = {layer: [0, 0, 0] for layer in LAYERS}
        for s in self.spans:
            tot = out[s[LAYER]]
            tot[0] += s[T1] - s[T0] - child[s[SID]]
            tot[1] += 1
            tot[2] += int(s[ERR])
        return out

    def self_ns(self, name) -> int:
        child = self._child_ns()
        return sum(s[T1] - s[T0] - child[s[SID]] for s in self.spans if s[NAME] == name)

    def outermost(self, names) -> list:
        """Spans named in `names` with no ancestor also named in `names`."""
        out = []
        for s in self.spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(s)
        return out

    def inclusive_ns(self, names) -> int:
        return sum(s[T1] - s[T0] for s in self.outermost(names))

    def attr_sum(self, name, key) -> int:
        return sum(s[ATTRS][key] for s in self.spans if s[NAME] == name and s[ATTRS])

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("op", "id", "parent", "layer", "name", "start_ns", "end_ns",
                     "error", "size"), s))) + "\n")

"""Exact winding-number calculus on surfaces, assemblage generation
certificates, Picard-lattice adjunction arithmetic, Milnor numbers of plane
germs, and the abelianized simple-braid calculus, joined into end-to-end
monodromy reports.

Importing the package runs none of the six layers.  Each sits in sys.modules
and as a package attribute from the start, but its body runs on its first
attribute access, so a command loads only the layers it calls.  The names in
`_EXPORTS` resolve through the module `__getattr__` (PEP 562), so looking one
up runs only its own layer.
"""

import importlib.util
import sys

from . import errors  # not a layer: the error and record types every command uses

# layer -> the names the package re-exports from it.
_EXPORTS = {
    "picard": ("AdjointReport", "DivisorClass", "JetLedger", "JetSplitting", "PicardLattice",
               "adjoint_and_root", "catalog_lattice", "catalog_names", "genus_of_section",
               "intersect", "jet_compose", "jet_splitting_certificate",
               "lefschetz_full_decision", "smoothed_genus"),
    "curveconf": ("Crossing", "CurveSystem", "IntersectionGraph", "NeighborhoodInvariants",
                  "chain", "dynkin", "e6_a7_core", "intersection_graph", "is_arboreal",
                  "is_e_arboreal", "is_spanning", "neighborhood_invariants"),
    "winding": ("HomologyCurve", "QuadraticFormMod2", "TwistWord", "WindingContext",
                "WindingFunction", "act", "coherence_check", "enumerate_forms",
                "is_admissible", "orbit_gcd", "reduce_mod", "twist_value"),
    "assemblage": ("Assemblage", "AssemblageState", "AssemblageStep", "FramingCertificate",
                   "ReportDocument", "apply_step", "capping_order", "certify",
                   "monodromy_report", "smoothing_assemblage", "verify_core"),
    "milnor": ("MilnorResult", "PlaneGerm", "jacobian", "jet_requirement", "milnor_number",
               "morsification_reference"),
    "braidcalc": ("BraidGenerator", "CorrectionPlan", "PsiImage", "boundary_twist",
                  "correction_plan", "homology_trace", "in_stabilizer", "meridian",
                  "point_push", "psi", "stabilizer_element"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, "errors", *_HOME]
__version__ = "0.1.0"

# Importers before the layers they import from: code that walks sys.modules
# and replaces a layer's functions then runs each importer while it still
# binds the originals.
for _layer in reversed(_EXPORTS):
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_layer] = _module
del _layer, _spec, _module


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *_HOME]

"""Value records are validated named tuples, `import rspin.cli` stays light, and the
package re-exports each layer's names while running no layer until first use."""

import ast
import os
import subprocess
import sys

import pytest

from rspin.assemblage import AssemblageStep
from rspin.braidcalc import BraidGenerator, PsiImage
from rspin.curveconf import Crossing, NeighborhoodInvariants
from rspin.errors import InconsistentInputError, ParityError, UnsupportedTypeError
from rspin.picard import JetLedger, PicardLattice, catalog_lattice
from rspin.winding import WindingContext

P2 = catalog_lattice("P2")[0]

# A valid record, fields that break it, and the error the break raises.
VALIDATING = [
    (P2, {"gram": ((-1,),)}, InconsistentInputError),
    (P2.divisor((1,)), {"coords": (1, 0)}, InconsistentInputError),
    (Crossing("x1", ("a", "b")), {"curves": ("a", "a")}, InconsistentInputError),
    (Crossing("x1", ("a", "b")), {"sign": 2}, InconsistentInputError),
    (NeighborhoodInvariants(-12, 2, 6), {"genus": 5}, InconsistentInputError),
    (WindingContext(4, 1), {"modulus": -1}, InconsistentInputError),
    (BraidGenerator("meridian", (1, 2)), {"indices": (2, 1)}, InconsistentInputError),
    (BraidGenerator("meridian", (1, 2)), {"kind": "twist"}, UnsupportedTypeError),
    (PsiImage((1, 1, 0)), {"vec": (1, 0, 0)}, ParityError),
    (AssemblageStep("t1", "merge", "a", other="b", new_names=("j",), new_values=(3,)),
     {"other": ""}, InconsistentInputError),
    (AssemblageStep("t2", "split", "a", new_names=("l", "r"), new_values=(1, 0)),
     {"new_names": ("l", "l")}, InconsistentInputError),
]


@pytest.mark.parametrize("record, bad, error", VALIDATING,
                         ids=[f"{type(r).__name__}-{next(iter(b))}" for r, b, _ in VALIDATING])
def test_record_rejects_a_bad_field_on_every_route(record, bad, error):
    fields = {**record._asdict(), **bad}
    with pytest.raises(error):
        type(record)(**fields)
    with pytest.raises(error):
        type(record)(*fields.values())
    with pytest.raises(error):
        record._replace(**bad)
    with pytest.raises(error):
        type(record)._make(fields.values())
    assert record._replace() == record


def test_divisor_class_is_a_ledger_key_and_scales_from_either_side():
    h = P2.divisor((1,))
    ledger = JetLedger()
    ledger.declare(h, 1)
    assert ledger.level(P2.divisor((1,))) == 1
    assert ledger.level(catalog_lattice("K3-4")[0].divisor((1,))) is None
    assert h * 3 == 3 * h and (h * 3).coords == (3,) and len(h * 3) == 2
    assert h * 3 + h - 2 * h == -(-h * 2)


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` in a new interpreter importing rspin from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys; sys.path.insert(0, sys.argv[1])\n" + code
    return subprocess.run([sys.executable, "-E", "-s", "-c", code, os.path.abspath(src)],
                          capture_output=True, text=True, check=True, timeout=60).stdout


def test_import_cli_loads_no_class_generating_modules():
    code = "import rspin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "[]\n"


def test_import_cli_loads_no_argparse_until_the_first_parse():
    """argparse (with gettext) loads on the first parse, which still parses and
    still refuses a bad argv with the usage line and exit status 2."""
    code = """
import contextlib, io
import rspin.cli
loaded = sorted({"argparse", "gettext"} & set(sys.modules))
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    listed = rspin.cli.main(["catalog", "list"])
    try:
        rspin.cli.main(["report", "--surface", "P2", "--C", "7", "--D", "3", "--bogus"])
    except SystemExit as exc:
        refused = exc.code
print([loaded, listed, refused, err.getvalue().startswith("usage: rspin")])
"""
    assert ast.literal_eval(_fresh_interpreter(code)) == [[], 0, 2, True]


LAYERS = ("picard", "curveconf", "winding", "assemblage", "milnor", "braidcalc")


def test_layers_run_on_first_use():
    """`import rspin.cli` runs no layer and loads neither fractions nor decimal; a
    catalog list runs picard alone, and a catalog report never reaches milnor,
    braidcalc or fractions."""
    code = f"""
import contextlib, io, types
import rspin.cli

def state():
    ran = [n for n in {LAYERS!r} if type(sys.modules["rspin." + n]) is types.ModuleType]
    return ran, sorted({{"fractions", "decimal"}} & set(sys.modules))

states = [state()]
with contextlib.redirect_stdout(io.StringIO()):
    rspin.cli.main(["catalog", "list"])
    states.append(state())
    rspin.cli.main(["report", "--surface", "P2", "--C", "6", "--D", "1"])
states.append(state())
print(states)
"""
    assert ast.literal_eval(_fresh_interpreter(code)) == [
        ([], []),
        (["picard"], []),
        (["picard", "curveconf", "winding", "assemblage"], []),
    ]


# What the package re-exported from each layer when it ran them all on import.
EXPORTS = {
    "picard": """AdjointReport DivisorClass JetLedger JetSplitting PicardLattice
        adjoint_and_root catalog_lattice catalog_names genus_of_section intersect
        jet_compose jet_splitting_certificate lefschetz_full_decision smoothed_genus""",
    "curveconf": """Crossing CurveSystem IntersectionGraph NeighborhoodInvariants chain
        dynkin e6_a7_core intersection_graph is_arboreal is_e_arboreal is_spanning
        neighborhood_invariants""",
    "winding": """HomologyCurve QuadraticFormMod2 TwistWord WindingContext WindingFunction
        act coherence_check enumerate_forms is_admissible orbit_gcd reduce_mod
        twist_value""",
    "assemblage": """Assemblage AssemblageState AssemblageStep FramingCertificate
        ReportDocument apply_step capping_order certify monodromy_report
        smoothing_assemblage verify_core""",
    "milnor": """MilnorResult PlaneGerm jacobian jet_requirement milnor_number
        morsification_reference""",
    "braidcalc": """BraidGenerator CorrectionPlan PsiImage boundary_twist correction_plan
        homology_trace in_stabilizer meridian point_push psi stabilizer_element""",
}


def test_package_binds_the_same_objects_as_an_eager_import():
    import rspin

    for layer, names in EXPORTS.items():
        home = sys.modules[f"rspin.{layer}"]
        for name in names.split():
            ns = {}
            exec(f"from rspin import {name}", ns)
            assert ns[name] is getattr(home, name), (layer, name)
    star = {}
    exec("from rspin import *", star)
    del star["__builtins__"]
    public = {*EXPORTS, "errors", *" ".join(EXPORTS.values()).split()}
    assert set(star) == public and public <= set(dir(rspin))
    assert all(star[name] is sys.modules[f"rspin.{name}"] for name in (*EXPORTS, "errors"))
    with pytest.raises(AttributeError):
        rspin.no_such_name

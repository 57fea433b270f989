"""Value records are validated named tuples, and `import rspin.cli` stays light."""

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


def test_import_cli_loads_no_class_generating_modules():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rspin.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-E", "-s", "-c", code, os.path.abspath(src)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"

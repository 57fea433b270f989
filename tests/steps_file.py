"""Writer of the 100,000-step assemblage file the memory and speed checks read.

The file holds the steps of `smoothing_assemblage(25003, 0, 25004)` over the
e6a7 core.  The tests import `step_line` and `step_file_100k`; to write the
file, run (with rspin importable, installed or on PYTHONPATH):

    python tests/steps_file.py <out>
"""

import sys

from rspin.assemblage import CORE_VALUES, smoothing_assemblage


def step_line(step):
    """An `AssemblageStep` as a step line of the textual assemblage format."""
    if step.mode == "split":
        (n1, n2), (v1, v2) = step.new_names, step.new_values
        return f"step {step.curve} split {step.component} {n1} {v1} {n2} {v2}"
    return (f"step {step.curve} merge {step.component} {step.other} "
            f"{step.new_names[0]} {step.new_values[0]}")


def step_file_100k():
    """The 100,000-step file's text and the construction's expected final values."""
    asm, expected = smoothing_assemblage(25003, 0, 25004)
    assert len(asm.steps) == 100_000
    text = "\n".join(["ambient %d %d" % asm.ambient, "core e6a7"]
                     + [f"boundary {n} {v}" for n, v in CORE_VALUES]
                     + [step_line(step) for step in asm.steps]) + "\n"
    return text, expected


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/steps_file.py <out>")
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(step_file_100k()[0])

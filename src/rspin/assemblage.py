"""Assemblage engine: handle-attachment bookkeeping with winding propagation.

An assemblage starts from a core configuration whose regular neighborhood is
an E-arboreal spanning surface, then grows it by 1-handle steps, each the
attachment of a further curve meeting the current surface in a single arc.
The engine is schematic: it tracks (genus, boundary count, Euler
characteristic) and the boundary winding values, not embedded geometry.

Orientable 1-handle calculus: an arc with both endpoints on one boundary
component splits it (b+1, genus fixed), an arc joining two components merges
them (b-1, genus+1); either way chi drops by one.  Winding propagation
follows homological coherence: a merge of values v1, v2 yields v1 + v2 - 1,
a split of v yields a declared pair summing to v - 1 (the distribution is
step data, verified against the sum rule rather than derived).  The sum of
boundary values therefore equals chi at every stage, mod the context
modulus, with modulus 0 meaning framing-level integers.

The final two boundary values of the two-section construction are
chi(C) - d - 1 and chi(D) - d - 1; their capping order gcd(v_i + 1) is
insensitive to the overall orientation sign (see the repo docs for the
convention note).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .curveconf import (
    CurveSystem,
    chain,
    dynkin,
    e6_a7_core,
    intersection_graph,
    is_e_arboreal,
    neighborhood_invariants,
    parse_curve_system,
)
from .errors import (
    EmptyCapError,
    InconsistentInputError,
    InconsistentStepError,
    InternalInconsistencyError,
    Record,
    UnknownComponentError,
    int_token,
    read_lines,
)
from .picard import (
    DivisorClass,
    JetLedger,
    JetSplitting,
    adjoint_and_root,
    genus_of_section,
    intersect,
    jet_splitting_certificate,
    smoothed_genus,
)
from .winding import reduce_residue, residues_equal


class _StepFields(NamedTuple):
    curve: str
    mode: str  # "split" | "merge"
    component: str
    other: str = ""
    new_names: tuple[str, ...] = ()
    new_values: tuple[int, ...] = ()
    curve_winding: int = 0


class AssemblageStep(Record, _StepFields):
    """One 1-handle attachment, an immutable record.

    split: the attaching arc starts and ends on `component`, replacing its
    value v by the declared pair (v1, v2) with v1 + v2 = v - 1.
    merge: the arc joins `component` and `other`, replacing values (v1, v2)
    by the declared value v = v1 + v2 - 1.

    `assemblage run` builds none: it folds the bare field tuple of each step
    line as the line is read.  `parse_assemblage`, the stage patterns and
    `smoothing_assemblage` build and hold them all.
    """

    __slots__ = ()

    def _check(self):
        if self.mode == "split":
            if len(self.new_names) != 2 or len(self.new_values) != 2:
                raise InconsistentInputError(
                    f"step {self.curve}: split needs two new names and values")
            if self.new_names[0] == self.new_names[1]:
                raise InconsistentInputError(
                    f"step {self.curve}: split needs two distinct new names")
        elif self.mode == "merge":
            if not self.other:
                raise InconsistentInputError(
                    f"step {self.curve}: merge needs a second component")
            if len(self.new_names) != 1 or len(self.new_values) != 1:
                raise InconsistentInputError(
                    f"step {self.curve}: merge needs one new name and value")
        else:
            raise InconsistentInputError(f"unknown step mode {self.mode!r}")


class AssemblageState(NamedTuple):
    genus: int
    boundaries: tuple[tuple[str, int], ...]
    modulus: int = 0

    @property
    def b(self) -> int:
        return len(self.boundaries)

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus - self.b

    def value(self, name: str) -> int:
        for n, v in self.boundaries:
            if n == name:
                return v
        raise UnknownComponentError(f"no boundary component named {name!r}")

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.boundaries)

    def is_coherent(self) -> bool:
        return residues_equal(sum(self.values()), self.chi, self.modulus)

    def check_coherence(self) -> None:
        if not self.is_coherent():
            raise InternalInconsistencyError(
                f"coherence failed: sum {sum(self.values())} != chi {self.chi} "
                f"(mod {self.modulus})")


def _fold(
    state: AssemblageState,
    steps: Iterable[tuple],
) -> tuple[AssemblageState, bool]:
    """Attach `steps` to `state` in order, O(1) per step, reading them once.

    A step is an `AssemblageStep` or the bare tuple of its fields.  Returns
    the state reached and whether every attached curve carries winding zero
    (mod r).

    The boundary is an insertion-ordered name -> value map with a running
    value sum, so a step's lookup, name-reuse check, sum rule and coherence
    recheck (residues mod r taken inline) touch only the components it
    names; new components go last, as in `AssemblageState.boundaries`.  The
    sum rules keep (value sum - chi) fixed mod r, so coherence is rechecked
    on every step exactly when the entry state is coherent (standalone use
    on fabricated incoherent states is allowed); that entry check refuses a
    negative modulus.  Boundary names must be distinct, as `_core_state`
    requires of initial values.
    """
    r = state.modulus
    values = dict(state.boundaries)
    if len(values) != state.b:
        raise InconsistentInputError("boundary names must be distinct")
    genus, total = state.genus, sum(values.values())
    coherent = state.is_coherent()
    windings_zero = True
    for curve, mode, component, other, names, declared, winding in steps:
        if winding and (winding % r if r else winding):
            windings_zero = False
        old = values.pop(component, None)
        if old is None:
            raise UnknownComponentError(f"no boundary component {component!r}")
        if mode == "split":
            v1, v2 = (declared[0] % r, declared[1] % r) if r else declared
            if (v1 + v2 + 1 - old) % r if r else v1 + v2 + 1 != old:
                raise InconsistentStepError(
                    f"step {curve}: split values {declared} must sum to {old} - 1")
            n1, n2 = names
            if n1 in values or n2 in values:
                raise InconsistentStepError(
                    f"boundary name {n1 if n1 in values else n2!r} already in use")
            values[n1], values[n2] = v1, v2
            total += v1 + v2 - old
        else:
            v2 = values.pop(other, None)
            if v2 is None:
                if other == component:
                    raise InconsistentStepError(
                        f"step {curve}: merge needs two distinct components")
                raise UnknownComponentError(f"no boundary component {other!r}")
            (raw,) = declared
            merged = raw % r if r else raw
            if (merged + 1 - old - v2) % r if r else merged + 1 != old + v2:
                raise InconsistentStepError(
                    f"step {curve}: merge value {raw} must equal {old} + {v2} - 1")
            (name,) = names
            if name in values:
                raise InconsistentStepError(f"boundary name {name!r} already in use")
            values[name] = merged
            total += merged - old - v2
            genus += 1
        if coherent:
            chi = 2 - 2 * genus - len(values)
            if (total - chi) % r if r else total != chi:
                raise InternalInconsistencyError(
                    f"coherence failed: sum {total} != chi {chi} (mod {r})")
    return AssemblageState(genus, tuple(values.items()), r), windings_zero


def apply_step(state: AssemblageState, step: AssemblageStep) -> AssemblageState:
    """Attach one 1-handle; verifies the sum rule and preserves coherence.

    The local sum rules force the value sum to drop by one alongside chi, so
    a coherent state stays coherent; the engine re-checks that whenever the
    state it starts from is coherent.
    """
    return _fold(state, (step,))[0]


class Assemblage(NamedTuple):
    core: CurveSystem
    steps: tuple[AssemblageStep, ...]
    ambient: tuple[int, int]
    modulus: int = 0


class CoreReport(NamedTuple):
    genus: int
    boundary: int
    chi: int
    type_e: bool


def verify_core(core: CurveSystem) -> CoreReport:
    """Check the core is a simple E-arboreal configuration; report its genus.

    A core spans its own regular neighborhood by construction, so the
    spanning requirement is the neighborhood computation itself; failures
    (non-simple pairs, disconnected unions) surface as structured errors.
    The core keeps its graph and invariants; a re-check runs only the E6 test.
    """
    intersection_graph(core)  # not-simple error if any pair meets twice
    inv = neighborhood_invariants(core)
    return CoreReport(inv.genus, inv.boundary, inv.euler, is_e_arboreal(core))


class FramingCertificate(NamedTuple):
    core_genus: int
    final_genus: int
    final_boundary: int
    final_chi: int
    boundary_values: tuple[tuple[str, int], ...]
    type_e: bool
    core_genus_ok: bool
    ambient_genus_ok: bool
    boundary_ok: bool
    filling: bool
    windings_zero: bool
    verdict: bool

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.boundary_values)


def _core_state(
    core: CurveSystem,
    initial_values: Sequence[tuple[str, int]],
    modulus: int,
) -> tuple[CoreReport, AssemblageState]:
    """Verify the core and seat the initial boundary values on it."""
    report = verify_core(core)
    if len(initial_values) != report.boundary:
        raise InconsistentInputError(
            f"core neighborhood has {report.boundary} boundary components; "
            f"{len(initial_values)} initial values supplied")
    if len({n for n, _ in initial_values}) != len(initial_values):
        raise InconsistentInputError("initial boundary names must be distinct")
    state = AssemblageState(
        report.genus,
        tuple((n, reduce_residue(v, modulus)) for n, v in initial_values),
        modulus)
    state.check_coherence()
    return report, state


def _judge(
    report: CoreReport,
    state: AssemblageState,
    windings_zero: bool,
    ambient: tuple[int, int],
) -> FramingCertificate:
    """Generation criteria for a folded state and the fold's winding verdict."""
    flags = dict(
        type_e=report.type_e,
        core_genus_ok=report.genus >= 5,
        ambient_genus_ok=ambient[0] >= 5,
        boundary_ok=state.b >= 1,
        filling=(state.genus, state.b) == tuple(ambient),
        windings_zero=windings_zero,
    )
    return FramingCertificate(
        core_genus=report.genus,
        final_genus=state.genus,
        final_boundary=state.b,
        final_chi=state.chi,
        boundary_values=state.boundaries,
        verdict=all(flags.values()),
        **flags,
    )


def certify(
    asm: Assemblage,
    initial_values: Sequence[tuple[str, int]],
) -> FramingCertificate:
    """Fold the steps over the verified core and judge the generation criteria.

    The verdict is positive iff the core is type E with genus >= 5, the
    ambient genus is >= 5 with at least one boundary component, the final
    invariants fill the ambient surface, and every attached curve carries
    winding zero.
    """
    return certify_steps(asm.core, asm.ambient, asm.modulus, initial_values,
                         asm.steps)[0]


def certify_steps(
    core: CurveSystem,
    ambient: tuple[int, int],
    modulus: int,
    initial_values: Sequence[tuple[str, int]],
    steps: Iterable[tuple],
) -> tuple[FramingCertificate, int]:
    """`certify` on the fields of an Assemblage, reading `steps` once in one pass.

    Returns the certificate and the number of steps folded.  `assemblage
    run` passes the header and lazy step tuples of `read_assemblage` here,
    so no step outlives its line and the first error in the file is the
    one raised.
    """
    report, state = _core_state(core, initial_values, modulus)
    cert = _judge(report, *_fold(state, steps), ambient)
    # Every step, split or merge, lowers chi by exactly one.
    return cert, report.chi - cert.final_chi


def capping_order(values: Sequence[int]) -> int:
    """gcd of (v_i + 1) over the capped boundary values.

    Values are oriented with the surface to the left (caller convention).
    An all-zero argument list yields 0: framing level, no reduction.
    """
    if not values:
        raise EmptyCapError("capping needs at least one boundary value")
    out = 0
    for v in values:
        out = math.gcd(out, abs(v + 1))
    return out


# -- the two-section construction ---------------------------------------------


CORE_VALUES = (("dC", -9), ("dD", -3))
_CORE_SIDES, _CORE_START = zip(*CORE_VALUES)

Pattern = Callable[[int, tuple[int, int]], tuple[AssemblageStep, ...]]


class Stage(NamedTuple):
    """One handle pair of the two-section construction and its repeat count.

    ``pattern(k, values)`` builds repeat k from the values (C side, D side)
    of the section boundaries entering it.  Every repeat consumes ``dC`` and
    ``dD`` and leaves two new ones under the same names (transient names
    ``s1``, ``s2``, ``j``) by the same step modes, so it adds the same genus
    and moves the values by ``shift``: the state entering repeat k is a
    closed form in k.  Declared values are affine in the incoming values, so
    the sum rule of repeat k is affine in k.
    """

    pattern: Pattern
    repeats: int
    shift: tuple[int, int]

    def values_at(self, values: tuple[int, int], k: int) -> tuple[int, int]:
        """Section boundary values entering repeat k, given those entering the stage."""
        return (values[0] + k * self.shift[0], values[1] + k * self.shift[1])


class TwoSection(NamedTuple):
    """The two-section construction: a stage table over the core."""

    core: CurveSystem
    stages: tuple[Stage, ...]
    ambient: tuple[int, int]
    expected: tuple[int, int]

    @property
    def step_count(self) -> int:
        return 2 * sum(s.repeats for s in self.stages)


def _genus_pair(tag: str, side: int) -> Pattern:
    """Split one section's boundary and merge the halves: one more genus."""
    name = _CORE_SIDES[side]

    def pattern(k, values):
        v = values[side]
        return (AssemblageStep(f"{tag}{2 * k + 1}", "split", name,
                               new_names=("s1", "s2"), new_values=(v - 1, 0)),
                AssemblageStep(f"{tag}{2 * k + 2}", "merge", "s1", other="s2",
                               new_names=(name,), new_values=(v - 2,)))

    return pattern


def _walk_pair(k, values):
    """Merge the two section boundaries and split them apart, one circle on."""
    v_c, v_d = values
    return (AssemblageStep(f"t{k + 5}", "merge", "dC", other="dD",
                           new_names=("j",), new_values=(v_c + v_d - 1,)),
            AssemblageStep(f"delta{k + 5}", "split", "j", new_names=_CORE_SIDES,
                           new_values=(v_c - 1, v_d - 1)))


def two_section(g_c: int, g_d: int, d: int) -> TwoSection:
    """Stage table for a smoothed union of two sections, plus expected finals.

    Its domain is d >= 6 and section genera >= 0, one of them >= 3 (so the
    ambient genus is at least 8); anything else is refused with one message.
    C and D may come in either order: over the 13-curve core (genus 6, two
    boundary circles), the stages start from the section of genus g >= 3,
    C unless g_c < 3 -- (g - 3) split/merge pairs absorbing its remaining
    genus, (d - 4) merge/split pairs walking the remaining boundary circles
    across, then g' split/merge pairs for the other section's genus g'.  The
    expected final values are chi(C) - d - 1 and chi(D) - d - 1 (chi = 2 - 2g),
    in (C, D) order; the stages land on them in the order they were built.
    """
    if d < 6 or min(g_c, g_d) < 0 or max(g_c, g_d) < 3:
        raise InconsistentInputError(
            "construction needs d >= 6 and section genera >= 0, one of them >= 3")
    expected = (1 - 2 * g_c - d, 1 - 2 * g_d - d)
    order = 1 if g_c >= 3 else -1
    first, second = (g_c, g_d)[::order]
    stages = (Stage(_genus_pair("hc", 0), first - 3, (-2, 0)),
              Stage(_walk_pair, d - 4, (-1, -1)),
              Stage(_genus_pair("hd", 1), second, (0, -2)))
    landed = _CORE_START
    for stage in stages:
        landed = stage.values_at(landed, stage.repeats)
    if landed != expected[::order]:
        raise InternalInconsistencyError(
            f"step generator landed on {landed}, expected {expected[::order]}")
    return TwoSection(e6_a7_core(), stages, (g_c + g_d + d - 1, 2), expected)


def smoothing_assemblage(
    g_c: int,
    g_d: int,
    d: int,
) -> tuple[Assemblage, tuple[int, int]]:
    """Assemblage for a smoothed union of two sections, plus expected finals.

    Expands every repeat of the `two_section` stage table into explicit
    steps, 2(g_c + g_d + d - 7) of them, O(deg^2) on a fixed surface, for
    d >= 6 and genera >= 0, one of them >= 3, with C and D in either order.
    It is the reference that `certify_two_section`, the O(1)-in-degree fold
    the monodromy report uses, is tested against.
    """
    table = two_section(g_c, g_d, d)
    steps: list[AssemblageStep] = []
    values = _CORE_START
    for stage in table.stages:
        for k in range(stage.repeats):
            steps += stage.pattern(k, stage.values_at(values, k))
        values = stage.values_at(values, stage.repeats)
    return Assemblage(table.core, tuple(steps), table.ambient), table.expected


def _fold_stage(
    stage: Stage,
    state: AssemblageState,
    values: tuple[int, int],
) -> tuple[AssemblageState, bool]:
    """Fold repeats 0 and n - 1 of a non-empty stage entered at `state`.

    Returns the state the explicit fold of all n repeats reaches and whether
    the folded repeats' curves carry winding zero.  Each folded repeat must
    leave exactly ``dC`` and ``dD`` with the table's values; as every repeat
    keeps those names, repeat n - 1 is entered at `state` plus n - 1 repeats'
    genus, with the values ``values_at(values, n - 1)`` in repeat 0's order.
    """

    def repeat(k, entry):
        entry, windings_zero = _fold(entry, stage.pattern(k, stage.values_at(values, k)))
        landing = dict(zip(_CORE_SIDES, stage.values_at(values, k + 1)))
        if dict(entry.boundaries) != landing:
            raise InconsistentStepError(
                f"stage repeat {k} lands on {entry.boundaries}; the stage "
                f"table says {landing}")
        return entry, windings_zero

    after, first_zero = repeat(0, state)
    k = stage.repeats - 1
    if k == 0:
        return after, first_zero
    entering = dict(zip(_CORE_SIDES, stage.values_at(values, k)))
    entry = AssemblageState(state.genus + k * (after.genus - state.genus),
                            tuple((n, entering[n]) for n, _ in after.boundaries),
                            state.modulus)
    entry.check_coherence()
    last, last_zero = repeat(k, entry)
    return last, first_zero and last_zero


def certify_two_section(table: TwoSection) -> FramingCertificate:
    """certify(smoothing_assemblage(...)[0], CORE_VALUES) in O(1) per stage.

    Folds only the first and last repeat of each non-empty stage over the
    verified core.  The sum rule and landing values of repeat k are affine
    in k, so holding at both ends they hold in between; as every repeat
    keeps the names ``dC`` and ``dD``, the state entering the last repeat is
    the stage entry advanced by k shifts and k genus, rechecked for
    coherence.  Returns the certificate the explicit fold builds, with
    windings judged on the folded repeats.
    """
    report, state = _core_state(table.core, CORE_VALUES, 0)
    values, windings_zero = _CORE_START, True
    for stage in table.stages:
        if stage.repeats:
            state, stage_zero = _fold_stage(stage, state, values)
            windings_zero = windings_zero and stage_zero
        values = stage.values_at(values, stage.repeats)
    return _judge(report, state, windings_zero, table.ambient)


# -- monodromy report ---------------------------------------------------------


class ReportDocument(NamedTuple):
    """End-to-end verdict with the full evidence chain.

    quantities carries every number the human and machine renderings show;
    the two renderings are generated from this one mapping.
    """

    quantities: dict
    verdict: str
    warnings: tuple[str, ...] = ()
    certificate: Optional[FramingCertificate] = None
    splitting: Optional[JetSplitting] = None


def monodromy_report(
    c: DivisorClass,
    d_class: DivisorClass,
    ledger: JetLedger,
) -> ReportDocument:
    """Run the whole pipeline for sections C, D on one lattice.

    Computes the maximal-root order r of the adjoint class K + C + D, builds
    the two-section assemblage, caps it to find the coarser order r', checks
    r | r' and that no root of order beyond r exists (gcd maximality), and
    combines these with the jet-splitting certificate into the final verdict
    that the monodromy group is the full stabilizer of the r-spin structure.

    The assemblage is certified stage by stage (`certify_two_section`), so
    the report costs O(1) in the degree, with its final values checked;
    `steps` counts every step of the explicit construction.  It needs d >= 6
    and genera >= 0, one of them >= 3, with C and D in either order.
    """
    lattice = c.lattice
    l = c + d_class
    report = adjoint_and_root(l)
    if report.degenerate:
        raise InconsistentInputError(
            "degenerate adjoint class (K + L = 0): the construction requires "
            "higher-genus sections")
    r = report.divisibility
    d = intersect(c, d_class)
    g_c, g_d = genus_of_section(c), genus_of_section(d_class)
    g_e = smoothed_genus(c, d_class)
    if g_e != genus_of_section(l):
        raise InternalInconsistencyError("two genus routes disagree")
    if g_e < 5:
        raise InconsistentInputError(
            f"smoothed section genus {g_e} < 5: outside the certified range")

    quantities = {
        "surface": lattice.name or "custom",
        "C": ",".join(str(x) for x in c.coords),
        "D": ",".join(str(x) for x in d_class.coords),
        "d": d,
        "g_C": g_c,
        "g_D": g_d,
        "g_E": g_e,
        "adjoint": ",".join(str(x) for x in report.adjoint.coords),
        "r": r,
    }
    warnings: list[str] = []

    splitting = jet_splitting_certificate(l, ledger)
    if splitting is None:
        quantities["hypothesis"] = "not-certified"
        warnings.append("no certified 6-jet + very-ample splitting found; "
                        "this is not a claim that none exists")
        return ReportDocument(quantities, "not certified", tuple(warnings))
    quantities["hypothesis"] = "certified"
    quantities["L1"] = ",".join(str(x) for x in splitting.l1.coords)
    quantities["L2"] = ",".join(str(x) for x in splitting.l2.coords)
    quantities["jet_L1"] = splitting.jet1
    quantities["jet_L2"] = splitting.jet2

    table = two_section(g_c, g_d, d)
    expected = table.expected
    cert = certify_two_section(table)
    if sorted(cert.values()) != sorted(expected):
        raise InternalInconsistencyError(
            f"engine finals {cert.values()} != expected {expected}")
    quantities["core_h"] = cert.core_genus
    quantities["steps"] = table.step_count
    quantities["final_values"] = ",".join(str(v) for v in expected)
    quantities["filling"] = int(cert.filling)

    r_prime = capping_order(expected)
    quantities["r_prime"] = r_prime
    if r_prime == 0 or r_prime % r != 0:
        raise InternalInconsistencyError(
            f"r = {r} does not divide r' = {r_prime}; the adjoint arithmetic "
            "is broken")
    quantities["r_divides_r_prime"] = 1

    # Maximality cut-down: any containment in a finer spin stabilizer would
    # force a root of order beyond r, impossible since r is the coordinate gcd.
    primitive = tuple(x // r for x in report.adjoint.coords)
    if math.gcd(*(abs(x) for x in primitive)) != 1:
        raise InternalInconsistencyError("maximal root is not primitive")
    quantities["max_root_primitive"] = 1

    if not cert.verdict:
        quantities["certificate"] = "inapplicable"
        warnings.append("assemblage certificate inapplicable at these "
                        "parameters; capping arithmetic is still exact")
        return ReportDocument(quantities, "not certified", tuple(warnings),
                              cert, splitting)
    quantities["certificate"] = "generates"
    verdict = f"Gamma_L = Mod(E)[phi_M], r = {r}"
    quantities["conclusion"] = ("full mapping class group" if r == 1
                                else f"{r}-spin mapping class group")
    return ReportDocument(quantities, verdict, tuple(warnings), cert, splitting)


# -- textual assemblage format ------------------------------------------------
#
#   modulus 0
#   ambient 15 2
#   core e6a7            # or: chain 7 | dynkin E6 | inline config block
#   boundary dC -9
#   boundary dD -3
#   step t5 merge dC dD j1 -13
#   step delta5 split j1 dC2 -10 dD2 -4
#
# Header lines come before the first step line.
# Split steps: step <curve> split <old> <new1> <v1> <new2> <v2>
# Merge steps: step <curve> merge <b1> <b2> <new> <v>


_HEADER_KEYWORDS = ("modulus", "ambient", "core", "boundary")


def _fields(parts: list[str], line: str, form: str) -> list[str]:
    """The tokens after the keyword of `line`, which must have the shape `form`."""
    if len(parts) != len(form.split()):
        raise InconsistentInputError(f"expected '{form}'; got {line!r}")
    return parts[1:]


def read_assemblage(
    text: str,
) -> tuple[CurveSystem, tuple[int, int], int, list[tuple[str, int]],
           Iterator[tuple]]:
    """The header of an assemblage description and a lazy iterator of its steps.

    Reads the header lines up to the first step line and returns the core,
    the ambient (genus, boundary), the modulus, the initial boundary values,
    and an iterator that validates each step line only when it reaches it.
    A caller that folds the steps as they come holds one step at a time.
    """
    lines = read_lines(text)
    modulus = 0
    ambient = None
    core: Optional[CurveSystem] = None
    values: list[tuple[str, int]] = []
    first: tuple = ()
    for line, parts in lines:
        head = parts[0]
        if head == "step":
            first = ((line, parts),)
            break
        if head == "modulus":
            (r,) = _fields(parts, line, "modulus <r>")
            modulus = int_token(r, line)
        elif head == "ambient":
            g, b = _fields(parts, line, "ambient <genus> <boundary>")
            ambient = (int_token(g, line), int_token(b, line))
        elif head == "core":
            spec = parts[1] if len(parts) > 1 else ""
            if spec == "e6a7":
                _fields(parts, line, "core e6a7")
                core = e6_a7_core()
            elif spec == "chain":
                _, n = _fields(parts, line, "core chain <n>")
                core = chain(int_token(n, line))
            elif spec == "dynkin":
                _, kind = _fields(parts, line, "core dynkin <type>")
                core = dynkin(kind)
            elif spec == "inline":
                _fields(parts, line, "core inline")
                # The block runs to its `end` line, step lines included.
                block = []
                for row, tokens in lines:
                    if tokens == ["end"]:
                        core = parse_curve_system("\n".join(block))
                        break
                    block.append(row)
                else:
                    raise InconsistentInputError("core inline block has no 'end' line")
            else:
                raise InconsistentInputError(
                    "expected 'core e6a7 | chain <n> | dynkin <type> | inline'; "
                    f"got {line!r}")
        elif head == "boundary":
            name, value = _fields(parts, line, "boundary <name> <value>")
            values.append((name, int_token(value, line)))
        else:
            raise InconsistentInputError(f"unrecognized assemblage line {line!r}")
    if core is None:
        raise InconsistentInputError("assemblage description needs a core")
    if ambient is None:
        raise InconsistentInputError("assemblage description needs an ambient")
    return core, ambient, modulus, values, _read_steps(itertools.chain(first, lines))


def _read_steps(lines: Iterator[tuple[str, list[str]]]) -> Iterator[tuple]:
    """Each step line as the bare field tuple `_fold` unpacks, checked when reached.

    The checks and messages are `AssemblageStep`'s, but no record is built:
    the token shape implies all of them but a split's distinct new names.
    """
    for line, parts in lines:
        if parts[0] != "step":
            if parts[0] in _HEADER_KEYWORDS:
                raise InconsistentInputError(
                    f"header line {line!r} comes after the first step")
            raise InconsistentInputError(f"unrecognized assemblage line {line!r}")
        # Step lines are nearly all of a long file: read their values with
        # int() and quote the line only on error.
        n = len(parts)
        mode = parts[2] if n > 2 else ""
        if mode == "split" and n == 8:
            _, curve, _, old, n1, v1, n2, v2 = parts
            try:
                new_values = (int(v1), int(v2))
            except ValueError:
                new_values = (int_token(v1, line), int_token(v2, line))
            if n1 == n2:
                raise InconsistentInputError(
                    f"step {curve}: split needs two distinct new names")
            yield curve, "split", old, "", (n1, n2), new_values, 0
        elif mode == "merge" and n == 7:
            _, curve, _, b1, b2, new, v = parts
            try:
                new_value = int(v)
            except ValueError:
                new_value = int_token(v, line)
            yield curve, "merge", b1, b2, (new,), (new_value,), 0
        elif n < 3:
            raise InconsistentInputError(f"malformed step line {line!r}")
        elif mode == "split":
            raise InconsistentInputError(
                f"split step needs: step <curve> split <old> <n1> <v1> "
                f"<n2> <v2>; got {line!r}")
        elif mode == "merge":
            raise InconsistentInputError(
                f"merge step needs: step <curve> merge <b1> <b2> <new> "
                f"<v>; got {line!r}")
        else:
            raise InconsistentInputError(f"unknown step mode {mode!r}")


def parse_assemblage(text: str) -> tuple[Assemblage, list[tuple[str, int]]]:
    """`read_assemblage` with every step read into an `AssemblageStep` record."""
    core, ambient, modulus, values, steps = read_assemblage(text)
    return Assemblage(core, tuple(itertools.starmap(AssemblageStep, steps)),
                      ambient, modulus), values

"""Command-line front door.

Every data-producing subcommand supports --format human|machine.  Machine
output is key=value lines, deterministic, that parse back to the same pairs;
`catalog show` prints in both formats the lattice file that `lattice` reads.
Exit status: 0 success, 1 structured domain error, 2 usage error.

`COMMANDS` lists each command's help, handler and arguments.  Only the commands
that argv names get their arguments and a -h; every other command gets a
subparser with only its name and help line, which argparse never parses
(skipping the top level waits on ROADMAP item 1).  A handler returns
(quantities, human lines), and `main` prints one of the two.

argparse is imported by `parse_args`, not with this module, so that a reader
of canonical argvs can skip it (ROADMAP item 3).  Until then every process
that parses imports it, as before.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from . import assemblage as asmmod
from . import braidcalc
from . import curveconf
from . import milnor as milnormod
from . import picard
from . import winding as windmod
from .errors import DomainError, InconsistentInputError, NotSimpleError, read_text


def _coords(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise InconsistentInputError(f"cannot parse coordinates {text!r}") from None


def render_machine(quantities: dict) -> str:
    return "\n".join(f"{k}={v}" for k, v in quantities.items())


def parse_machine(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line:
            k, _, v = line.partition("=")
            out[k] = v
    return out


# -- lattice ------------------------------------------------------------------


# op -> the numbers of coordinate vectors it takes.
_LATTICE_ARGC = {"info": (0,), "intersect": (2,), "adjoint": (1,), "genus": (1,),
                 "smoothed-genus": (2,), "hypothesis": (1,), "lefschetz": (0, 1)}


def _cmd_lattice(args):
    lattice, ledger = picard.resolve_lattice(args.lattice)
    allowed = _LATTICE_ARGC[args.op]
    if len(args.args) not in allowed:
        raise InconsistentInputError(
            f"lattice {args.op} takes {' or '.join(str(w) for w in allowed)} "
            f"coordinate vector(s); got {len(args.args)}")
    vectors = [lattice.divisor(_coords(text)) for text in args.args]
    if args.op == "info":
        q = {
            "name": lattice.name or "custom",
            "rank": lattice.rank,
            "canonical": ",".join(str(x) for x in lattice.canonical),
            "jets": ";".join(
                ",".join(str(x) for x in cls.coords) + f":{ledger.level(cls)}"
                for cls in sorted(ledger.classes(), key=lambda c: c.coords)),
        }
        return q, [f"lattice {q['name']}: rank {q['rank']}, signature (1,{lattice.rank - 1})",
                   f"canonical class: ({q['canonical']})",
                   f"certified jets: {q['jets'] or 'none'}"]
    if args.op == "intersect":
        val = picard.intersect(*vectors)
        return {"product": val}, [f"{args.args[0]} . {args.args[1]} = {val}"]
    if args.op == "adjoint":
        rep = picard.adjoint_and_root(vectors[0])
        q = {"adjoint": ",".join(str(x) for x in rep.adjoint.coords),
             "divisibility": rep.divisibility, "degenerate": int(rep.degenerate)}
        return q, [f"adjoint class: ({q['adjoint']})",
                   "degenerate (K + L = 0): no maximal root"
                   if rep.degenerate else f"maximal root order r = {rep.divisibility}"]
    if args.op == "genus":
        g = picard.genus_of_section(vectors[0])
        return {"genus": g}, [f"genus of a smooth section: {g}" if g >= 0 else
                              f"arithmetic genus: {g} (no smooth connected section exists)"]
    if args.op == "smoothed-genus":
        g = picard.smoothed_genus(*vectors)
        return {"genus": g}, [f"genus of the smoothed union: {g}" if g >= 0 else
                              f"arithmetic genus of the smoothed union: {g} "
                              "(no smooth connected section exists)"]
    if args.op == "hypothesis":
        split = picard.jet_splitting_certificate(vectors[0], ledger)
        if split is None:
            return {"hypothesis": "not-certified"}, [
                "not certified: no 6-jet + very-ample splitting found "
                "(not a claim that none exists)"]
        q = {"hypothesis": "certified",
             "L1": ",".join(str(x) for x in split.l1.coords),
             "L2": ",".join(str(x) for x in split.l2.coords),
             "jet_L1": split.jet1, "jet_L2": split.jet2}
        return q, [f"certified: L = ({q['L1']}) + ({q['L2']}), "
                   f"jets {split.jet1} and {split.jet2}"]
    dec = picard.lefschetz_full_decision(lattice, vectors[0] if vectors else None, ledger)
    q = {"exists": int(dec.exists), "rank": dec.rank,
         "classification": dec.classification,
         "exceptional": int(dec.exceptional)}
    if dec.witness_multiple is not None:
        q["witness_multiple"] = dec.witness_multiple
    if dec.exists and dec.rank >= 2:
        return q, ["full-monodromy pencil exists (Picard rank >= 2)"]
    if dec.exists:
        return q, [f"rank 1, {dec.classification}: full mapping class group "
                   f"achievable with multiple m = {dec.witness_multiple}"
                   + (" (exceptional case in the rank criterion)"
                      if dec.exceptional else "")]
    return q, [f"rank 1, {dec.classification}: no full-monodromy pencil"]


# -- config -------------------------------------------------------------------


def _load_config(args) -> curveconf.CurveSystem:
    # A given value counts even when it is falsy: --chain 0 is a chain length.
    count = sum(x is not None for x in (args.file, args.chain, args.dynkin)) + args.core
    if count != 1:
        raise InconsistentInputError(
            "pick exactly one of: a file, --chain N, --dynkin T, --core")
    if args.chain is not None:
        return curveconf.chain(args.chain)
    if args.dynkin is not None:
        return curveconf.dynkin(args.dynkin)
    if args.core:
        return curveconf.e6_a7_core()
    return curveconf.parse_curve_system(read_text(args.file))


def _cmd_config(args):
    sys_ = _load_config(args)
    q = {"curves": len(sys_.curves), "intersections": len(sys_.crossings)}
    human = [f"{len(sys_.curves)} curves, {len(sys_.crossings)} intersection points"]
    try:
        graph = curveconf.intersection_graph(sys_)
    except NotSimpleError:
        graph = None
    q["simple"] = int(graph is not None)
    if graph is not None:
        arboreal = graph.is_tree()
        q["arboreal"] = int(arboreal)
        q["e_arboreal"] = int(arboreal and curveconf.has_induced_e6(graph))
        human.append(f"simple configuration; arboreal: {arboreal}, "
                     f"E-arboreal: {bool(q['e_arboreal'])}")
    else:
        human.append("not a simple configuration (some pair meets twice); "
                     "graph predicates skipped")
    try:
        inv = curveconf.neighborhood_invariants(sys_)
        q.update(chi=inv.euler, boundary=inv.boundary, genus=inv.genus)
        human.append(f"regular neighborhood: chi = {inv.euler}, "
                     f"b = {inv.boundary}, g = {inv.genus}")
        if sys_.ambient is not None:
            span = (inv.genus, inv.boundary) == tuple(sys_.ambient)
            q["spanning"] = int(span)
            human.append(f"spanning for ambient {sys_.ambient}: {span}")
    except DomainError as exc:
        q["neighborhood"] = "unavailable"
        human.append(f"neighborhood invariants unavailable: {exc}")
    return q, human


# -- winding ------------------------------------------------------------------


def _cmd_winding_census(args):
    census = windmod.enumerate_forms(args.g)
    return ({"genus": args.g, "arf0": census[0], "arf1": census[1]},
            [f"genus {args.g}: {census[0]} forms with Arf 0, {census[1]} with Arf 1"])


def _cmd_winding_act(args):
    ctx, curves, word = windmod.parse_winding(read_text(args.file))
    q = {"modulus": ctx.modulus, "word": repr(word)}
    human = [f"context: g = {ctx.genus}, b = {len(ctx.boundary)}, "
             f"r = {ctx.modulus}", f"word: {word!r}", ""]
    human.append(f"{'curve':<10} {'class before':<18} {'class after':<18} "
                 f"{'w before':>8} {'w after':>8} admissible")
    for name in curves:
        before = curves[name].normalized(ctx)
        after = windmod.act(word, before, curves, ctx)
        q[f"curve_{name}"] = (",".join(str(x) for x in after.hclass)
                              + f":{after.winding}")
        human.append(
            f"{name:<10} {str(list(before.hclass)):<18} "
            f"{str(list(after.hclass)):<18} {before.winding:>8} "
            f"{after.winding:>8} {windmod.is_admissible(before, ctx)}")
    return q, human


# -- assemblage ---------------------------------------------------------------


def _certificate_quantities(cert: asmmod.FramingCertificate) -> dict:
    return {
        "core_h": cert.core_genus,
        "final_genus": cert.final_genus,
        "final_boundary": cert.final_boundary,
        "final_chi": cert.final_chi,
        "boundary_values": ",".join(f"{n}:{v}" for n, v in cert.boundary_values),
        "type_e": int(cert.type_e),
        "core_genus_ok": int(cert.core_genus_ok),
        "ambient_genus_ok": int(cert.ambient_genus_ok),
        "boundary_ok": int(cert.boundary_ok),
        "filling": int(cert.filling),
        "windings_zero": int(cert.windings_zero),
        "verdict": "generates" if cert.verdict else "inapplicable",
        "capping_order": asmmod.capping_order(cert.values()),
    }


def _cmd_assemblage(args):
    core, ambient, modulus, values, steps = asmmod.read_assemblage(read_text(args.file))
    cert, count = asmmod.certify_steps(core, ambient, modulus, values, steps)
    q = _certificate_quantities(cert)
    return q, [
        f"core: genus {cert.core_genus}, type E: {cert.type_e}",
        f"after {count} steps: g = {cert.final_genus}, "
        f"b = {cert.final_boundary}, chi = {cert.final_chi}",
        f"boundary values: {q['boundary_values']}",
        f"filling ambient {ambient}: {cert.filling}",
        f"capping order: {q['capping_order']}",
        ("verdict: twists about the listed curves generate the framed "
         "mapping class group" if cert.verdict else
         "verdict: criteria not met (inapplicable)"),
    ]


# -- milnor -------------------------------------------------------------------


def _cmd_milnor(args):
    germ = milnormod.PlaneGerm.parse(args.polynomial)
    res = milnormod.milnor_number(germ)
    k = milnormod.jet_requirement(germ, res.basis)
    q = {"mu": res.mu, "basis": ",".join(res.basis_strings()),
         "truncation": res.truncation, "jet_requirement": k}
    return q, [f"mu = {res.mu}",
               f"monomial basis: {{{', '.join(res.basis_strings())}}}",
               f"stabilized at truncation degree {res.truncation}",
               f"jet requirement: {k}"]


# -- psi / mainlemma ----------------------------------------------------------


def _cmd_psi(args):
    word = braidcalc.parse_word(args.word)
    image = braidcalc.psi(word, args.d)
    q = {"psi": ",".join(str(v) for v in image.vec),
         "in_kernel": int(image.is_zero())}
    return q, [f"psi = ({', '.join(str(v) for v in image.vec)})",
               f"in principal-stabilizer kernel: {image.is_zero()}"]


def _cmd_mainlemma(args):
    k = list(_coords(args.k))
    arc = _coords(args.arc) if args.arc else (1, 2)
    plan = braidcalc.correction_plan(k, arc_endpoints=tuple(arc), third=args.third)
    total = braidcalc.psi(list(plan.word), len(k))
    combined = tuple(a + b for a, b in zip(total.vec, k))
    q = {"word": braidcalc.render_word(plan.word), "ell": plan.exponent,
         "psi_after": ",".join(str(v) for v in combined),
         "verified": int(all(v == 0 for v in combined))}
    return q, [f"correction word: {q['word']}",
               f"twist exponent ell = {plan.exponent}",
               f"psi(plan . input) = ({q['psi_after']})  [verified]"]


# -- report / catalog ---------------------------------------------------------


def _cmd_report(args):
    lattice, ledger = picard.resolve_lattice(args.surface)
    c = lattice.divisor(_coords(args.C))
    d = lattice.divisor(_coords(args.D))
    doc = asmmod.monodromy_report(c, d, ledger)
    q = dict(doc.quantities)
    q["verdict"] = doc.verdict
    for i, w in enumerate(doc.warnings, 1):
        q[f"warning_{i}"] = w
    human = [f"surface {q['surface']}: C = ({q['C']}), D = ({q['D']})",
             f"d = C.D = {q['d']}; genera g_C = {q['g_C']}, g_D = {q['g_D']}, "
             f"g_E = {q['g_E']}",
             f"adjoint class ({q['adjoint']}), maximal root order r = {q['r']}"]
    if q.get("hypothesis") == "certified":
        human.append(f"splitting certificate: L1 = ({q['L1']}) at jet "
                     f"{q['jet_L1']}, L2 = ({q['L2']}) at jet {q['jet_L2']}")
        human.append(f"assemblage: core h = {q['core_h']}, {q['steps']} steps, "
                     f"final values ({q['final_values']}), filling = "
                     f"{bool(q['filling'])}")
        human.append(f"capping order r' = {q['r_prime']}; r | r' holds; "
                     "maximal root is primitive")
    for w in doc.warnings:
        human.append(f"warning: {w}")
    human.append(f"verdict: {doc.verdict}")
    return q, human


def _cmd_catalog(args):
    if args.op == "list":
        if args.name is not None:
            raise InconsistentInputError("catalog list takes no name")
        names = picard.catalog_names()
        human = [f"{len(names)} catalog lattices:"] + [f"  {n}" for n in names]
        return {"lattices": ",".join(names)}, human
    if not args.name:
        raise InconsistentInputError("catalog show needs a lattice name")
    # No quantities: both formats print the lattice file, which `lattice` parses back.
    return None, picard.render_lattice(*picard.catalog_lattice(args.name)).splitlines()


# -- parser -------------------------------------------------------------------


# command -> (help, handler, *arguments), each argument an `add_argument`
# (name or flag, options) pair; every command also takes --format.  A table in
# the handler's place nests subcommands, whose name is kept as `op`.
COMMANDS = {
    "lattice": ("Picard-lattice arithmetic", _cmd_lattice,
                ("lattice", {"help": "catalog name or lattice file"}),
                ("op", {"choices": tuple(_LATTICE_ARGC)}),
                ("args", {"nargs": "*", "help": "coordinate vectors, comma-separated"})),
    "config": ("curve configuration analysis", _cmd_config,
               ("op", {"choices": ("analyze",)}),
               ("file", {"nargs": "?", "help": "configuration file"}),
               ("--chain", {"type": int, "help": "use the n-curve chain"}),
               ("--dynkin", {"help": "use a Dynkin configuration (A_n, E6)"}),
               ("--core", {"action": "store_true", "help": "use the 13-curve A7+E6 core"})),
    "winding": ("winding values under twist words", {
        "act": ("apply a twist word to declared curves", _cmd_winding_act, ("file", {})),
        "census": ("mod-2 quadratic form census by Arf", _cmd_winding_census,
                   ("--g", {"type": int, "required": True})),
    }),
    "assemblage": ("run an assemblage description", _cmd_assemblage,
                   ("op", {"choices": ("run",)}), ("file", {})),
    "milnor": ("Milnor number of a plane germ", _cmd_milnor,
               ("polynomial", {"help": 'e.g. "x^3+y^4"'})),
    "psi": ("abelianized image of a braid word", _cmd_psi,
            ("word", {"help": 'e.g. "m(1,2)^2 b(3) s(tag)"'}),
            ("--d", {"type": int, "required": True, "help": "boundary circle count"})),
    "mainlemma": ("correction word for a psi image", _cmd_mainlemma,
                  ("--k", {"required": True,
                           "help": "comma-separated image vector; use --k=-3,1,... when "
                                   "the leading entry is negative"}),
                  ("--arc", {"help": "arc endpoint indices i,j (default 1,2)"}),
                  ("--third", {"type": int, "default": 3,
                               "help": "enclosing third index (default 3)"})),
    "report": ("end-to-end monodromy report", _cmd_report,
               ("--surface", {"required": True, "help": "catalog name or lattice file"}),
               ("--C", {"required": True, "help": "first section class, comma-separated"}),
               ("--D", {"required": True, "help": "second section class"})),
    "catalog": ("built-in lattice catalog", _cmd_catalog,
                ("op", {"choices": ("list", "show")}), ("name", {"nargs": "?"})),
}


def _add_commands(parser, table: dict, dest: str, argv: Sequence[str]) -> None:
    # Only the commands that argv names get arguments, and a -h.  argparse
    # dispatches on an element of argv equal to a command's name, not always
    # argv[0] (`rspin --bogus report ...`, or `rspin -- report ...` on newer
    # Pythons), and refuses an abbreviation (`rspin rep -h`), so it never
    # parses with, or prints the help of, any other subparser.  Top-level usage
    # and help list the commands from their names and help lines alone.
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_, handler, *arguments) in table.items():
        p = sub.add_parser(name, help=help_, add_help=name in argv)
        if name in argv and isinstance(handler, dict):
            _add_commands(p, handler, "op", argv)
        elif name in argv:
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.add_argument("--format", choices=("human", "machine"), default="human")
            p.set_defaults(func=handler)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    import argparse  # here, so a reader of canonical argvs can skip it (ROADMAP item 3)

    parser = argparse.ArgumentParser(
        prog="rspin",
        description="Winding-number calculus, assemblage certificates, and "
                    "Picard-lattice monodromy reports.")
    _add_commands(parser, COMMANDS, "command", argv)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        quantities, human = args.func(args)
        machine = quantities is not None and args.format == "machine"
        print(render_machine(quantities) if machine else "\n".join(human))
        return 0
    except (DomainError, OSError, ValueError) as exc:
        # A ValueError is a bug, unless an answer passed Python's int-to-str digit limit.
        if isinstance(exc, ValueError) and "integer string conversion" not in str(exc):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

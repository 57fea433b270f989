"""Command-line front door.

Every data-producing subcommand supports --format human|machine.  Machine
output is line-oriented key=value, deterministic for identical inputs, and
round-trips: parsing it and re-rendering reproduces the same pairs.  Exit
status: 0 success, 1 structured domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
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


def _emit(quantities: dict, human_lines: Sequence[str], fmt: str) -> None:
    if fmt == "machine":
        print(render_machine(quantities))
    else:
        for line in human_lines:
            print(line)


# -- lattice ------------------------------------------------------------------


_LATTICE_ARGC = {"info": 0, "intersect": 2, "adjoint": 1, "genus": 1,
                 "smoothed-genus": 2, "hypothesis": 1, "lefschetz": (0, 1)}


def _cmd_lattice(args) -> int:
    lattice, ledger = picard.resolve_lattice(args.lattice)
    fmt = args.format
    want = _LATTICE_ARGC[args.op]
    allowed = want if isinstance(want, tuple) else (want,)
    if len(args.args) not in allowed:
        raise InconsistentInputError(
            f"lattice {args.op} takes {' or '.join(str(w) for w in allowed)} "
            f"coordinate vector(s); got {len(args.args)}")
    if args.op == "info":
        q = {
            "name": lattice.name or "custom",
            "rank": lattice.rank,
            "canonical": ",".join(str(x) for x in lattice.canonical),
            "jets": ";".join(
                ",".join(str(x) for x in cls.coords) + f":{ledger.level(cls)}"
                for cls in sorted(ledger.classes(), key=lambda c: c.coords)),
        }
        _emit(q, [f"lattice {q['name']}: rank {q['rank']}, signature (1,{lattice.rank - 1})",
                  f"canonical class: ({q['canonical']})",
                  f"certified jets: {q['jets'] or 'none'}"], fmt)
        return 0
    if args.op == "intersect":
        a, b = lattice.divisor(_coords(args.args[0])), lattice.divisor(_coords(args.args[1]))
        val = picard.intersect(a, b)
        _emit({"product": val}, [f"{args.args[0]} . {args.args[1]} = {val}"], fmt)
        return 0
    if args.op == "adjoint":
        rep = picard.adjoint_and_root(lattice.divisor(_coords(args.args[0])))
        q = {"adjoint": ",".join(str(x) for x in rep.adjoint.coords),
             "divisibility": rep.divisibility, "degenerate": int(rep.degenerate)}
        human = [f"adjoint class: ({q['adjoint']})"]
        human.append("degenerate (K + L = 0): no maximal root"
                     if rep.degenerate else f"maximal root order r = {rep.divisibility}")
        _emit(q, human, fmt)
        return 0
    if args.op == "genus":
        g = picard.genus_of_section(lattice.divisor(_coords(args.args[0])))
        _emit({"genus": g}, [f"genus of a smooth section: {g}"], fmt)
        return 0
    if args.op == "smoothed-genus":
        c = lattice.divisor(_coords(args.args[0]))
        d = lattice.divisor(_coords(args.args[1]))
        g = picard.smoothed_genus(c, d)
        _emit({"genus": g}, [f"genus of the smoothed union: {g}"], fmt)
        return 0
    if args.op == "hypothesis":
        l = lattice.divisor(_coords(args.args[0]))
        split = picard.jet_splitting_certificate(l, ledger)
        if split is None:
            _emit({"hypothesis": "not-certified"},
                  ["not certified: no 6-jet + very-ample splitting found "
                   "(not a claim that none exists)"], fmt)
        else:
            q = {"hypothesis": "certified",
                 "L1": ",".join(str(x) for x in split.l1.coords),
                 "L2": ",".join(str(x) for x in split.l2.coords),
                 "jet_L1": split.jet1, "jet_L2": split.jet2}
            _emit(q, [f"certified: L = ({q['L1']}) + ({q['L2']}), "
                      f"jets {split.jet1} and {split.jet2}"], fmt)
        return 0
    if args.op == "lefschetz":
        gen = lattice.divisor(_coords(args.args[0])) if args.args else None
        dec = picard.lefschetz_full_decision(lattice, gen, ledger)
        q = {"exists": int(dec.exists), "rank": dec.rank,
             "classification": dec.classification,
             "exceptional": int(dec.exceptional)}
        if dec.witness_multiple is not None:
            q["witness_multiple"] = dec.witness_multiple
        human = []
        if dec.exists and dec.rank >= 2:
            human.append("full-monodromy pencil exists (Picard rank >= 2)")
        elif dec.exists:
            human.append(f"rank 1, {dec.classification}: full mapping class group "
                         f"achievable with multiple m = {dec.witness_multiple}"
                         + (" (exceptional case in the rank criterion)"
                            if dec.exceptional else ""))
        else:
            human.append(f"rank 1, {dec.classification}: no full-monodromy pencil")
        _emit(q, human, fmt)
        return 0
    raise InconsistentInputError(f"unknown lattice op {args.op!r}")


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


def _cmd_config(args) -> int:
    sys_ = _load_config(args)
    fmt = args.format
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
    _emit(q, human, fmt)
    return 0


# -- winding ------------------------------------------------------------------


def _cmd_winding(args) -> int:
    fmt = args.format
    if args.op == "census":
        census = windmod.enumerate_forms(args.g)
        q = {"genus": args.g, "arf0": census[0], "arf1": census[1]}
        _emit(q, [f"genus {args.g}: {census[0]} forms with Arf 0, "
                  f"{census[1]} with Arf 1"], fmt)
        return 0
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
    _emit(q, human, fmt)
    return 0


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


def _cmd_assemblage(args) -> int:
    core, ambient, modulus, values, steps = asmmod.read_assemblage(read_text(args.file))
    cert, count = asmmod.certify_steps(core, ambient, modulus, values, steps)
    q = _certificate_quantities(cert)
    human = [
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
    _emit(q, human, args.format)
    return 0


# -- milnor -------------------------------------------------------------------


def _cmd_milnor(args) -> int:
    germ = milnormod.PlaneGerm.parse(args.polynomial)
    res = milnormod.milnor_number(germ)
    k = milnormod.jet_requirement(germ, res.basis)
    q = {"mu": res.mu, "basis": ",".join(res.basis_strings()),
         "truncation": res.truncation, "jet_requirement": k}
    _emit(q, [f"mu = {res.mu}",
              f"monomial basis: {{{', '.join(res.basis_strings())}}}",
              f"stabilized at truncation degree {res.truncation}",
              f"jet requirement: {k}"], args.format)
    return 0


# -- psi / mainlemma ----------------------------------------------------------


def _cmd_psi(args) -> int:
    word = braidcalc.parse_word(args.word)
    image = braidcalc.psi(word, args.d)
    q = {"psi": ",".join(str(v) for v in image.vec),
         "in_kernel": int(image.is_zero())}
    _emit(q, [f"psi = ({', '.join(str(v) for v in image.vec)})",
              f"in principal-stabilizer kernel: {image.is_zero()}"], args.format)
    return 0


def _cmd_mainlemma(args) -> int:
    k = list(_coords(args.k))
    arc = _coords(args.arc) if args.arc else (1, 2)
    plan = braidcalc.correction_plan(k, arc_endpoints=tuple(arc), third=args.third)
    total = braidcalc.psi(list(plan.word), len(k))
    combined = tuple(a + b for a, b in zip(total.vec, k))
    q = {"word": braidcalc.render_word(plan.word), "ell": plan.exponent,
         "psi_after": ",".join(str(v) for v in combined),
         "verified": int(all(v == 0 for v in combined))}
    _emit(q, [f"correction word: {q['word']}",
              f"twist exponent ell = {plan.exponent}",
              f"psi(plan . input) = ({q['psi_after']})  [verified]"], args.format)
    return 0


# -- report / catalog ---------------------------------------------------------


def _cmd_report(args) -> int:
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
    _emit(q, human, args.format)
    return 0


def _cmd_catalog(args) -> int:
    if args.op == "list":
        names = picard.catalog_names()
        _emit({"lattices": ",".join(names)},
              [f"{len(names)} catalog lattices:"] + [f"  {n}" for n in names],
              args.format)
        return 0
    if args.op == "show":
        if not args.name:
            raise InconsistentInputError("catalog show needs a lattice name")
        lattice, ledger = picard.catalog_lattice(args.name)
        print(picard.render_lattice(lattice, ledger), end="")
        return 0
    raise InconsistentInputError(f"unknown catalog op {args.op!r}")


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspin",
        description="Winding-number calculus, assemblage certificates, and "
                    "Picard-lattice monodromy reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p = sub.add_parser("lattice", help="Picard-lattice arithmetic")
    p.add_argument("lattice", help="catalog name or lattice file")
    p.add_argument("op", choices=("info", "intersect", "adjoint", "genus",
                                  "smoothed-genus", "hypothesis", "lefschetz"))
    p.add_argument("args", nargs="*", help="coordinate vectors, comma-separated")
    add_format(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("config", help="curve configuration analysis")
    p.add_argument("op", choices=("analyze",))
    p.add_argument("file", nargs="?", help="configuration file")
    p.add_argument("--chain", type=int, help="use the n-curve chain")
    p.add_argument("--dynkin", help="use a Dynkin configuration (A_n, E6)")
    p.add_argument("--core", action="store_true",
                   help="use the 13-curve A7+E6 core")
    add_format(p)
    p.set_defaults(func=_cmd_config)

    p = sub.add_parser("winding", help="winding values under twist words")
    wsub = p.add_subparsers(dest="op", required=True)
    pa = wsub.add_parser("act", help="apply a twist word to declared curves")
    pa.add_argument("file")
    add_format(pa)
    pa.set_defaults(func=_cmd_winding)
    pc = wsub.add_parser("census", help="mod-2 quadratic form census by Arf")
    pc.add_argument("--g", type=int, required=True)
    add_format(pc)
    pc.set_defaults(func=_cmd_winding)

    p = sub.add_parser("assemblage", help="run an assemblage description")
    p.add_argument("op", choices=("run",))
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_assemblage)

    p = sub.add_parser("milnor", help="Milnor number of a plane germ")
    p.add_argument("polynomial", help='e.g. "x^3+y^4"')
    add_format(p)
    p.set_defaults(func=_cmd_milnor)

    p = sub.add_parser("psi", help="abelianized image of a braid word")
    p.add_argument("word", help='e.g. "m(1,2)^2 b(3) s(tag)"')
    p.add_argument("--d", type=int, required=True, help="boundary circle count")
    add_format(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("mainlemma", help="correction word for a psi image")
    p.add_argument("--k", required=True,
                   help="comma-separated image vector; use --k=-3,1,... when "
                        "the leading entry is negative")
    p.add_argument("--arc", help="arc endpoint indices i,j (default 1,2)")
    p.add_argument("--third", type=int, default=3,
                   help="enclosing third index (default 3)")
    add_format(p)
    p.set_defaults(func=_cmd_mainlemma)

    p = sub.add_parser("report", help="end-to-end monodromy report")
    p.add_argument("--surface", required=True, help="catalog name or lattice file")
    p.add_argument("--C", required=True, help="first section class, comma-separated")
    p.add_argument("--D", required=True, help="second section class")
    add_format(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("catalog", help="built-in lattice catalog")
    p.add_argument("op", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    add_format(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError) as exc:
        # A ValueError is a bug, unless an answer passed Python's int-to-str digit limit.
        if isinstance(exc, ValueError) and "integer string conversion" not in str(exc):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

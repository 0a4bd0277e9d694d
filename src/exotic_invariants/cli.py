"""Command-line front door.

Each subcommand's `cmd_*` computes one payload and `run` alone prints it:
with --json as canonical JSON (keys sorted, two-space indent, no floats,
rationals as lowest-terms "p/q" strings, so re-serializing the parsed
output reproduces the bytes), otherwise through the subcommand's `*_table`
renderer, which reads only the payload.  The --json output is byte-equal
to `json.dumps(payload, sort_keys=True, indent=2)` (ASCII-escaped, no
floats), and the argument parser is built once per process.

Exit status: 0 on success, 1 on domain errors, 2 on invalid arguments and
usage errors; all but usage errors print one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import brieskorn as bk
from . import groups as gr
from . import hodge as hg
from .abelian import AbelianGroup, GradedGroups
from .bundles import MilnorBundle, bundle_cohomology, canonical_form, lambda_invariant
from .errors import DomainError, InvalidArgument, OutOfFamily
from .tduality import (
    FluxedBundle,
    correspondence_h7,
    euler_preserving_dual,
    lifted_flux,
    principal_dual,
)

SCHEMA_VERSION = 1


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def group_json(g: AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def graded_json(gg: GradedGroups) -> list:
    return [[degree, group_json(group)] for degree, group in gg.items()]


def bundle_json(b: MilnorBundle) -> dict:
    return {"m": b.m, "n": b.n}


def fluxed_json(fb: FluxedBundle) -> dict:
    return {"bundle": bundle_json(fb.bundle), "flux": fb.flux}


def canonical_json(payload: dict) -> str:
    """Payload as `json.dumps(payload, sort_keys=True, indent=2)` writes it.

    Only dict with str keys, list, str, int, bool and None are canonical;
    anything else, a float or a tuple among them, raises TypeError.
    """
    parts = []
    _emit(payload, "\n", parts)
    return "".join(parts)


def _emit(value, newline: str, parts: list) -> None:
    """Append the JSON text of value to parts; newline is a line break
    followed by the indent of the line value starts on."""
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(str(value))
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            parts += ("[", inner, ("," + inner).join(map(str, value)), newline, "]")
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
            parts += ("[", inner, ("," + inner).join(items), newline, "]")
        else:
            separator = "[" + inner
            for item in value:
                parts.append(separator)
                _emit(item, inner, parts)
                separator = "," + inner
            parts += (newline, "]")
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            parts += (separator, encode_basestring_ascii(key), ": ")
            _emit(value[key], inner, parts)
            separator = "," + inner
        parts += (newline, "}")
    else:
        raise TypeError(f"{kind.__name__} is not canonical JSON")


def _group(g: dict) -> AbelianGroup:
    return AbelianGroup(g["free_rank"], tuple(g["torsion"]))


def _fluxed(fb: dict) -> FluxedBundle:
    return FluxedBundle(MilnorBundle(**fb["bundle"]), fb["flux"])


def graded_table(cohomology: list) -> str:
    return "\n".join(f"  H^{d} = {_group(g)}" for d, g in cohomology)


def weighted_type_json(bp: bk.BrieskornPham) -> dict:
    """Degree, weights, canonical type and Gorenstein parameter of bp."""
    ell, weights = bk.weights_and_degree(bp)
    kind, gorenstein = bk.canonical_type(bp)
    return {
        "degree": ell,
        "weights": list(weights),
        "type": kind.value,
        "gorenstein": rational_str(gorenstein),
    }


def cmd_milnor(args) -> dict:
    b = MilnorBundle(args.m, args.n)
    lam = None
    if args.require_lambda or b.is_homotopy_sphere:
        lam = lambda_invariant(b)  # raises NotHomotopySphere when forced
    return {
        "bundle": bundle_json(b),
        "canonical": bundle_json(canonical_form(b)),
        "euler": b.euler,
        "pontryagin": b.pontryagin,
        "principal": b.is_principal,
        "homotopy_sphere": b.is_homotopy_sphere,
        "lambda": lam,
        "cohomology": graded_json(bundle_cohomology(b)),
    }


def milnor_table(p: dict) -> str:
    lines = [
        f"{MilnorBundle(**p['bundle'])}: euler {p['euler']}, p1 {p['pontryagin']}, "
        f"{'principal' if p['principal'] else 'non-principal'}",
        f"  canonical representative {MilnorBundle(**p['canonical'])}",
    ]
    if p["homotopy_sphere"]:
        verdict = "standard" if p["lambda"] == 0 else "exotic"
        lines.append(f"  homotopy 7-sphere, lambda = {p['lambda']} ({verdict})")
    lines += ["cohomology:", graded_table(p["cohomology"])]
    return "\n".join(lines)


def cmd_tdual(args) -> dict:
    fb = FluxedBundle(MilnorBundle(args.m, args.k - args.m), args.flux)
    if args.principal:
        dual = principal_dual(fb)  # NotPrincipal -> exit 1
    else:
        dual = euler_preserving_dual(fb)
    payload = {
        "input": fluxed_json(fb),
        "rule": "principal" if args.principal else "euler_preserving",
        "dual": fluxed_json(dual),
    }
    if args.m != 0 or args.flux != 0:
        payload["correspondence_h7"] = group_json(correspondence_h7(args.m, args.flux))
        payload["lifted_flux"] = lifted_flux(args.m, args.flux)
    return payload


def tdual_table(p: dict) -> str:
    lines = [f"{_fluxed(p['input'])}  <-->  {_fluxed(p['dual'])}"]
    if "correspondence_h7" in p:
        lines.append(f"  correspondence H^7 = {_group(p['correspondence_h7'])}")
        lines.append(f"  common lifted flux = {p['lifted_flux']}")
    return "\n".join(lines)


def cmd_brieskorn(args) -> dict:
    bp = bk.BrieskornPham.of(*args.exponents)
    payload = {
        "exponents": list(bp.exponents),
        "milnor_number": bk.milnor_number(bp),
        **weighted_type_json(bp),
        "sphere_link_family": bk.in_sphere_link_family(bp),
    }
    if args.spectrum:
        values = [rational_str(v) for v in bk.spectrum(bp).values]
        payload["spectrum"] = values
        payload["spectrum_min"] = values[0]
    return payload


def brieskorn_table(p: dict) -> str:
    lines = [
        f"exponents {bk.BrieskornPham.of(*p['exponents'])}",
        f"  milnor number mu = {p['milnor_number']}",
        f"  degree ell = {p['degree']}, weights {tuple(p['weights'])}",
        f"  type {p['type']}, gorenstein parameter {p['gorenstein']}",
    ]
    if "spectrum" in p:
        lines.append(f"  spectrum min = {p['spectrum_min']}")
        lines.append("  spectrum: " + " ".join(p["spectrum"]))
    return "\n".join(lines)


def cmd_lattice(args) -> dict:
    bp = bk.BrieskornPham.of(*args.exponents)
    lat = bk.milnor_lattice(bp)
    return {
        "exponents": list(bp.exponents),
        "rank": lat.rank,
        "index_set": [list(t) for t in lat.index_set],
        "gram": lat.gram.to_lists(),
    }


def lattice_table(p: dict) -> str:
    bp = bk.BrieskornPham.of(*p["exponents"])
    lines = [f"milnor lattice of {bp}: rank {p['rank']}"]
    for row in p["gram"]:
        lines.append("  " + " ".join(f"{x:3d}" for x in row))
    return "\n".join(lines)


def cmd_spectrum(args) -> dict:
    bp = bk.BrieskornPham.of(*args.exponents)
    values = [rational_str(v) for v in bk.spectrum(bp).values]
    return {
        "exponents": list(bp.exponents),
        "count": len(values),
        "min": values[0],
        "values": values,
    }


def spectrum_table(p: dict) -> str:
    return (
        f"spectrum of {bk.BrieskornPham.of(*p['exponents'])} "
        f"({p['count']} values, min {p['min']}):\n  "
        + " ".join(p["values"])
    )


def cmd_theta7(args) -> dict:
    cfg = gr.GroupConfig(order=args.order, coeff=args.coeff)
    elem = gr.sigma33(args.m, args.n, cfg)
    payload = {
        "order": cfg.order,
        "coeff": cfg.coeff,
        "coeff_coprime": cfg.coeff_coprime,
        "pair": [args.m, args.n],
        "residue": elem.residue,
    }
    if args.steps is not None:
        start, step, target = (gr.theta7(v, cfg) for v in args.steps)
        count = gr.de_sapio_steps(start, step, target)  # Unreachable -> exit 1
        payload["steps"] = {
            "start": start.residue,
            "step": step.residue,
            "target": target.residue,
            "count": count,
        }
    return payload


def theta7_table(p: dict) -> str:
    m, n = p["pair"]
    lines = [
        f"sigma33({m}, {n}) = {p['residue']} in Z_{p['order']} (coeff {p['coeff']})"
    ]
    if "steps" in p:
        s = p["steps"]
        lines.append(
            f"  {s['start']} + {s['count']} * {s['step']} = {s['target']}"
            f" (mod {p['order']})"
        )
    return "\n".join(lines)


def cmd_sigma8(args) -> dict:
    cfg = gr.GroupConfig(order=args.order, coeff=args.coeff)
    elem = gr.sigma_tilde8(args.m, args.n, args.l, cfg)
    return {
        "order": cfg.order,
        "coeff": cfg.coeff,
        "triple": [args.m, args.n, args.l],
        "residue": elem.residue,
    }


def sigma8_table(p: dict) -> str:
    m, n, l = p["triple"]
    return f"sigma_tilde({m}, {n}, {l}) = {p['residue']} in Z_{p['order']}"


def cmd_fano(args) -> dict:
    classes = [gr.RepClass(l) for l in args.exponents]
    total = gr.RepClass(0)
    for c in classes:
        total = gr.fano_moduli_compose(total, c)
    return {
        "exponents": args.exponents,
        "composite": total.exponent,
        "composite_orbifold": gr.is_orbifold_rep(total),
        "orbifold": [gr.is_orbifold_rep(c) for c in classes],
    }


def fano_table(p: dict) -> str:
    return (
        f"composite representation exponent {p['composite']}"
        f" ({'orbifold' if p['composite_orbifold'] else 'not an orbifold'} quotient)"
    )


def cmd_isotropy(args) -> dict:
    data = gr.link_isotropies(args.k, args.l)
    return {
        "k": args.k,
        "l": args.l,
        "weights": list(gr.family_weights(args.k)),
        "isotropies": [
            {"support": list(d.support), "b": d.b, "isotropy": list(d.isotropy)}
            for d in data
        ],
    }


def isotropy_table(p: dict) -> str:
    lines = [f"link k={p['k']}, weights {tuple(p['weights'])}, rep exponent l={p['l']}"]
    for d in p["isotropies"]:
        lines.append(
            f"  support {tuple(d['support'])}: b = {d['b']},"
            f" isotropy Z_{d['b']} x Z_{p['l']}"
        )
    return "\n".join(lines)


def cmd_hodge(args) -> dict:
    diamonds = hg.enumerate_admissible_diamonds(args.branch)
    return {
        "branch": args.branch,
        "count": len(diamonds),
        "diamonds": [[list(row) for row in d.h] for d in diamonds],
    }


def hodge_table(p: dict) -> str:
    blocks = [f"{p['count']} admissible diamond(s) on the {p['branch']} branch"]
    for i, h in enumerate(p["diamonds"]):
        blocks.append(f"--- diamond {i + 1} ---")
        blocks.append(hg.HodgeDiamond(tuple(map(tuple, h))).triangle())
    return "\n".join(blocks)


def cmd_kunneth(args) -> dict:
    coh = hg.hopf_manifold_cohomology(args.m, args.k)
    return {
        "m": args.m,
        "k": args.k,
        "cohomology": graded_json(coh),
        "metadata": {
            "torsion_degrees": [d for d, g in coh.items() if g.torsion],
            "note": (
                "the Tor-free product formula places the degree-4 torsion "
                "class in degree 5 as well; closed-form tables listing only "
                "degree 4 omit it"
            ),
        },
    }


def kunneth_table(p: dict) -> str:
    bundle = MilnorBundle(p["m"], p["k"] - p["m"])
    lines = [f"H*({bundle} x S^1):", graded_table(p["cohomology"])]
    torsion_degrees = p["metadata"]["torsion_degrees"]
    if torsion_degrees:
        lines.append(f"  torsion present in degrees {torsion_degrees}")
    return "\n".join(lines)


def cmd_family_report(args) -> dict:
    if args.start > args.end:
        return {"rows": []}
    if args.start not in bk.FAMILY_RANGE or args.end not in bk.FAMILY_RANGE:
        raise OutOfFamily(
            f"range {args.start}..{args.end} leaves the family range 1..28"
        )
    rows = []
    for k in range(args.start, args.end + 1):
        bp = bk.milnor_family(k)
        mu = bk.milnor_number(bp)
        mu_formula = 2 * (6 * k - 2)
        rows.append(
            {
                "k": k,
                "exponents": list(bp.exponents),
                "mu": mu,
                "mu_formula": mu_formula,
                "mu_match": mu == mu_formula,
                **weighted_type_json(bp),
            }
        )
    return {"rows": rows}


def family_report_table(p: dict) -> str:
    if not p["rows"]:
        return "(empty range)"
    lines = [
        f"{'k':>3} {'exponents':>18} {'mu':>5} {'check':>5} {'ell':>5} "
        f"{'weights':>22} {'type':>6} {'gorenstein':>10}"
    ]
    for r in p["rows"]:
        mark = "ok" if r["mu_match"] else "FAIL"
        lines.append(
            f"{r['k']:>3} {str(tuple(r['exponents'])):>18} {r['mu']:>5} {mark:>5} "
            f"{r['degree']:>5} {str(tuple(r['weights'])):>22} {r['type']:>6} "
            f"{r['gorenstein']:>10}"
        )
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    Every call returns the same parser, so callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="exotic-invariants",
        description="Exact invariants of sphere bundles, dual pairs, "
        "singularity links, and homotopy Hopf manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jsonable = argparse.ArgumentParser(add_help=False)
    jsonable.add_argument("--json", action="store_true", help="emit canonical JSON")

    grouped = argparse.ArgumentParser(add_help=False)
    grouped.add_argument(
        "--order", type=int, default=gr.DEFAULT_CONFIG.order, help="cyclic group order N"
    )
    grouped.add_argument(
        "--coeff",
        type=int,
        default=gr.DEFAULT_CONFIG.coeff,
        help="bilinear pairing coefficient c",
    )

    p = sub.add_parser("milnor", parents=[jsonable], help="bundle invariants")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument(
        "--lambda",
        dest="require_lambda",
        action="store_true",
        help="insist on the mod-7 invariant (error for non-spheres)",
    )
    p.set_defaults(func=cmd_milnor, table=milnor_table)

    p = sub.add_parser("tdual", parents=[jsonable], help="spherical T-dual pair")
    p.add_argument("--m", type=int, required=True, help="first clutching exponent")
    p.add_argument("--k", type=int, required=True, help="euler class")
    p.add_argument("--flux", type=int, required=True, help="degree-7 flux class")
    p.add_argument(
        "--principal", action="store_true", help="use the principal duality rule"
    )
    p.set_defaults(func=cmd_tdual, table=tdual_table)

    p = sub.add_parser("brieskorn", parents=[jsonable], help="singularity invariants")
    p.add_argument("exponents", type=int, nargs="+")
    p.add_argument("--spectrum", action="store_true", help="include the spectrum")
    p.set_defaults(func=cmd_brieskorn, table=brieskorn_table)

    p = sub.add_parser("lattice", parents=[jsonable], help="intersection lattice")
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=cmd_lattice, table=lattice_table)

    p = sub.add_parser("spectrum", parents=[jsonable], help="singularity spectrum")
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=cmd_spectrum, table=spectrum_table)

    p = sub.add_parser(
        "theta7", parents=[jsonable, grouped], help="sphere-group arithmetic"
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument(
        "--steps",
        type=int,
        nargs=3,
        metavar=("START", "STEP", "TARGET"),
        help="count connected-sum steps from START to TARGET",
    )
    p.set_defaults(func=cmd_theta7, table=theta7_table)

    p = sub.add_parser(
        "sigma8", parents=[jsonable, grouped], help="product-group arithmetic"
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_sigma8, table=sigma8_table)

    p = sub.add_parser(
        "fano", parents=[jsonable], help="moduli of circle representations"
    )
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=cmd_fano, table=fano_table)

    p = sub.add_parser("isotropy", parents=[jsonable], help="link isotropy types")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_isotropy, table=isotropy_table)

    p = sub.add_parser("hodge", parents=[jsonable], help="admissible Hodge diamonds")
    p.add_argument("--branch", choices=[hg.UNIT, hg.NONUNIT], required=True)
    p.set_defaults(func=cmd_hodge, table=hodge_table)

    p = sub.add_parser(
        "kunneth", parents=[jsonable], help="cohomology of bundle x circle"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_kunneth, table=kunneth_table)

    p = sub.add_parser(
        "family-report", parents=[jsonable], help="per-k table of link invariants"
    )
    p.add_argument("--start", type=int, default=bk.FAMILY_RANGE[0])
    p.add_argument("--end", type=int, default=bk.FAMILY_RANGE[-1])
    p.set_defaults(func=cmd_family_report, table=family_report_table)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        payload = args.func(args)
    except (DomainError, InvalidArgument) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, InvalidArgument) else 1
    if args.json:
        payload["schema_version"] = SCHEMA_VERSION
        print(canonical_json(payload))
    else:
        print(args.table(payload))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

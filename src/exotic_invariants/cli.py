"""Command-line front door.

Every subcommand prints a human-readable table by default and a canonical
JSON document with --json: keys sorted, two-space indent, no floats, and
rationals rendered as lowest-terms "p/q" strings, so parsing the output
and re-serializing it reproduces the bytes exactly.

Exit status: 0 on success, 1 on domain errors and 2 on invalid arguments
(each with a one-line "error:" diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import brieskorn as bk
from . import groups as gr
from . import hodge as hg
from .abelian import AbelianGroup, GradedGroups
from .bundles import (
    MilnorBundle,
    bundle_cohomology,
    canonical_form,
    characteristic_classes,
    lambda_invariant,
)
from .errors import DomainError, InvalidArgument, OutOfFamily
from .tduality import (
    FluxedBundle,
    dual_pair_summary,
    euler_preserving_dual,
    principal_dual,
)

SCHEMA_VERSION = 1


def rational_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def group_json(g: AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def graded_json(gg: GradedGroups) -> list:
    return [[degree, group_json(group)] for degree, group in gg.items()]


def bundle_json(b: MilnorBundle) -> dict:
    return {"m": b.m, "n": b.n}


def fluxed_json(fb: FluxedBundle) -> dict:
    return {"bundle": bundle_json(fb.bundle), "flux": fb.flux}


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def emit(args, payload: dict, table: str) -> None:
    if args.json:
        payload["schema_version"] = SCHEMA_VERSION
        print(canonical_json(payload))
    else:
        print(table)


def graded_table(gg: GradedGroups) -> str:
    if not gg.items():
        return "  (all degrees trivial)"
    return "\n".join(f"  H^{d} = {g}" for d, g in gg.items())


def cmd_milnor(args) -> int:
    b = MilnorBundle(args.m, args.n)
    cls = characteristic_classes(b)
    lam = None
    if args.require_lambda or cls.homotopy_sphere:
        lam = lambda_invariant(b)  # raises NotHomotopySphere when forced
    coh = bundle_cohomology(b)
    payload = {
        "bundle": bundle_json(b),
        "canonical": bundle_json(canonical_form(b)),
        "euler": cls.euler,
        "pontryagin": cls.pontryagin,
        "principal": cls.principal,
        "homotopy_sphere": cls.homotopy_sphere,
        "lambda": lam,
        "cohomology": graded_json(coh),
    }
    lines = [
        f"{b}: euler {cls.euler}, p1 {cls.pontryagin}, "
        f"{'principal' if cls.principal else 'non-principal'}",
        f"  canonical representative {canonical_form(b)}",
    ]
    if cls.homotopy_sphere:
        verdict = "standard" if lam == 0 else "exotic"
        lines.append(f"  homotopy 7-sphere, lambda = {lam} ({verdict})")
    lines.append("cohomology:")
    lines.append(graded_table(coh))
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_tdual(args) -> int:
    fb = FluxedBundle(MilnorBundle(args.m, args.k - args.m), args.flux)
    if args.principal:
        dual = principal_dual(fb)  # NotPrincipal -> exit 1
    else:
        dual = euler_preserving_dual(fb)
    summary = dual_pair_summary(fb)
    payload = {
        "input": fluxed_json(fb),
        "rule": "principal" if args.principal else "euler_preserving",
        "dual": fluxed_json(dual),
    }
    lines = [f"{fb}  <-->  {dual}"]
    if "correspondence_h7" in summary:
        payload["correspondence_h7"] = group_json(summary["correspondence_h7"])
        payload["lifted_flux"] = summary["lifted_flux"]
        lines.append(f"  correspondence H^7 = {summary['correspondence_h7']}")
        lines.append(f"  common lifted flux = {summary['lifted_flux']}")
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_brieskorn(args) -> int:
    bp = bk.BrieskornPham.of(*args.exponents)
    mu, _ = bk.milnor_number_and_basis(bp)
    ell, weights = bk.weights_and_degree(bp)
    kind, gorenstein = bk.canonical_type(bp)
    payload = {
        "exponents": list(bp.exponents),
        "milnor_number": mu,
        "degree": ell,
        "weights": list(weights),
        "type": kind.value,
        "gorenstein": rational_str(gorenstein),
        "sphere_link_family": bk.in_sphere_link_family(bp),
    }
    lines = [
        f"exponents {bp}",
        f"  milnor number mu = {mu}",
        f"  degree ell = {ell}, weights {weights}",
        f"  type {kind.value}, gorenstein parameter {rational_str(gorenstein)}",
    ]
    if args.spectrum:
        sp = bk.spectrum(bp)
        payload["spectrum"] = [rational_str(v) for v in sp.values]
        payload["spectrum_min"] = rational_str(sp.minimum)
        lines.append(f"  spectrum min = {rational_str(sp.minimum)}")
        lines.append("  spectrum: " + " ".join(rational_str(v) for v in sp.values))
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_lattice(args) -> int:
    bp = bk.BrieskornPham.of(*args.exponents)
    lat = bk.milnor_lattice(bp)
    payload = {
        "exponents": list(bp.exponents),
        "rank": lat.rank,
        "index_set": [list(t) for t in lat.index_set],
        "gram": lat.gram.to_lists(),
    }
    lines = [f"milnor lattice of {bp}: rank {lat.rank}"]
    for row in lat.gram.to_lists():
        lines.append("  " + " ".join(f"{x:3d}" for x in row))
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_spectrum(args) -> int:
    bp = bk.BrieskornPham.of(*args.exponents)
    sp = bk.spectrum(bp)
    payload = {
        "exponents": list(bp.exponents),
        "count": len(sp),
        "min": rational_str(sp.minimum),
        "values": [rational_str(v) for v in sp.values],
    }
    table = (
        f"spectrum of {bp} ({len(sp)} values, min {rational_str(sp.minimum)}):\n  "
        + " ".join(rational_str(v) for v in sp.values)
    )
    emit(args, payload, table)
    return 0


def _config(args) -> gr.GroupConfig:
    return gr.GroupConfig(order=args.order, coeff=args.coeff)


def cmd_theta7(args) -> int:
    cfg = _config(args)
    elem = gr.sigma33(args.m, args.n, cfg)
    payload = {
        "order": cfg.order,
        "coeff": cfg.coeff,
        "coeff_coprime": cfg.coeff_coprime,
        "pair": [args.m, args.n],
        "residue": elem.residue,
    }
    lines = [
        f"sigma33({args.m}, {args.n}) = {elem.residue} in Z_{cfg.order}"
        f" (coeff {cfg.coeff})"
    ]
    if args.steps is not None:
        start, step, target = (gr.theta7(v, cfg) for v in args.steps)
        count = gr.de_sapio_steps(start, step, target)  # Unreachable -> exit 1
        payload["steps"] = {
            "start": start.residue,
            "step": step.residue,
            "target": target.residue,
            "count": count,
        }
        lines.append(
            f"  {start.residue} + {count} * {step.residue} = {target.residue}"
            f" (mod {cfg.order})"
        )
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_sigma8(args) -> int:
    cfg = _config(args)
    elem = gr.sigma_tilde8(args.m, args.n, args.l, cfg)
    payload = {
        "order": cfg.order,
        "coeff": cfg.coeff,
        "triple": [args.m, args.n, args.l],
        "residue": elem.residue,
    }
    emit(
        args,
        payload,
        f"sigma_tilde({args.m}, {args.n}, {args.l}) = {elem.residue} in Z_{cfg.order}",
    )
    return 0


def cmd_fano(args) -> int:
    classes = [gr.RepClass(l) for l in args.exponents]
    total = gr.RepClass(0)
    for c in classes:
        total = gr.fano_moduli_compose(total, c)
    payload = {
        "exponents": args.exponents,
        "composite": total.exponent,
        "composite_orbifold": gr.is_orbifold_rep(total),
        "orbifold": [gr.is_orbifold_rep(c) for c in classes],
    }
    table = (
        f"composite representation exponent {total.exponent}"
        f" ({'orbifold' if gr.is_orbifold_rep(total) else 'not an orbifold'} quotient)"
    )
    emit(args, payload, table)
    return 0


def cmd_isotropy(args) -> int:
    data = gr.link_isotropies(args.k, args.l)
    weights = gr.family_weights(args.k)
    payload = {
        "k": args.k,
        "l": args.l,
        "weights": list(weights),
        "isotropies": [
            {"support": list(d.support), "b": d.b, "isotropy": list(d.isotropy)}
            for d in data
        ],
    }
    lines = [f"link k={args.k}, weights {weights}, rep exponent l={args.l}"]
    for d in data:
        lines.append(
            f"  support {d.support}: b = {d.b}, isotropy Z_{d.b} x Z_{args.l}"
        )
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_hodge(args) -> int:
    diamonds = hg.enumerate_admissible_diamonds(args.branch)
    payload = {
        "branch": args.branch,
        "count": len(diamonds),
        "diamonds": [[list(row) for row in d.h] for d in diamonds],
    }
    blocks = [f"{len(diamonds)} admissible diamond(s) on the {args.branch} branch"]
    for i, d in enumerate(diamonds):
        blocks.append(f"--- diamond {i + 1} ---")
        blocks.append(d.triangle())
    emit(args, payload, "\n".join(blocks))
    return 0


def cmd_kunneth(args) -> int:
    coh = hg.hopf_manifold_cohomology(args.m, args.k)
    torsion_degrees = [d for d, g in coh.items() if g.torsion]
    payload = {
        "m": args.m,
        "k": args.k,
        "cohomology": graded_json(coh),
        "metadata": {
            "torsion_degrees": torsion_degrees,
            "note": (
                "the Tor-free product formula places the degree-4 torsion "
                "class in degree 5 as well; closed-form tables listing only "
                "degree 4 omit it"
            ),
        },
    }
    lines = [f"H*(M({args.m},{args.k - args.m}) x S^1):", graded_table(coh)]
    if torsion_degrees:
        lines.append(f"  torsion present in degrees {torsion_degrees}")
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_family_report(args) -> int:
    if args.start > args.end:
        emit(args, {"rows": []}, "(empty range)")
        return 0
    if args.start not in bk.FAMILY_RANGE or args.end not in bk.FAMILY_RANGE:
        raise OutOfFamily(
            f"range {args.start}..{args.end} leaves the family range 1..28"
        )
    rows = []
    for k in range(args.start, args.end + 1):
        bp = bk.milnor_family(k)
        mu, _ = bk.milnor_number_and_basis(bp)
        ell, weights = bk.weights_and_degree(bp)
        kind, gorenstein = bk.canonical_type(bp)
        rows.append(
            {
                "k": k,
                "exponents": list(bp.exponents),
                "mu": mu,
                "mu_formula": 2 * (6 * k - 2),
                "mu_match": mu == 2 * (6 * k - 2),
                "degree": ell,
                "weights": list(weights),
                "type": kind.value,
                "gorenstein": rational_str(gorenstein),
            }
        )
    header = (
        f"{'k':>3} {'exponents':>18} {'mu':>5} {'check':>5} {'ell':>5} "
        f"{'weights':>22} {'type':>6} {'gorenstein':>10}"
    )
    lines = [header]
    for r in rows:
        mark = "ok" if r["mu_match"] else "FAIL"
        lines.append(
            f"{r['k']:>3} {str(tuple(r['exponents'])):>18} {r['mu']:>5} {mark:>5} "
            f"{r['degree']:>5} {str(tuple(r['weights'])):>22} {r['type']:>6} "
            f"{r['gorenstein']:>10}"
        )
    emit(args, {"rows": rows}, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exotic-invariants",
        description="Exact invariants of sphere bundles, dual pairs, "
        "singularity links, and homotopy Hopf manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jsonable = argparse.ArgumentParser(add_help=False)
    jsonable.add_argument("--json", action="store_true", help="emit canonical JSON")

    grouped = argparse.ArgumentParser(add_help=False)
    grouped.add_argument("--order", type=int, default=28, help="cyclic group order N")
    grouped.add_argument(
        "--coeff", type=int, default=1, help="bilinear pairing coefficient c"
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
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser("tdual", parents=[jsonable], help="spherical T-dual pair")
    p.add_argument("--m", type=int, required=True, help="first clutching exponent")
    p.add_argument("--k", type=int, required=True, help="euler class")
    p.add_argument("--flux", type=int, required=True, help="degree-7 flux class")
    p.add_argument(
        "--principal", action="store_true", help="use the principal duality rule"
    )
    p.set_defaults(func=cmd_tdual)

    p = sub.add_parser("brieskorn", parents=[jsonable], help="singularity invariants")
    p.add_argument("exponents", type=int, nargs="+")
    p.add_argument("--spectrum", action="store_true", help="include the spectrum")
    p.set_defaults(func=cmd_brieskorn)

    p = sub.add_parser("lattice", parents=[jsonable], help="intersection lattice")
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("spectrum", parents=[jsonable], help="singularity spectrum")
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=cmd_spectrum)

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
    p.set_defaults(func=cmd_theta7)

    p = sub.add_parser(
        "sigma8", parents=[jsonable, grouped], help="product-group arithmetic"
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_sigma8)

    p = sub.add_parser(
        "fano", parents=[jsonable, grouped], help="moduli of circle representations"
    )
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=cmd_fano)

    p = sub.add_parser("isotropy", parents=[jsonable], help="link isotropy types")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_isotropy)

    p = sub.add_parser("hodge", parents=[jsonable], help="admissible Hodge diamonds")
    p.add_argument("--branch", choices=[hg.UNIT, hg.NONUNIT], required=True)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser(
        "kunneth", parents=[jsonable], help="cohomology of bundle x circle"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_kunneth)

    p = sub.add_parser(
        "family-report", parents=[jsonable], help="per-k table of link invariants"
    )
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--end", type=int, default=28)
    p.set_defaults(func=cmd_family_report)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return args.func(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvalidArgument as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

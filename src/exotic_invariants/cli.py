"""Command-line front door.

Each subcommand's `cmd_*` computes one payload and `run` alone prints it:
with --json through `canonical_json`, whose docstring states the writer's
rules, and otherwise through the subcommand's `*_table` renderer, which
reads only the payload and rebuilds the values it prints through
`errors._trusted`, unchecked.  The argument parser is built once per
process and holds only argument grammar: `run` looks up `cmd_<name>` and
`<name>_table` in this module when each request arrives, with <name> the
subcommand's name with "-" turned into "_", so every subcommand must keep
that naming.  `parse_args` states how argv reaches the parsers.

Exit status: 0 on success, 1 on domain errors, 2 on invalid arguments and
usage errors; all but usage errors print one "error:" line on stderr.
When the reader closes stdout early, `exit_after` exits 1 with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii
from math import gcd

from . import brieskorn as bk
from . import groups as gr
from . import hodge as hg
from .abelian import AbelianGroup, GradedGroups
from .bundles import MilnorBundle, lambda_invariant
from .errors import DomainError, InvalidArgument, OutOfFamily, _trusted
from .snf import IntMatrix
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


# Decimal text of each int from -1024 to 1024, built once for `_emit`; the
# entries of the family grams all fall inside.
_DECIMAL = {i: str(i) for i in range(-1024, 1025)}


def canonical_json(payload: dict) -> str:
    """Payload as `json.dumps(payload, sort_keys=True, indent=2)` writes it,
    ASCII-escaped.

    Only dict with str keys, list, str, int, bool, None and `IntMatrix`
    are canonical; anything else, a float or a tuple among them, raises
    TypeError.  An IntMatrix is written as `to_lists()` would be, the list
    of its rows, each row read from its entries with no type check: they
    are exact ints by construction.  A list is a list of exact ints only
    after its type check: one holding False, True, 0.0 or 2.0 is not, and
    is written item by item.  A row or int list more than half of whose
    items are 0 is written by zero runs, converting only its nonzero
    items; any other is written from the decimal table when every item is
    in it, and item by item otherwise.

    >>> from exotic_invariants.snf import IntMatrix
    >>> print(canonical_json({"gram": IntMatrix.from_rows([[2, 0], [0, 2]])}))
    {
      "gram": [
        [
          2,
          0
        ],
        [
          0,
          2
        ]
      ]
    }

    >>> print(canonical_json({"gram": [[2, -1], [-1, 2]], "rank": 2}))
    {
      "gram": [
        [
          2,
          -1
        ],
        [
          -1,
          2
        ]
      ],
      "rank": 2
    }
    >>> print(canonical_json({"row": [0, 0, -1, 0, 0]}))
    {
      "row": [
        0,
        0,
        -1,
        0,
        0
      ]
    }
    >>> canonical_json({"gram": [[2, -1], [-1, 2.0]]})
    Traceback (most recent call last):
    ...
    TypeError: float is not canonical JSON
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
            # Exact ints only: False, True, 0.0 and 2.0 compare and hash
            # equal to 0, 1, 0 and 2, so the type check must come before
            # the count of zeros and the table lookup.
            _emit_ints(value, newline, parts)
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
    elif kind is IntMatrix:
        # Its entries are exact ints by construction: each row is a slice
        # of them, written with no type check.
        if not value.rows:
            parts.append("[]")
            return
        inner = newline + "  "
        entries, cols = value.entries, value.cols
        separator = "[" + inner
        for i in range(value.rows):
            parts.append(separator)
            _emit_ints(entries[i * cols : i * cols + cols], inner, parts)
            separator = "," + inner
        parts += (newline, "]")
    else:
        raise TypeError(f"{kind.__name__} is not canonical JSON")


def _emit_ints(items, newline: str, parts: list) -> None:
    """Append the JSON text of items, a list or tuple of exact ints, as
    `_emit` does for a list."""
    if not items:
        parts.append("[]")
        return
    inner = newline + "  "
    separator = "," + inner
    parts += ("[", inner)
    if 2 * items.count(0) > len(items):
        # Mostly zeros: each run of them is one repeated text, and only the
        # nonzero items are converted.
        zero = "0" + separator
        start = 0
        for i in compress(range(len(items)), items):
            parts += (zero * (i - start), str(items[i]), separator)
            start = i + 1
        if start < len(items):
            parts += (zero * (len(items) - start - 1), "0")
        else:
            parts.pop()  # the separator after the last item
    else:
        try:
            parts.append(separator.join(map(_DECIMAL.__getitem__, items)))
        except KeyError:
            # An int outside the table.  Not the repr of items: a
            # one-item tuple's repr ends in a comma.
            parts.append(separator.join(map(str, items)))
    parts += (newline, "]")


def _group(g: dict) -> AbelianGroup:
    return _trusted(AbelianGroup, g["free_rank"], tuple(g["torsion"]))


def _bundle(b: dict) -> MilnorBundle:
    return _trusted(MilnorBundle, b["m"], b["n"])


def _fluxed(fb: dict) -> FluxedBundle:
    return _trusted(FluxedBundle, _bundle(fb["bundle"]), fb["flux"])


def graded_table(cohomology: list) -> str:
    return "\n".join(f"  H^{d} = {_group(g)}" for d, g in cohomology)


def weighted_type_json(bp: bk.BrieskornPham) -> dict:
    """Degree, weights, canonical type and Gorenstein parameter of bp."""
    ell, weights = bp.weights_and_degree
    kind, gorenstein = bp.canonical_type
    return {
        "degree": ell,
        "weights": list(weights),
        "type": kind.value,
        "gorenstein": rational_str(gorenstein),
    }


def spectrum_json(bp: bk.BrieskornPham) -> list:
    """The spectrum of bp as rational strings, written from its sorted
    integer numerators: x over ell in lowest terms is x // g over ell // g
    with g = gcd(x, ell), as `rational_str` writes the Fraction.  Equal
    numerators are adjacent, so each run of them is written once."""
    ell, nums = bk.spectrum(bp)
    texts = []
    last = text = None
    for x in nums:
        if x != last:
            g = gcd(x, ell)
            last, text = x, f"{x // g}/{ell // g}"
        texts.append(text)
    return texts


def cmd_milnor(args) -> dict:
    b = MilnorBundle(args.m, args.n)
    lam = None
    if args.require_lambda or b.is_homotopy_sphere:
        lam = lambda_invariant(b)  # raises NotHomotopySphere when forced
    return {
        "bundle": bundle_json(b),
        "canonical": bundle_json(b.canonical_form),
        "euler": b.euler,
        "pontryagin": b.pontryagin,
        "principal": b.is_principal,
        "homotopy_sphere": b.is_homotopy_sphere,
        "lambda": lam,
        "cohomology": graded_json(b.cohomology),
    }


def milnor_table(p: dict) -> str:
    lines = [
        f"{_bundle(p['bundle'])}: euler {p['euler']}, p1 {p['pontryagin']}, "
        f"{'principal' if p['principal'] else 'non-principal'}",
        f"  canonical representative {_bundle(p['canonical'])}",
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
    # The spectrum comes first, so that an oversized one is refused before
    # any other work.
    values = spectrum_json(bp) if args.spectrum else None
    payload = {
        "exponents": list(bp.exponents),
        "milnor_number": bp.milnor_number,
        **weighted_type_json(bp),
        "sphere_link_family": bp.in_sphere_link_family,
    }
    if values is not None:
        payload["spectrum"] = values
        payload["spectrum_min"] = values[0]
    return payload


def brieskorn_table(p: dict) -> str:
    lines = [
        f"exponents {_trusted(bk.BrieskornPham, tuple(p['exponents']))}",
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
        "gram": lat.gram,
    }


def lattice_table(p: dict) -> str:
    bp = _trusted(bk.BrieskornPham, tuple(p["exponents"]))
    lines = [f"milnor lattice of {bp}: rank {p['rank']}"]
    for row in p["gram"].to_lists():
        lines.append("  " + " ".join(f"{x:3d}" for x in row))
    return "\n".join(lines)


def cmd_spectrum(args) -> dict:
    bp = bk.BrieskornPham.of(*args.exponents)
    values = spectrum_json(bp)
    return {
        "exponents": list(bp.exponents),
        "count": len(values),
        "min": values[0],
        "values": values,
    }


def spectrum_table(p: dict) -> str:
    return (
        f"spectrum of {_trusted(bk.BrieskornPham, tuple(p['exponents']))} "
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
        "composite_orbifold": total.is_orbifold,
        "orbifold": [c.is_orbifold for c in classes],
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
        blocks.append(_trusted(hg.HodgeDiamond, tuple(map(tuple, h))).triangle())
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
    bundle = _trusted(MilnorBundle, p["m"], p["k"] - p["m"])
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
            f"range {args.start}..{args.end} leaves the family range 1..{bk.BP8_ORDER}"
        )
    rows = []
    # The range is checked: its members are read from the family as built.
    for k, bp in enumerate(bk._FAMILY[args.start - 1 : args.end], args.start):
        mu = bp.milnor_number
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

    Every call returns the same parser, so callers must not mutate it.  It
    carries argument grammar only, no functions: `run` finds each
    subcommand's `cmd_<name>` and `<name>_table` by name, so a replacement
    of either in this module takes effect on the next request.  Its
    `subcommands` maps each subcommand's name to that subcommand's parser,
    which `parse_args` calls directly; the top-level parser itself answers
    only help, a missing or unknown subcommand and leftover arguments.
    """
    parser = argparse.ArgumentParser(
        prog="exotic-invariants",
        description="Exact invariants of sphere bundles, dual pairs, "
        "singularity links, and homotopy Hopf manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jsonable = argparse.ArgumentParser(add_help=False)
    jsonable.add_argument("--json", action="store_true", help="emit canonical JSON")

    exponents = argparse.ArgumentParser(add_help=False, parents=[jsonable])
    exponents.add_argument("exponents", type=int, nargs="+")

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

    p = sub.add_parser("tdual", parents=[jsonable], help="spherical T-dual pair")
    p.add_argument("--m", type=int, required=True, help="first clutching exponent")
    p.add_argument("--k", type=int, required=True, help="euler class")
    p.add_argument("--flux", type=int, required=True, help="degree-7 flux class")
    p.add_argument(
        "--principal", action="store_true", help="use the principal duality rule"
    )

    p = sub.add_parser("brieskorn", parents=[exponents], help="singularity invariants")
    p.add_argument("--spectrum", action="store_true", help="include the spectrum")

    sub.add_parser("lattice", parents=[exponents], help="intersection lattice")
    sub.add_parser("spectrum", parents=[exponents], help="singularity spectrum")

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

    p = sub.add_parser(
        "sigma8", parents=[jsonable, grouped], help="product-group arithmetic"
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)

    sub.add_parser("fano", parents=[exponents], help="moduli of circle representations")

    p = sub.add_parser("isotropy", parents=[jsonable], help="link isotropy types")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)

    p = sub.add_parser("hodge", parents=[jsonable], help="admissible Hodge diamonds")
    p.add_argument("--branch", choices=[hg.UNIT, hg.NONUNIT], required=True)

    p = sub.add_parser(
        "kunneth", parents=[jsonable], help="cohomology of bundle x circle"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser(
        "family-report", parents=[jsonable], help="per-k table of link invariants"
    )
    p.add_argument("--start", type=int, default=bk.FAMILY_RANGE[0])
    p.add_argument("--end", type=int, default=bk.FAMILY_RANGE[-1])

    parser.subcommands = sub.choices
    return parser


def parse_args(argv) -> argparse.Namespace:
    """argv parsed as `build_parser().parse_args(argv)` parses it.

    When argv[0] names a subcommand, that subcommand's parser parses the
    rest directly, as the top-level parser would hand it on.  Any other
    argv, and one with arguments left over, goes to the top-level parser,
    which answers help and reports each usage error as a full parse does.
    """
    parser = build_parser()
    if argv and argv[0] in parser.subcommands:
        args, extras = parser.subcommands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return e.code
    name = args.command.replace("-", "_")
    try:
        payload = globals()[f"cmd_{name}"](args)
    except (DomainError, InvalidArgument) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, InvalidArgument) else 1
    if args.json:
        payload["schema_version"] = SCHEMA_VERSION
        print(canonical_json(payload))
    else:
        print(globals()[f"{name}_table"](payload))
    return 0


def exit_after(fn, *args) -> None:
    """Exit with the status `fn(*args)` returns (None for 0), after
    flushing stdout.  When the reader closes stdout early, exit 1 with
    nothing on stderr: `main` and the timing tools in tools/ all exit here.
    """
    try:
        code = fn(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


def main() -> None:
    exit_after(run, sys.argv[1:])


if __name__ == "__main__":
    main()

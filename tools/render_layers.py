"""Time the layers of the CLI's largest `--json` requests.

    PYTHONPATH=src python3 tools/render_layers.py [--k 2 4 ... 28]

Inputs: the family lattices `lattice 6k-1 3 2 2 2 --json` for each k, each
followed by the same lattice in ascending factor order, `lattice 2 2 2 3
6k-1 --json`, whose gram rows hold the same entries in other places (the
`lattice-render` workload shuffles the factors, so both layouts occur),
and the two largest spectra of the `lattice-render` workload's size,
`spectrum 11 11 11 8 --json` (mu 7000) and `brieskorn 11 9 7 4 6
--spectrum --json` (mu 7200).  For each it prints one JSON line: the rank
or mu, the best wall time (unscaled seconds, `snf_layers.best_seconds`) of
the layer that builds the payload's big value (`milnor_lattice` for a
lattice, whose gram goes into the payload as the IntMatrix it is,
`spectrum_json` for a spectrum), of `canonical_json` on the whole payload
and of the whole `cli.run`, and the bytes `cli.run` writes.  Everything
is measured in the one process that runs it.  It exits through
`cli.exit_after`, the route of `cli.main`: with 1 and nothing on stderr
when its reader closes stdout early.  Set PYTHONPATH to another checkout's
src/ that has `cli.exit_after` to time that one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json

from snf_layers import best_seconds

from exotic_invariants import brieskorn, cli

# (subcommand, exponents, flags) of the spectrum inputs.
SPECTRA = (
    ("spectrum", (11, 11, 11, 8), []),
    ("brieskorn", (11, 9, 7, 4, 6), ["--spectrum"]),
)


def run_quietly(argv) -> str:
    """What `cli.run(argv)` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def row(argv, size_name: str, size: int, layers: dict) -> dict:
    args = cli.parse_args(argv)
    payload = getattr(cli, "cmd_" + args.command)(args)
    payload["schema_version"] = cli.SCHEMA_VERSION
    text = run_quietly(argv)
    assert text == cli.canonical_json(payload) + "\n"
    names = [*layers, "canonical_json", "run"]
    fns = [*layers.values(), lambda: cli.canonical_json(payload), lambda: run_quietly(argv)]
    line = {"input": " ".join(argv), size_name: size}
    for name, seconds in zip(names, best_seconds(fns)):
        line[name + "_s"] = round(seconds, 5)
    line["bytes"] = len(text.encode())
    return line


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="*", default=list(range(2, 29, 2)))
    args = parser.parse_args(argv)
    for k in args.k:
        exponents = brieskorn.milnor_family(k).exponents
        for bp in map(brieskorn.BrieskornPham, (exponents, sorted(exponents))):
            layers = {"milnor_lattice": lambda: brieskorn.milnor_lattice(bp)}
            argv = ["lattice", *map(str, bp.exponents), "--json"]
            print(json.dumps(row(argv, "rank", bp.milnor_number, layers)), flush=True)
    for command, exponents, flags in SPECTRA:
        bp = brieskorn.BrieskornPham.of(*exponents)
        argv = [command, *map(str, exponents), *flags, "--json"]
        layers = {"spectrum_json": lambda: cli.spectrum_json(bp)}
        print(json.dumps(row(argv, "mu", bp.milnor_number, layers)), flush=True)


if __name__ == "__main__":
    cli.exit_after(main)

"""Time `snf.invariant_factors` against the Bareiss elimination it starts from.

    PYTHONPATH=src python3 tools/snf_layers.py [--k 6 10 14 18 22 28]

Inputs: the paper-rule family grams of `milnor_lattice(milnor_family(k))`,
then one 80x80 matrix with entries uniform in [-20, 20] (random.Random(80)),
whose line comes last because it takes longest: a reader that closes the
pipe after the first of two or more family lines stops the tool before it
builds the dense matrix.  For each it prints one JSON line: the
shape, the rank, the bit length of the pivot minor D, the bit length of the
modulus that `invariant_factors` ran its pass `_diagonal_gcds` with (0 when
it skipped the pass), the best wall time of `invariant_factors` and of
`_bareiss` over REPEATS runs (unscaled seconds), and their ratio, all
measured in the one process that runs it.  The dense line also gives the
best wall time of `smith_normal_form` and the largest bit length of an
entry of its transforms U and V.  It exits through `cli.exit_after`, the
route of `cli.main`: with 1 and nothing on stderr when its reader closes
stdout early.  Set PYTHONPATH to another checkout's src/ that has
`cli.exit_after` to time that one.
"""

from __future__ import annotations

import argparse
import json
import random
from time import perf_counter

from exotic_invariants import brieskorn, cli, snf

REPEATS = 3


def best_seconds(fns) -> list:
    """The best wall time of each function over REPEATS runs, taken in
    turn so that a change of host speed reaches all of them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            t0 = perf_counter()
            fn()
            best[i] = min(best[i], perf_counter() - t0)
    return best


def pass_modulus(M) -> int:
    """The modulus `invariant_factors(M)` runs `_diagonal_gcds` with, or 0
    when it skips that pass."""
    moduli, run = [0], snf._diagonal_gcds

    def spy(a, D):
        moduli.append(D)
        return run(a, D)

    snf._diagonal_gcds = spy
    try:
        snf.invariant_factors(M)
    finally:
        snf._diagonal_gcds = run
    return moduli[-1]


def row(label: str, M) -> dict:
    # `_bareiss` returns (r, d, p); an older checkout's returns (r, d).
    r, d = snf._bareiss(M)[:2]
    factors_s, bareiss_s = best_seconds(
        [lambda: snf.invariant_factors(M), lambda: snf._bareiss(M)]
    )
    return {
        "input": label,
        "shape": [M.rows, M.cols],
        "rank": r,
        "D_bits": abs(d).bit_length(),
        "modulus_bits": pass_modulus(M).bit_length(),
        "invariant_factors_s": round(factors_s, 4),
        "bareiss_s": round(bareiss_s, 4),
        "ratio": round(factors_s / bareiss_s, 2),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="*", default=[6, 10, 14, 18, 22, 28])
    args = parser.parse_args(argv)
    for k in args.k:
        gram = brieskorn.milnor_lattice(brieskorn.milnor_family(k)).gram
        print(json.dumps(row(f"family gram k={k}", gram)), flush=True)
    rng = random.Random(80)
    dense = snf.IntMatrix.from_rows(
        [[rng.randint(-20, 20) for _ in range(80)] for _ in range(80)]
    )
    line = row("dense 80x80", dense)
    [snf_s] = best_seconds([lambda: snf.smith_normal_form(dense)])
    line["smith_normal_form_s"] = round(snf_s, 4)
    U, _, V = snf.smith_normal_form(dense)
    line["transform_bits"] = max(abs(x).bit_length() for x in U.entries + V.entries)
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    cli.exit_after(main)

"""Byte-for-byte replay of recorded Smith normal forms.

`goldens/snf.json` holds (M, U, D, V) for the seeded matrices of `cases()`:
every shape r x c with r, c in 0..5 and entries in [-20, 20], products
through a middle of width at most 2 (rank <= 2), diag(2, 3) (which takes
the divisibility fix), a matrix whose first pivot is negative and one with
10^40 entries.  The alternating row and column Hermite passes and the
column addition for divisibility fix U and V, not just D, so a change of
operation order in any of them shows up here on any shape.  Re-record it with

    PYTHONPATH=src python tests/test_snf_goldens.py

only when a change of the transforms is intended.
"""

import json
import random
from pathlib import Path

import pytest

from exotic_invariants.snf import IntMatrix, invariant_factors, smith_normal_form

GOLDENS = Path(__file__).parent / "goldens" / "snf.json"


def seeded(rng, rows, cols, bound) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def cases() -> list:
    """(name, M) for every recorded matrix, drawn from fixed seeds."""
    rng = random.Random(5)
    out = [(f"dense {r}x{c}", seeded(rng, r, c, 20)) for r in range(6) for c in range(6)]
    for n in range(20):
        r, w, c = rng.randint(1, 6), n % 3, rng.randint(1, 6)
        out.append((f"thin {n}: {r}x{w}x{c}", seeded(rng, r, w, 5) @ seeded(rng, w, c, 5)))
    big = 10**40
    rows = IntMatrix.from_rows
    return out + [
        ("diag(2, 3)", IntMatrix.from_diagonal([2, 3])),
        ("negative pivot", rows([[-3, 7, 5], [9, -6, 4]])),
        ("10^40 entries", rows([[big, 1, -big], [3 * big, big + 7, 2], [0, big, -5 * big]])),
    ]


def record_of(name, m) -> dict:
    u, d, v = smith_normal_form(m)
    return {
        "name": name,
        "shape": [m.rows, m.cols],
        "m": m.to_lists(),
        "u": u.to_lists(),
        "d": d.to_lists(),
        "v": v.to_lists(),
    }


def matrix_of(entry) -> IntMatrix:
    return IntMatrix(*entry["shape"], tuple(x for r in entry["m"] for x in r))


def record() -> None:
    entries = [record_of(name, m) for name, m in cases()]
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(entries, indent=1) + "\n")


GOLDEN_ENTRIES = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else []


def test_goldens_cover_every_case():
    assert [(e["name"], matrix_of(e)) for e in GOLDEN_ENTRIES] == cases()


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=lambda e: e["name"])
def test_snf_matches_golden(entry):
    m = matrix_of(entry)
    assert record_of(entry["name"], m) == entry
    assert invariant_factors(m) == [entry["d"][i][i] for i in range(min(m.rows, m.cols))]


if __name__ == "__main__":
    record()

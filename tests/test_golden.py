"""Golden table of structure constants and k-Schur expansions at n = 3, 4.

The table pins, integer for integer, the output of the symmetric-function
layer on a fixed sweep:

* structure_constants(u, v, basis, n) for both bases, at n = 3 and 4, over
  Grassmannian u and v of length 1 to 3, terms in the returned order;
* k_schur(b, n) for every (n-1)-bounded partition b with 1 <= |b| <= 8 at
  n = 3 and 4, terms sorted.

Regenerate only from a program whose outputs are known to be right:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from affine_insertion.cores import grassmannians_by_length, partitions
from affine_insertion.symfunc import k_schur, structure_constants

GOLDEN_PATH = Path(__file__).with_name("golden_symfunc.json")


def golden_table() -> dict[str, list]:
    table = {}
    for n in (3, 4):
        grass = [u for length in (1, 2, 3) for u in grassmannians_by_length(n, length)]
        for basis in ("strong", "weak"):
            for u in grass:
                for v in grass:
                    consts = structure_constants(u, v, basis, n)
                    table[f"{basis} n={n} {u} * {v}"] = [[list(w.window), c] for w, c in consts.items()]
        for degree in range(1, 9):
            for b in partitions(degree, n - 1):
                terms = sorted([list(lam), c] for lam, c in k_schur(b, n).coeffs.items())
                table[f"k_schur n={n} {list(b)}"] = terms
    return table


def test_golden_table_matches_exactly():
    expected = json.loads(GOLDEN_PATH.read_text())
    got = golden_table()
    assert len(expected) == 186
    assert list(got) == list(expected)
    for key, terms in expected.items():
        assert got[key] == terms, key


if __name__ == "__main__":
    table = golden_table()
    lines = [f"{json.dumps(key)}: {json.dumps(terms, separators=(',', ':'))}" for key, terms in table.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} entries to {GOLDEN_PATH}")

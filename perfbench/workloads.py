"""
The four benchmark workloads: their inputs, one item each, and the checks.

``batch(name, seed, seconds)`` lists the items of one run; ``run_item(name,
item)`` processes one item and returns whether its outputs were right and
how long its timed phases took.  The checks are written here, without the
library's own asserts, so they hold under any interpreter flags.

The seed only draws the inputs of rsk-limit and big-roundtrip.  kschur-table
and pieri-cauchy are fixed enumerations in a fixed order.  Batches are sized
so that one run takes about RUN_SECONDS on a 2-CPU Xeon at the commit that
introduced this benchmark; a faster program finishes the same batch sooner.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import time
from pathlib import Path

from affine_insertion import cli
from affine_insertion.cores import (
    core_of,
    partitions,
    strong_tableau_filling,
    weak_tableau_filling,
)
from affine_insertion.insertion import (
    BoundedMatrix,
    affine_uninsert,
    classical_rsk,
    grassmannian_rsk,
)
from affine_insertion.symfunc import k_schur, k_schur_spin

RUN_SECONDS = 20  # run_seconds in BENCHMARK.json

# Items per second of the seeded workloads when the benchmark was introduced
# (perfbench/README.md names the machine).
SEEDED_RATE = {"rsk-limit": 180.0, "big-roundtrip": 7.0}

RSK_N, RSK_DIM, RSK_MAX = 20, 3, 2
BIG_N, BIG_DIMS = 8, range(16, 25)


# Three cost clusters, sized so that the median and the tail (ten items
# beyond it) each fall inside a cluster of similar items rather than between
# two: 22 spin expansions (degree <= 6, a few ms to 0.1 s), 30 plain ones at
# degree 8 (0.1 to 0.26 s) and 17 at degree 9 (0.33 to 0.4 s), then the
# degree-11 case where symmetry_report dominates.  One fixed shuffle spreads
# items of one cost over the whole run, so these statistics average the
# machine's drift instead of sampling a few seconds of it.
KSCHUR_TABLE = (
    [("spin", 4, b) for degree in range(1, 7) for b in partitions(degree, 3)]
    + [("plain", n, b) for n in (3, 4, 5) for b in partitions(8, n - 1)]
    + [("plain", n, b) for n in (3, 4) for b in partitions(9, n - 1)]
)
random.Random(0).shuffle(KSCHUR_TABLE)
KSCHUR_TABLE.append(("plain", 4, (3, 3, 2, 2, 1)))

PIERI_CAUCHY = [
    ["cauchy", "--n", "3", "--dx", "5", "--vy", "2", "--u", "[0,1,5]", "--v", "[-1,1,6]"],
    ["verify", "cauchy", "--n", "3"],
    ["verify", "pieri", "--n", "3", "--max", "6"],
    ["verify", "pieri", "--n", "4", "--max", "4", "--rmax", "3"],
]

DIGESTS_PATH = Path(__file__).with_name("kschur_digests.json")


def batch(name: str, seed: int, seconds: float) -> list:
    """The items of one run, in order."""
    if name in SEEDED_RATE:
        count = max(1, round(seconds * SEEDED_RATE[name]))
        rng = random.Random(f"{name}/{seed}")
        draw = _rsk_matrix if name == "rsk-limit" else _big_matrix
        return [draw(rng, k) for k in range(count)]
    fixed = KSCHUR_TABLE if name == "kschur-table" else PIERI_CAUCHY
    count = max(1, min(len(fixed), round(len(fixed) * seconds / RUN_SECONDS)))
    return list(fixed[:count])


def _rsk_matrix(rng: random.Random, k: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(0, RSK_MAX) for _ in range(RSK_DIM)] for _ in range(RSK_DIM)]
        if any(map(any, rows)):
            return rows


def _big_matrix(rng: random.Random, k: int) -> list[list[int]]:
    """Dimension cycles through 16..24; each row sum < n lands on random columns."""
    dim = BIG_DIMS[k % len(BIG_DIMS)]
    rows = [[0] * dim for _ in range(dim)]
    for row in rows:
        for _ in range(rng.randint(0, BIG_N - 1)):
            row[rng.randrange(dim)] += 1
    return rows


def run_item(name: str, item) -> tuple[bool, dict[str, float]]:
    return RUNNERS[name](item)


def _rsk_limit(rows) -> tuple[bool, dict[str, float]]:
    m = BoundedMatrix.from_rows(rows)
    t0 = time.perf_counter()
    p, q = grassmannian_rsk(m, RSK_N)
    t1 = time.perf_counter()
    p_rows = _filling_rows(strong_tableau_filling(p), core_of(p.outside), lambda v: v[0])
    q_rows = _filling_rows(weak_tableau_filling(q), core_of(q.outside), lambda v: v)
    ok = (p_rows, q_rows) == tuple(classical_rsk(m))
    t2 = time.perf_counter()
    t_tab, u_tab, back = affine_uninsert(p, q)
    t3 = time.perf_counter()
    ok = ok and back == m and not t_tab.strips and not u_tab.strips
    return ok, {"insert": t1 - t0, "uninsert": t3 - t2}


def _filling_rows(fill, shape, letter) -> list[list[int]]:
    return [[letter(fill[(i, j)]) for j in range(1, part + 1)] for i, part in enumerate(shape, 1)]


def _big_roundtrip(rows) -> tuple[bool, dict[str, float]]:
    m = BoundedMatrix.from_rows(rows)
    t0 = time.perf_counter()
    p, q = grassmannian_rsk(m, BIG_N)
    t1 = time.perf_counter()
    t_tab, u_tab, back = affine_uninsert(p, q)
    t2 = time.perf_counter()
    ok = (
        back == m
        and not t_tab.strips
        and not u_tab.strips
        and _trimmed(p.weight()) == _trimmed(m.colsums())
        and _trimmed(q.weight()) == _trimmed(m.rowsums())
    )
    return ok, {"insert": t1 - t0, "uninsert": t2 - t1}


def _trimmed(weight) -> tuple[int, ...]:
    weight = tuple(weight)
    while weight and weight[-1] == 0:
        weight = weight[:-1]
    return weight


def kschur_label(item) -> str:
    kind, n, b = item
    return f"{kind} n={n} {list(b)}"


def kschur_digest(item) -> str:
    """sha256 of the canonical JSON of one plain or spin-graded expansion."""
    kind, n, b = item
    if kind == "plain":
        terms = sorted([list(lam), c] for lam, c in k_schur(b, n).coeffs.items())
    else:
        terms = sorted([[list(lam), spin], c] for (lam, spin), c in k_schur_spin(b, n).coeffs.items())
    text = json.dumps(terms, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def expected_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def _kschur_table(item) -> tuple[bool, dict[str, float]]:
    return kschur_digest(item) == expected_digests()[kschur_label(item)], {}


def _pieri_cauchy(argv) -> tuple[bool, dict[str, float]]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit:  # argparse rejected the arguments
        return False, {}
    lines = out.getvalue().splitlines()
    passed = any(line == "PASS" or line.endswith(": PASS") for line in lines)
    return code == 0 and passed, {}


RUNNERS = {
    "rsk-limit": _rsk_limit,
    "big-roundtrip": _big_roundtrip,
    "kschur-table": _kschur_table,
    "pieri-cauchy": _pieri_cauchy,
}


if __name__ == "__main__":
    # Record the expected k-Schur digests from the current program.
    digests = {kschur_label(item): kschur_digest(item) for item in KSCHUR_TABLE}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")

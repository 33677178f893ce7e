"""
Command-line front end: insertion, conversion, enumeration, rendering,
and the verification suites, with JSON or text output.

Exit codes: 0 success, 1 assertion failure in a verify suite, 2 bad usage
or invalid input.  All randomized sampling takes an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .affperm import code, format_window, identity, parse_window
from .cores import (
    bounded_of,
    conjugate,
    core_of,
    core_of_bounded,
    format_partition,
    grassmannian_of,
    k_conjugate,
    offsets,
    core_from_offsets,
    parse_partition,
    render_strong_tableau,
    render_weak_tableau,
)
from .insertion import affine_insert, affine_uninsert
from .serialize import (
    audit_to_json,
    dumps,
    matrix_from_text,
    pair_from_json,
    pair_to_json,
    strong_strip_to_json,
    strong_tableau_from_json,
    strong_tableau_to_json,
    weak_strip_to_json,
    weak_tableau_from_json,
    weak_tableau_to_json,
)
from .strong import StrongTableau, marked_covers_above, strong_strips_from, strong_tableaux
from .symfunc import cauchy_check, k_schur, k_schur_spin, pieri_checks
from .verify import SUITES, run_suite
from .weak import WeakTableau, weak_strips_from, weak_tableaux

CONVERT_KINDS = ("window", "core", "bounded", "offsets", "code")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def rank(text: str) -> int:
    """argparse type of --n: the rank n of the affine symmetric group, n >= 2."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"rank must be at least 2, got {n}")
    return n


def nonnegative(text: str) -> int:
    """argparse type of a count or bound flag: an integer >= 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {k}")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="affins", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("insert", help="affine insertion of an n-bounded matrix")
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--matrix", help="JSON array-of-arrays or whitespace grid")
    p.add_argument("--u", help="window of u (requires --v equal to it)")
    p.add_argument("--v", help="window of v")
    p.add_argument("--reverse", action="store_true", help="uninsert a (P, Q) pair")
    p.add_argument("--pair", help="path of a pair JSON file, or - for stdin")
    p.add_argument("--audit", action="store_true", help="emit the case trail")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("convert", help="apply the window/core/bounded/offsets/code bijections")
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--from", dest="src", choices=CONVERT_KINDS, required=True)
    p.add_argument("--to", dest="dst", choices=CONVERT_KINDS, required=True)
    p.add_argument("value")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("enumerate", help="strips, covers, or tableaux from an element")
    p.add_argument("kind", choices=("weak-strips", "strong-strips", "covers", "weak-tableaux", "strong-tableaux"))
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--inside", required=True, help="window")
    p.add_argument("--outside", help="window (tableaux kinds)")
    p.add_argument("--size", type=nonnegative, default=1)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("render", help="ASCII-render a tableau JSON document")
    p.add_argument("--kind", choices=("weak", "strong"), required=True)
    p.add_argument("--tableau", required=True, help="path of a tableau JSON file, or - for stdin")
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--l", type=int, default=0)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("kschur", help="monomial expansion of a k-Schur function")
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--shape", required=True, help="bounded partition, e.g. (2,2)")
    p.add_argument("--spin", action="store_true", help="spin-graded coefficients")
    p.set_defaults(func=cmd_kschur)

    p = sub.add_parser("cauchy", help="check the affine Cauchy identity")
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--dx", type=nonnegative, default=3)
    p.add_argument("--vy", type=nonnegative, default=2)
    p.add_argument("--u", help="window for the generalized identity")
    p.add_argument("--v", help="window for the generalized identity")
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("pieri", help="check the four Pieri rules at one element")
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--w", required=True, help="window")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--max", type=nonnegative, default=3, help="length bound (roundtrip, pieri, symmetry)")
    p.add_argument("--max-m", dest="max_m", type=nonnegative, default=4, help="counts bound")
    p.add_argument("--dx", type=nonnegative, default=3)
    p.add_argument("--vy", type=nonnegative, default=2)
    p.add_argument("--rmax", type=int, help="largest r (pieri), default min(2, n - 1)")
    p.add_argument("--entries", type=nonnegative, default=1, help="rsk-limit entry bound")
    p.add_argument("--dim", type=nonnegative, default=2, help="matrix dimension")
    p.add_argument("--total", type=nonnegative, default=3, help="global-roundtrip entry sum bound")
    p.add_argument("--samples", type=nonnegative, default=0, help="extra seeded random cases")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def _read_doc(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_insert(args) -> int:
    n, l = args.n, args.l
    if args.reverse:
        if not args.pair:
            raise ValueError("--reverse needs --pair")
        p, q, pair_n, pair_l = pair_from_json(_read_doc(args.pair))
        if (pair_n, pair_l) != (n, l):
            raise ValueError(f"the pair is at n = {pair_n}, l = {pair_l}; --n and --l give n = {n}, l = {l}")
        t, u, m = affine_uninsert(p, q, l)
        doc = {
            "matrix": m.to_rows(),
            "T": strong_tableau_to_json(t),
            "U": weak_tableau_to_json(u),
        }
        print(dumps(doc) if args.format == "json" else json.dumps(m.to_rows()))
        return 0
    if not args.matrix:
        raise ValueError("insert needs --matrix")
    m = matrix_from_text(args.matrix)
    u = parse_window(args.u, n) if args.u else identity(n)
    v = parse_window(args.v, n) if args.v else identity(n)
    if u != v:
        raise ValueError("with empty border tableaux, --u and --v must agree")
    p, q, g = affine_insert(u, v, StrongTableau(u, ()), WeakTableau(u, ()), m, l, return_diagram=True)
    doc = pair_to_json(p, q, n, l)
    doc["P_core"] = None
    try:
        doc["render"] = grids = {"P": render_strong_tableau(p), "Q": render_weak_tableau(q)}
        doc["P_core"] = format_partition(core_of(p.outside))
    except ValueError as exc:  # non-Grassmannian chains have no core rendering
        grids = dict.fromkeys("PQ", f"(no core rendering: {exc})")
    if args.audit:
        doc["audit"] = {f"{i},{j}": audit_to_json(steps) for (i, j), steps in sorted(g.audits.items())}
    if args.format == "json":
        print(dumps(doc))
    else:
        print("P =", grids["P"], "Q =", grids["Q"], "outside: " + format_window(p.outside), sep="\n")
    return 0


def _convert_to_window(src: str, value: str, n: int):
    if src == "window":
        return parse_window(value, n)
    if src == "core":
        return grassmannian_of(parse_partition(value), n)
    if src == "bounded":
        return grassmannian_of(core_of_bounded(parse_partition(value), n), n)
    if src == "offsets":
        d = tuple(int(x) for x in value.strip().strip("()").split(",") if x.strip())
        if len(d) != n:
            raise ValueError(f"offsets need {n} entries")
        return grassmannian_of(core_from_offsets(d), n)
    if src == "code":
        c = tuple(int(x) for x in value.strip().strip("()").split(",") if x.strip())
        if len(c) != n or sorted(c) != list(c) or (c and c[0] != 0):
            raise ValueError("code of a Grassmannian element is weakly increasing from 0")
        lam = tuple(sorted((x for x in c if x), reverse=True))
        return grassmannian_of(core_of_bounded(k_conjugate(conjugate(lam), n), n), n)
    raise ValueError(src)


def cmd_convert(args) -> int:
    n = args.n
    w = _convert_to_window(args.src, args.value, n)
    if args.dst == "window":
        print(format_window(w))
        return 0
    if args.dst == "code":
        print("(" + ",".join(str(x) for x in code(w)) + ")")
        return 0
    if not w.is_grassmannian(0):
        raise ValueError(f"{format_window(w)} is not 0-Grassmannian")
    lam = core_of(w)
    if args.dst == "core":
        print(format_partition(lam))
    elif args.dst == "bounded":
        print(format_partition(bounded_of(lam, n)))
    elif args.dst == "offsets":
        print("(" + ",".join(str(x) for x in offsets(lam, n)) + ")")
    return 0


def cmd_enumerate(args) -> int:
    n, l = args.n, args.l
    inside = parse_window(args.inside, n)
    if args.kind == "weak-strips":
        out = [weak_strip_to_json(s) for s in weak_strips_from(inside, args.size)]
    elif args.kind == "strong-strips":
        out = [strong_strip_to_json(s) for s in strong_strips_from(inside, args.size, l)]
    elif args.kind == "covers":
        out = [
            {"i": c.i, "j": c.j, "mark": c.mark, "outside": format_window(c.outside)}
            for c in marked_covers_above(inside, l)
        ]
    else:
        if not args.outside:
            raise ValueError("tableaux enumeration needs --outside")
        outside = parse_window(args.outside, n)
        if args.kind == "weak-tableaux":
            out = [weak_tableau_to_json(t) for t in weak_tableaux(inside, outside)]
        else:
            out = [strong_tableau_to_json(t) for t in strong_tableaux(inside, outside, l)]
    print(dumps(out))
    return 0


def cmd_render(args) -> int:
    doc = _read_doc(args.tableau)
    if args.kind == "weak":
        print(render_weak_tableau(weak_tableau_from_json(doc, args.n)))
    else:
        print(render_strong_tableau(strong_tableau_from_json(doc, args.n, args.l)))
    return 0


def cmd_kschur(args) -> int:
    b = parse_partition(args.shape)
    if args.spin:
        poly = k_schur_spin(b, args.n)
        doc = {f"{format_partition(lam)}|{spin}": c for (lam, spin), c in sorted(poly.coeffs.items())}
    else:
        poly = k_schur(b, args.n)
        doc = {format_partition(lam): c for lam, c in sorted(poly.coeffs.items())}
    print(dumps(doc))
    return 0


def cmd_cauchy(args) -> int:
    u = parse_window(args.u, args.n) if args.u else None
    v = parse_window(args.v, args.n) if args.v else None
    rep = cauchy_check(args.n, args.l, args.dx, args.vy, u=u, v=v)
    print(f"checked {rep.checked} coefficients: {'PASS' if rep.ok else 'FAIL'}")
    if not rep.ok:
        print("first mismatches:", rep.mismatches[:3])
        return 1
    return 0


def cmd_pieri(args) -> int:
    w = parse_window(args.w, args.n)
    ok = True
    for name, rep in pieri_checks(args.n, args.l, w, args.r).items():
        print(f"{name}: {'PASS' if rep.ok else 'FAIL'}")
        if not rep.ok:
            print("  mismatches:", rep.mismatches[:3])
            ok = False
    return 0 if ok else 1


def cmd_verify(args) -> int:
    res = run_suite(args.suite, args)
    for line in res.lines:
        print(line)
    for line in res.reports:
        print(line)
    print("PASS" if res.ok else f"FAIL ({res.counterexample})")
    return 0 if res.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""JSON forms for the combinatorial types; canonical key ordering throughout."""

from __future__ import annotations

import json

from .affperm import format_window, parse_window
from .insertion import BoundedMatrix
from .strong import MarkedStrongCover, StrongStrip, StrongTableau
from .weak import WeakStrip, WeakTableau

__all__ = [
    "weak_strip_to_json",
    "weak_strip_from_json",
    "strong_strip_to_json",
    "strong_strip_from_json",
    "weak_tableau_to_json",
    "weak_tableau_from_json",
    "strong_tableau_to_json",
    "strong_tableau_from_json",
    "pair_to_json",
    "pair_from_json",
    "matrix_from_text",
    "dumps",
]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def weak_strip_to_json(s: WeakStrip) -> dict:
    return {
        "inside": format_window(s.inside),
        "residues": sorted(s.residues),
        "outside": format_window(s.outside),
    }


def weak_strip_from_json(d: dict, n: int) -> WeakStrip:
    return WeakStrip(
        parse_window(d["inside"], n), frozenset(d["residues"]), parse_window(d["outside"], n)
    )


def strong_strip_to_json(s: StrongStrip) -> dict:
    return {
        "inside": format_window(s.inside),
        "covers": [
            {"i": c.i, "j": c.j, "mark": c.mark, "outside": format_window(c.outside)}
            for c in s.covers
        ],
    }


def strong_strip_from_json(d: dict, n: int, l: int) -> StrongStrip:
    inside = parse_window(d["inside"], n)
    covers = []
    cur = inside
    for cd in d["covers"]:
        outside = parse_window(cd["outside"], n)
        covers.append(MarkedStrongCover(cur, cd["i"], cd["j"], outside, l))
        cur = outside
    return StrongStrip(inside, tuple(covers))


def weak_tableau_to_json(t: WeakTableau) -> dict:
    return {
        "inside": format_window(t.inside),
        "strips": [weak_strip_to_json(s) for s in t.strips],
    }


def weak_tableau_from_json(d: dict, n: int) -> WeakTableau:
    inside = parse_window(d["inside"], n)
    return WeakTableau(inside, tuple(weak_strip_from_json(sd, n) for sd in d["strips"]))


def strong_tableau_to_json(t: StrongTableau) -> dict:
    return {
        "inside": format_window(t.inside),
        "strips": [strong_strip_to_json(s) for s in t.strips],
    }


def strong_tableau_from_json(d: dict, n: int, l: int) -> StrongTableau:
    inside = parse_window(d["inside"], n)
    return StrongTableau(inside, tuple(strong_strip_from_json(sd, n, l) for sd in d["strips"]))


def pair_to_json(p: StrongTableau, q: WeakTableau, n: int, l: int) -> dict:
    return {
        "n": n,
        "l": l,
        "P": strong_tableau_to_json(p),
        "Q": weak_tableau_to_json(q),
        "outside": format_window(p.outside),
    }


def pair_from_json(d: dict) -> tuple[StrongTableau, WeakTableau, int, int]:
    if not isinstance(d, dict):
        raise ValueError(f"a pair document is a JSON object, not {type(d).__name__}")
    missing = [key for key in ("n", "l", "P", "Q") if key not in d]
    if missing:
        raise ValueError(f"pair document is missing key(s): {', '.join(missing)}")
    n, l = d["n"], d["l"]
    return (
        strong_tableau_from_json(d["P"], n, l),
        weak_tableau_from_json(d["Q"], n),
        n,
        l,
    )


def audit_to_json(steps) -> list[dict]:
    """(case, before, after) records; pairs render as their two strips."""

    def pair(p) -> dict:
        return {"weak": weak_strip_to_json(p.weak), "strong": strong_strip_to_json(p.strong)}

    return [{"case": s.case.value, "before": pair(s.before), "after": pair(s.after)} for s in steps]


def matrix_from_text(text: str) -> BoundedMatrix:
    """Parse a JSON array-of-arrays or a whitespace grid."""
    text = text.strip()
    if text.startswith("["):
        rows = json.loads(text)
        return BoundedMatrix.from_rows(rows)
    rows = [[int(x) for x in line.split()] for line in text.splitlines() if line.strip()]
    return BoundedMatrix.from_rows(rows)

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


def _fields(d, what: str, **kinds) -> list:
    """The values of the named keys of the JSON object d, in order; each must
    have exactly its Python type, so a JSON boolean is not an integer."""
    if type(d) is not dict:
        raise ValueError(f"a {what} is a JSON object, not {type(d).__name__}")
    missing = [key for key in kinds if key not in d]
    if missing:
        raise ValueError(f"{what} is missing key(s): {', '.join(missing)}")
    for key, kind in kinds.items():
        if type(d[key]) is not kind:
            raise ValueError(f"{what} {key!r} must be {kind.__name__}, not {d[key]!r}")
    return [d[key] for key in kinds]


def weak_strip_to_json(s: WeakStrip) -> dict:
    return {
        "inside": format_window(s.inside),
        "residues": sorted(s.residues),
        "outside": format_window(s.outside),
    }


def weak_strip_from_json(d: dict, n: int) -> WeakStrip:
    inside, residues, outside = _fields(d, "weak strip", inside=str, residues=list, outside=str)
    if any(type(a) is not int for a in residues):
        raise ValueError(f"weak strip residues must be integers, not {residues!r}")
    return WeakStrip(parse_window(inside, n), frozenset(residues), parse_window(outside, n))


def strong_strip_to_json(s: StrongStrip) -> dict:
    return {
        "inside": format_window(s.inside),
        "covers": [
            {"i": c.i, "j": c.j, "mark": c.mark, "outside": format_window(c.outside)}
            for c in s.covers
        ],
    }


def strong_strip_from_json(d: dict, n: int, l: int) -> StrongStrip:
    inside, cover_docs = _fields(d, "strong strip", inside=str, covers=list)
    cur = start = parse_window(inside, n)
    covers = []
    for cd in cover_docs:
        i, j, outside = _fields(cd, "marked cover", i=int, j=int, outside=str)
        covers.append(MarkedStrongCover(cur, i, j, parse_window(outside, n), l))
        cur = covers[-1].outside
    return StrongStrip(start, tuple(covers))


def weak_tableau_to_json(t: WeakTableau) -> dict:
    return {
        "inside": format_window(t.inside),
        "strips": [weak_strip_to_json(s) for s in t.strips],
    }


def weak_tableau_from_json(d: dict, n: int) -> WeakTableau:
    inside, strips = _fields(d, "weak tableau", inside=str, strips=list)
    return WeakTableau(parse_window(inside, n), tuple(weak_strip_from_json(sd, n) for sd in strips))


def strong_tableau_to_json(t: StrongTableau) -> dict:
    return {
        "inside": format_window(t.inside),
        "strips": [strong_strip_to_json(s) for s in t.strips],
    }


def strong_tableau_from_json(d: dict, n: int, l: int) -> StrongTableau:
    inside, strips = _fields(d, "strong tableau", inside=str, strips=list)
    return StrongTableau(parse_window(inside, n), tuple(strong_strip_from_json(sd, n, l) for sd in strips))


def pair_to_json(p: StrongTableau, q: WeakTableau, n: int, l: int) -> dict:
    return {
        "n": n,
        "l": l,
        "P": strong_tableau_to_json(p),
        "Q": weak_tableau_to_json(q),
        "outside": format_window(p.outside),
    }


def pair_from_json(d: dict) -> tuple[StrongTableau, WeakTableau, int, int]:
    n, l, p, q = _fields(d, "pair document", n=int, l=int, P=dict, Q=dict)
    return strong_tableau_from_json(p, n, l), weak_tableau_from_json(q, n), n, l


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

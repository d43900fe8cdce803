"""Canonical JSON and text renderings.

Exports are byte-stable: identical inputs yield identical bytes. Everything
is emitted in basis order with coefficients as exact rational 4-tuples
["a","b","c","d"] meaning a + b*i + c*sqrt2 + d*i*sqrt2, each component in
lowest terms with positive denominator.
"""

from __future__ import annotations

import json

from .elements import Element
from .generators import GeneratorId
from .scalars import Scalar


def element_json(elem: Element, index: dict[GeneratorId, int]) -> list[dict]:
    return [
        {"gen": gid.label, "coeff": coeff.to_strings()}
        for gid, coeff in elem.sorted_terms(index)
    ]


def wedge_json(wedge: dict[tuple[GeneratorId, GeneratorId], Scalar],
               index: dict[GeneratorId, int]) -> list[dict]:
    ordered = sorted(wedge.items(), key=lambda kv: (index[kv[0][0]], index[kv[0][1]]))
    return [
        {"a": a.label, "b": b.label, "coeff": coeff.to_strings()}
        for (a, b), coeff in ordered
        if coeff
    ]


def table_json(series: str, rank: int, basis: tuple[GeneratorId, ...],
               entries: dict[tuple[GeneratorId, GeneratorId], Element]) -> dict:
    index = {gid: pos for pos, gid in enumerate(basis)}
    brackets = []
    for (p, q), out in sorted(entries.items(), key=lambda kv: (index[kv[0][0]], index[kv[0][1]])):
        if out.is_zero():
            continue
        brackets.append({"p": p.label, "q": q.label, "out": element_json(out, index)})
    return {
        "series": series,
        "rank": rank,
        "basis": [gid.label for gid in basis],
        "brackets": brackets,
    }


def table_text(payload: dict) -> str:
    lines = [f"series {payload['series']} rank {payload['rank']}",
             "basis " + " ".join(payload["basis"])]
    for entry in payload["brackets"]:
        rhs = " + ".join(f"({','.join(t['coeff'])})*{t['gen']}" for t in entry["out"])
        lines.append(f"[{entry['p']}, {entry['q']}] = {rhs}")
    return "\n".join(lines) + "\n"


def delta_json(series: str, rank: int, basis: tuple[GeneratorId, ...],
               delta: dict[GeneratorId, dict]) -> dict:
    index = {gid: pos for pos, gid in enumerate(basis)}
    entries = []
    for gid in basis:
        wedge = delta.get(gid, {})
        entries.append({"gen": gid.label, "wedge": wedge_json(wedge, index)})
    return {
        "series": series,
        "rank": rank,
        "basis": [gid.label for gid in basis],
        "cocommutators": entries,
    }


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def matrix_text_exact(entries: dict[tuple[int, int], Scalar]) -> str:
    lines = [
        f"{row} {col} " + " ".join(value.to_strings())
        for (row, col), value in sorted(entries.items())
        if value
    ]
    return "\n".join(lines) + ("\n" if lines else "")


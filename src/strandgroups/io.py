"""JSON and DOT serialization.

Square and closed diagrams export to JSON and DOT; no verb reads either
back.  Closed diagrams export their shape and weights: cut positions
are engine-internal bookkeeping and are deliberately not part of the
wire format.

Endpoint schema: {"source": i} | {"sink": i} | {"vertex": id, "port": p}
with ports numbered within their role: a split's ordered outputs are
ports 0 (left) and 1 (right), a merge's ordered inputs likewise, and
any lone input/output is port 0.
"""

from __future__ import annotations

import json

from .closure import ClosedDiagram, TORAL, CLOSED
from .diagram import (
    MERGE,
    SPLIT,
    StrandDiagram,
    is_source_code,
    sink_index,
    source_index,
)

_KIND_NAME = {SPLIT: "split", MERGE: "merge"}


def _endpoint_obj(d, ep, renum, role):
    """role is "from" or "to"; ports renumber per the schema above."""
    if ep >= 0:
        v, s = divmod(ep, 3)
        k = d.kind[v]
        if role == "from":
            port = s - 1 if k == SPLIT else 0
        else:
            port = 0 if k == SPLIT else s
        return {"vertex": renum[v], "port": port}
    if is_source_code(ep):
        return {"source": source_index(ep)}
    return {"sink": sink_index(ep)}


def square_to_json(d: StrandDiagram) -> dict:
    renum = {v: i for i, v in enumerate(d.live_vertices())}
    vertices = [{"id": renum[v], "kind": _KIND_NAME[d.kind[v]]} for v in renum]
    edges = []
    for tail, head in d.edges():
        rec = {
            "from": _endpoint_obj(d, tail, renum, "from"),
            "to": _endpoint_obj(d, head, renum, "to"),
        }
        if d.long is not None:
            rec["longitudeWeight"] = d.long.get(head, 0)
        edges.append(rec)
    return {"m": d.m, "n": d.n, "vertices": vertices, "edges": edges}


def closed_to_json(c: ClosedDiagram) -> dict:
    renum = {v: i for i, v in enumerate(c.live_vertices())}
    vertices = [{"id": renum[v], "kind": _KIND_NAME[c.kind[v]]} for v in renum]
    weight_key = "c" if c.mode == CLOSED else "crossingWeight"
    edges = []
    for tail, head in c.edges():
        rec = {
            "from": _endpoint_obj(c, tail, renum, "from"),
            "to": _endpoint_obj(c, head, renum, "to"),
            weight_key: len(c.cuts.get(head, ())),
        }
        if c.mode == TORAL:
            rec["longitudeWeight"] = c.long.get(head, 0)
        edges.append(rec)
    loops = []
    for f in c.free_loops:
        rec = {weight_key: len(f.cuts)}
        if c.mode == TORAL:
            rec["longitudeWeight"] = f.long
        loops.append(rec)
    return {
        "mode": c.mode,
        "vertices": vertices,
        "edges": edges,
        "freeLoops": loops,
    }


def to_json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_SHAPES = {SPLIT: "triangle", MERGE: "invtriangle"}


def _dot_vertices(d, lines: list) -> dict:
    """Append one DOT line per live vertex; returns the renumbering."""
    renum = {v: i for i, v in enumerate(d.live_vertices())}
    lines += [f'  v{i} [shape={_SHAPES[d.kind[v]]} label="{i}"];' for v, i in renum.items()]
    return renum


def square_to_dot(d: StrandDiagram) -> str:
    lines = ["digraph strand {", "  rankdir=TB;"]
    renum = _dot_vertices(d, lines)
    for i in range(d.m):
        lines.append(f'  src{i} [shape=point xlabel="in{i}"];')
    for i in range(d.n):
        lines.append(f'  snk{i} [shape=point xlabel="out{i}"];')

    def name(ep):
        if ep >= 0:
            return f"v{renum[ep // 3]}"
        if is_source_code(ep):
            return f"src{source_index(ep)}"
        return f"snk{sink_index(ep)}"

    for tail, head in d.edges():
        label = ""
        if d.long is not None and d.long.get(head, 0):
            label = f' [label="w{d.long[head]}"]'
        lines.append(f"  {name(tail)} -> {name(head)}{label};")
    lines.append("}")
    return "\n".join(lines)


def closed_to_dot(c: ClosedDiagram) -> str:
    """Splits as triangles, merges as inverted triangles; edge labels
    carry the reference-ray crossing counts (and wraps on the torus)."""
    lines = ["digraph closed {"]
    renum = _dot_vertices(c, lines)
    for tail, head in c.edges():
        mw = len(c.cuts.get(head, ()))
        lw = c.long.get(head, 0)
        label = f"{mw}" if c.mode != TORAL else f"{mw},{lw}"
        lines.append(f'  v{renum[tail // 3]} -> v{renum[head // 3]} [label="{label}"];')
    for i, f in enumerate(c.free_loops):
        mw = len(f.cuts)
        label = f"{mw}" if c.mode != TORAL else f"{mw},{f.long}"
        lines.append(f'  loop{i} [shape=circle label="{label}"];')
    lines.append("}")
    return "\n".join(lines)

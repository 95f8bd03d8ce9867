"""Closed strand diagrams: annular (F), toral (T) and abstract closed (V).

Closing a (k,k)-diagram glues sink i to source sigma(i).  The gluing
line becomes the reference ray (annular) or cutting loop (toral): each
glued edge receives one *cut point*.  Cut points are the paper trail of
the cutting sequence; their positions survive rewriting as
order-comparable tuples, which is how radial (annular) and cyclic
(toral) ring order is recovered without storing any geometry.

Per edge we keep:

    cuts : ordered list of cut positions (crossings with the ray); the
           crossing count is the meridian weight,
    long : crossings with the longitudinal line (toral mode only).

Reduction moves I and II splice edges; spliced cut lists concatenate
along the surviving strand.  A type I bigon may only cancel when both
parallel edges are homotopic rel the reference curves (equal cut count
and equal wrap), and the kept strand inherits the left edge's cuts; the
disc between the edges is provably empty, so no foreign cut separates
the two lists and the global order is preserved.  When a splice closes
up on itself the strand becomes a free loop.  Type III (merging two
free loops) runs after moves I/II are exhausted, merging loops of equal
class that are adjacent in the recovered ring order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diagram import DEAD, MERGE, SPLIT, StrandDiagram, sink_index
from .errors import ArityMismatch, NotReduced, StaleRedex, StructureViolation

ANNULAR = "annular"
TORAL = "toral"
CLOSED = "closed"


@dataclass
class FreeLoop:
    cuts: list
    long: int = 0

    @property
    def winding(self) -> int:
        return len(self.cuts)


class ClosedDiagram:
    """Vertices and connections as in StrandDiagram, but with no boundary."""

    __slots__ = ("mode", "kind", "conn", "cuts", "long", "free_loops")

    def __init__(self, mode: str):
        assert mode in (ANNULAR, TORAL, CLOSED)
        self.mode = mode
        self.kind: list[int] = []
        self.conn: list[int] = []
        self.cuts: dict[int, list] = {}   # head endpoint -> cut positions
        self.long: dict[int, int] = {}    # head endpoint -> wrap count
        self.free_loops: list[FreeLoop] = []

    def num_vertices(self) -> int:
        return sum(1 for k in self.kind if k != DEAD)

    def live_vertices(self):
        return (v for v in range(len(self.kind)) if self.kind[v] != DEAD)

    def copy(self) -> "ClosedDiagram":
        c = ClosedDiagram(self.mode)
        c.kind = list(self.kind)
        c.conn = list(self.conn)
        c.cuts = {h: list(p) for h, p in self.cuts.items()}
        c.long = dict(self.long)
        c.free_loops = [FreeLoop(list(f.cuts), f.long) for f in self.free_loops]
        return c

    def edges(self):
        """Live edges as (tail, head) endpoint pairs."""
        kind = self.kind
        conn = self.conn
        for v in range(len(kind)):
            k = kind[v]
            if k == SPLIT:
                yield (3 * v + 1, conn[3 * v + 1])
                yield (3 * v + 2, conn[3 * v + 2])
            elif k == MERGE:
                yield (3 * v + 2, conn[3 * v + 2])

    def edge_class(self, head: int) -> tuple[int, int]:
        """(meridian weight, wrap count) of the edge arriving at ``head``."""
        return (len(self.cuts.get(head, ())), self.long.get(head, 0))

    def validate_positive(self) -> None:
        """Every directed cycle must have positive total meridian weight.

        Works on unreduced diagrams too: since cut counts are never
        negative, a nonpositive cycle is a cycle of cut-free edges, so
        it suffices that the zero-weight subgraph is acyclic.
        """
        kind = self.kind
        conn = self.conn
        indeg: dict[int, int] = {}
        outs: dict[int, list[int]] = {}
        for v in self.live_vertices():
            indeg.setdefault(v, 0)
            slots = (1, 2) if kind[v] == SPLIT else (2,)
            targets = []
            for s in slots:
                h = conn[3 * v + s]
                if not self.cuts.get(h):
                    targets.append(h // 3)
                    indeg[h // 3] = indeg.get(h // 3, 0) + 1
            outs[v] = targets
        queue = [v for v, dg in indeg.items() if dg == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != len(indeg):
            bad = next(v for v, dg in indeg.items() if dg > 0)
            raise StructureViolation(
                f"directed cycle with zero winding through vertex {bad}"
            )
        for f in self.free_loops:
            if len(f.cuts) <= 0:
                raise StructureViolation("free loop with nonpositive winding")


# -- closure ------------------------------------------------------------------


def _close(d: StrandDiagram, mode: str, sigma) -> ClosedDiagram:
    if d.m != d.n:
        raise ArityMismatch(f"cannot close a ({d.m},{d.n})-diagram")
    k = d.m
    c = ClosedDiagram(mode)
    c.kind = list(d.kind)
    c.conn = list(d.conn)
    if d.long:
        c.long = {h: w for h, w in d.long.items() if h >= 0 and w}

    src_peer = list(d.src_conn)  # what source i feeds (head or sink code)
    snk_peer = list(d.snk_conn)  # what feeds sink i (tail or source code)
    dlong = d.long or {}

    done = [False] * k
    for i0 in range(k):
        if done[i0]:
            continue
        tail = snk_peer[i0]
        if tail < 0:
            continue  # strand starts at a source; handled from its sink side
        # walk the glue chain from sink i0 until a vertex head is reached
        acc_cuts = []
        acc_lw = 0
        i = i0
        while True:
            done[i] = True
            j = sigma(i)
            acc_cuts.append((i,))
            acc_lw += dlong.get(_sinkcode(i), 0)
            if mode == TORAL and i + _shift_of(sigma, i, k) >= k:
                acc_lw += 1
            head = src_peer[j]
            if head >= 0:
                acc_lw += dlong.get(head, 0)
                c.conn[tail] = head
                c.conn[head] = tail
                if acc_cuts:
                    c.cuts[head] = acc_cuts
                if acc_lw:
                    c.long[head] = acc_lw
                elif head in c.long:
                    del c.long[head]
                break
            i = sink_index(head)  # source j feeds sink i directly

    # remaining glue orbits never touch a vertex: free loops
    for i0 in range(k):
        if done[i0]:
            continue
        acc_cuts = []
        acc_lw = 0
        i = i0
        while not done[i]:
            done[i] = True
            j = sigma(i)
            acc_cuts.append((i,))
            acc_lw += dlong.get(_sinkcode(i), 0)
            if mode == TORAL and i + _shift_of(sigma, i, k) >= k:
                acc_lw += 1
            head = src_peer[j]
            assert head < 0, "orbit re-entered the graph"
            i = sink_index(head)
        c.free_loops.append(FreeLoop(acc_cuts, acc_lw))
    return c


def _sinkcode(i):
    return -3 - 2 * i


def _shift_of(sigma, i, k):
    return (sigma(i) - i) % k


def close_annular(d: StrandDiagram) -> ClosedDiagram:
    """Glue sink i to source i; glued edges get one cut each."""
    return _close(d, ANNULAR, lambda i: i)


def close_cylindrical(d: StrandDiagram, shift: int = 0) -> ClosedDiagram:
    """Toral closure: sink i glues to source (i + shift) mod k.

    Meridian cuts sit at the seam; wrap counts gain 1 on strands whose
    glue passes the longitude line (i + shift >= k).
    """
    k = d.m
    if k == 0:
        raise ArityMismatch("empty diagram")
    t = _close(d, TORAL, lambda i: (i + shift) % k)
    return t


def close_abstract(d: StrandDiagram, perm=None) -> ClosedDiagram:
    """V closure: glue sink i to source perm[i] (identity by default)."""
    if perm is None:
        return _close(d, CLOSED, lambda i: i)
    p = tuple(perm)
    return _close(d, CLOSED, lambda i: p[i])


# -- redexes and reduction ----------------------------------------------------


@dataclass(frozen=True)
class ClosedRedex:
    kind: str  # "I" or "II"
    top: int
    bottom: int


def _closed_redex_at(c: ClosedDiagram, u: int):
    kind = c.kind
    conn = c.conn
    k = kind[u]
    if k == SPLIT:
        x = conn[3 * u + 1]
        if (
            x >= 0
            and x % 3 == 0
            and kind[x // 3] == MERGE
            and conn[3 * u + 2] == x + 1
            and c.edge_class(x) == c.edge_class(x + 1)
        ):
            return ("I", x // 3)
    elif k == MERGE:
        x = conn[3 * u + 2]
        if x >= 0 and x % 3 == 0 and kind[x // 3] == SPLIT:
            return ("II", x // 3)
    return None


def find_closed_redexes(c: ClosedDiagram) -> list[ClosedRedex]:
    out = []
    for u in c.live_vertices():
        hit = _closed_redex_at(c, u)
        if hit is not None:
            out.append(ClosedRedex(hit[0], u, hit[1]))
    return out


def _apply_closed(c: ClosedDiagram, t: str, u: int, v: int) -> list[int]:
    """Fire a move; returns tail endpoints of freshly spliced edges."""
    conn = c.conn
    cuts = c.cuts
    long = c.long
    if t == "I":
        lane_cuts = cuts.pop(3 * v, [])
        cuts.pop(3 * v + 1, None)
        lane_lw = long.pop(3 * v, 0)
        long.pop(3 * v + 1, None)
        lanes = [(3 * u, 3 * v + 2, lane_cuts, lane_lw)]
    else:
        cm = cuts.pop(3 * v, [])
        lm = long.pop(3 * v, 0)
        # the two lanes run parallel where the middle edge was; the left
        # lane is radially inner, so its cut copies sort first
        lanes = [
            (3 * u, 3 * v + 1, [p + (0,) for p in cm], lm),
            (3 * u + 1, 3 * v + 2, [p + (1,) for p in cm], lm),
        ]
    entry_of = {lane[0]: idx for idx, lane in enumerate(lanes)}
    exits = {lane[1] for lane in lanes}
    consumed = [False] * len(lanes)
    touched = []

    for idx, (entry, _exit, _lc, _lw) in enumerate(lanes):
        tail = conn[entry]
        if tail in exits:
            continue  # traversed mid-chain or part of a closed orbit
        acc_cuts = list(cuts.pop(entry, ()))
        acc_lw = long.pop(entry, 0)
        cur = idx
        while True:
            consumed[cur] = True
            acc_cuts.extend(lanes[cur][2])
            acc_lw += lanes[cur][3]
            head = conn[lanes[cur][1]]
            nxt = entry_of.get(head)
            if nxt is not None:
                assert not consumed[nxt], "lane chain re-entered itself"
                acc_cuts.extend(cuts.pop(head, ()))
                acc_lw += long.pop(head, 0)
                cur = nxt
                continue
            acc_cuts.extend(cuts.pop(head, ()))
            acc_lw += long.pop(head, 0)
            conn[tail] = head
            conn[head] = tail
            if acc_cuts:
                cuts[head] = acc_cuts
            if acc_lw:
                long[head] = acc_lw
            touched.append(tail)
            break

    for idx in range(len(lanes)):
        if consumed[idx]:
            continue
        # closed orbit through the lanes: a free loop is born
        acc_cuts = []
        acc_lw = 0
        cur = idx
        while not consumed[cur]:
            consumed[cur] = True
            entry = lanes[cur][0]
            acc_cuts.extend(cuts.pop(entry, ()))
            acc_lw += long.pop(entry, 0)
            acc_cuts.extend(lanes[cur][2])
            acc_lw += lanes[cur][3]
            head = conn[lanes[cur][1]]
            nxt = entry_of.get(head)
            assert nxt is not None, "open chain found in loop sweep"
            cur = nxt
        c.free_loops.append(FreeLoop(acc_cuts, acc_lw))

    c.kind[u] = DEAD
    c.kind[v] = DEAD
    return touched


def apply_closed_redex(c: ClosedDiagram, r: ClosedRedex) -> ClosedDiagram:
    kind = c.kind
    if r.top >= len(kind) or kind[r.top] == DEAD or kind[r.bottom] == DEAD:
        raise StaleRedex(f"redex {r} references removed vertices")
    hit = _closed_redex_at(c, r.top)
    if hit is None or hit != (r.kind, r.bottom):
        raise StaleRedex(f"redex {r} no longer matches the diagram")
    _apply_closed(c, r.kind, r.top, r.bottom)
    return c


def reduce_closed(c: ClosedDiagram, order: str = "frontier", rng=None) -> ClosedDiagram:
    """Apply moves I/II to exhaustion, then merge adjacent free loops."""
    kind = c.kind
    if order == "random":
        pairs = []
        for u in c.live_vertices():
            hit = _closed_redex_at(c, u)
            if hit is not None:
                pairs.append((u, hit[1], hit[0]))
        while pairs:
            i = rng.randrange(len(pairs))
            pairs[i], pairs[-1] = pairs[-1], pairs[i]
            u, v, t = pairs.pop()
            if kind[u] == DEAD or kind[v] == DEAD:
                continue
            hit = _closed_redex_at(c, u)
            if hit is None or hit != (t, v):
                continue
            for tail in _apply_closed(c, t, u, v):
                w = tail // 3
                if kind[w] != DEAD:
                    hit2 = _closed_redex_at(c, w)
                    if hit2 is not None:
                        pairs.append((w, hit2[1], hit2[0]))
    elif order == "frontier":
        candidates = range(len(kind))
        while True:
            pairs = []
            for u in candidates:
                if kind[u] == DEAD:
                    continue
                hit = _closed_redex_at(c, u)
                if hit is not None:
                    pairs.append((u, hit[1], hit[0]))
            if not pairs:
                break
            touched = []
            for u, v, t in pairs:
                if kind[u] == DEAD or kind[v] == DEAD:
                    continue
                hit = _closed_redex_at(c, u)
                if hit is None or hit != (t, v):
                    continue
                touched.extend(_apply_closed(c, t, u, v))
            candidates = sorted({e // 3 for e in touched if kind[e // 3] != DEAD})
    else:
        raise ValueError(f"unknown reduction order {order!r}")

    _merge_free_loops(c)
    return c


def _merge_free_loops(c: ClosedDiagram) -> None:
    """Type III: collapse pairs of free loops with equal class.

    In closed (V) mode any two loops of equal cutting weight merge.  On
    the annulus/torus the loops must also cobound an empty region,
    detected as two of their cuts being neighbours in the global cut
    order (foreign bands would have to interpose cuts everywhere).
    """
    loops = c.free_loops
    if c.mode == CLOSED:
        seen = {}
        kept = []
        for f in loops:
            key = (len(f.cuts), f.long)
            if key not in seen:
                seen[key] = True
                kept.append(f)
        c.free_loops = kept
        return

    changed = True
    while changed:
        changed = False
        loops = c.free_loops
        if len(loops) < 2:
            break
        # global cut order: (position, owner); owner -1.. for loops
        marks = []
        for h, ps in c.cuts.items():
            for p in ps:
                marks.append((p, None))
        for li, f in enumerate(loops):
            for p in f.cuts:
                marks.append((p, li))
        marks.sort(key=lambda x: x[0])
        nm = len(marks)
        for idx in range(nm if c.mode == TORAL else nm - 1):
            (p1, o1) = marks[idx]
            (p2, o2) = marks[(idx + 1) % nm]
            if o1 is None or o2 is None or o1 == o2:
                continue
            a, b = loops[o1], loops[o2]
            if (len(a.cuts), a.long) != (len(b.cuts), b.long):
                continue
            if c.mode == ANNULAR and len(a.cuts) != 1:
                continue  # embedded annular loops wind once
            keep, drop = (o1, o2) if o1 < o2 else (o2, o1)
            c.free_loops = [f for k, f in enumerate(loops) if k != drop]
            changed = True
            break


# -- structure: cycles, components, rings -------------------------------------


@dataclass
class Cycle:
    vertices: list[int]
    heads: list[int]          # head endpoints of the on-cycle edges
    pure: str | None          # "split", "merge" or None (mixed)
    min_cut: tuple | None

    @property
    def length(self) -> int:
        return len(self.vertices)


def directed_cycles(c: ClosedDiagram) -> list[Cycle]:
    """All directed cycles, via strongly connected components.

    Raises StructureViolation if an SCC is not a simple cycle (cycles
    sharing vertices), which cannot happen once moves I/II are done.
    """
    kind = c.kind
    conn = c.conn

    def out_neighbors(v):
        if kind[v] == SPLIT:
            return (conn[3 * v + 1] // 3, conn[3 * v + 2] // 3)
        return (conn[3 * v + 2] // 3,)

    sccs = _tarjan(list(c.live_vertices()), out_neighbors)
    cycles = []
    for comp in sccs:
        if len(comp) == 1:
            v = comp[0]
            if v not in out_neighbors(v):
                continue
        compset = set(comp)
        # walk the unique in-component successor of each vertex
        succ = {}
        heads = {}
        for v in comp:
            ins = []
            if kind[v] == SPLIT:
                slots = (1, 2)
            else:
                slots = (2,)
            for s in slots:
                h = conn[3 * v + s]
                if h // 3 in compset:
                    ins.append((h // 3, h))
            if len(ins) != 1:
                raise StructureViolation(
                    f"vertex {v} has {len(ins)} successors inside one strongly "
                    "connected component; directed cycles are not disjoint"
                )
            succ[v] = ins[0][0]
            heads[v] = ins[0][1]
        start = min(comp)
        order = [start]
        w = succ[start]
        while w != start:
            order.append(w)
            w = succ[w]
        if len(order) != len(comp):
            raise StructureViolation("strongly connected component is not a single cycle")
        kinds = {kind[v] for v in order}
        pure = "split" if kinds == {SPLIT} else "merge" if kinds == {MERGE} else None
        head_list = [heads[v] for v in order]
        cut_positions = [p for h in head_list for p in c.cuts.get(h, ())]
        cycles.append(
            Cycle(order, head_list, pure, min(cut_positions) if cut_positions else None)
        )
    return cycles


def _tarjan(vertices, out_neighbors):
    index = {}
    low = {}
    onstack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(out_neighbors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(out_neighbors(w))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def weak_components(c: ClosedDiagram) -> list[list[int]]:
    kind = c.kind
    conn = c.conn
    seen = set()
    comps = []
    for v0 in c.live_vertices():
        if v0 in seen:
            continue
        comp = []
        stack = [v0]
        seen.add(v0)
        while stack:
            v = stack.pop()
            comp.append(v)
            for s in range(3):
                w = conn[3 * v + s] // 3
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


@dataclass
class Ring:
    kind: str                     # "free" or "component"
    radial_index: int
    cycles: list[Cycle] = field(default_factory=list)
    vertices: list[int] = field(default_factory=list)
    loop: FreeLoop | None = None
    min_cut: tuple | None = None


def ring_decomposition(c: ClosedDiagram, cycles: list[Cycle] | None = None) -> list[Ring]:
    """Rings ordered radially (annular) or cyclically from the first cut
    (toral).  Requires a reduced diagram; ``cycles``, when given, must be
    ``directed_cycles(c)``."""
    redexes = find_closed_redexes(c)
    if redexes:
        raise NotReduced(f"diagram has redex {redexes[0]}")

    if cycles is None:
        cycles = directed_cycles(c)
    comps = weak_components(c)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    comp_cycles: dict[int, list[Cycle]] = {ci: [] for ci in range(len(comps))}
    for cyc in cycles:
        comp_cycles[comp_of[cyc.vertices[0]]].append(cyc)

    rings = []
    for ci, comp in enumerate(comps):
        cycs = comp_cycles[ci]
        if not cycs:
            raise StructureViolation(f"component {comp} has no directed cycle")
        if len(cycs) == 1 and comp:
            raise StructureViolation(
                f"component {comp} has vertices but only one directed cycle"
            )
        cycs.sort(key=lambda cy: cy.min_cut)
        all_cuts = [p for h in _component_heads(c, comp) for p in c.cuts.get(h, ())]
        rings.append(
            Ring(
                "component",
                -1,
                cycles=cycs,
                vertices=comp,
                min_cut=min(all_cuts),
            )
        )
    for f in c.free_loops:
        rings.append(Ring("free", -1, loop=f, min_cut=min(f.cuts)))

    rings.sort(key=lambda r: r.min_cut)
    for i, r in enumerate(rings):
        r.radial_index = i
    return rings


def _component_heads(c: ClosedDiagram, comp) -> list[int]:
    heads = []
    for v in comp:
        if c.kind[v] == SPLIT:
            heads.append(c.conn[3 * v + 1])
            heads.append(c.conn[3 * v + 2])
        else:
            heads.append(c.conn[3 * v + 2])
    return heads


def check_cycle_structure(
    c: ClosedDiagram, cycles: list[Cycle] | None = None
) -> list[Ring]:
    """Validate the structure theorem on a reduced closed diagram and
    return its ``ring_decomposition``.

    Raises StructureViolation naming the failing clause; passing means:
    every directed cycle is a free loop or a pure split/merge loop,
    cycles are pairwise disjoint, every component has a cycle,
    single-cycle components are free loops, cycle classes are positive
    (winding exactly 1 per cycle in annular mode, one common coprime
    class in toral mode), and in annular mode the concentric cycles of
    a component alternate between merge loops and split loops.  (On the
    torus the cycles of one component are arranged cyclically and the
    band where the component closes up may sit between two loops of the
    same kind, so alternation is a specifically annular fact.)

    ``cycles``, when given, must be ``directed_cycles(c)``; passing them
    lets a caller that already has them skip the second search.
    """
    # cycle-level clauses come first so that hand-built pathologies are
    # named even when (necessarily) unreduced: a mixed cycle always
    # contains a merge-then-split edge, i.e. a type II redex
    if cycles is None:
        cycles = directed_cycles(c)
    classes = []
    for cyc in cycles:
        if cyc.pure is None:
            raise StructureViolation(
                f"cycle through {cyc.vertices} mixes splits and merges"
            )
        mw = sum(len(c.cuts.get(h, ())) for h in cyc.heads)
        lw = sum(c.long.get(h, 0) for h in cyc.heads)
        if mw <= 0:
            raise StructureViolation(f"cycle through {cyc.vertices} has winding {mw}")
        classes.append((mw, lw))
    for f in c.free_loops:
        if len(f.cuts) <= 0:
            raise StructureViolation("free loop with nonpositive winding")
        classes.append((len(f.cuts), f.long))

    rings = ring_decomposition(c, cycles)  # NotReduced gate for the ring-level clauses
    for ring in rings:
        if ring.kind == "free":
            continue
        if c.mode == ANNULAR:
            kinds = [cyc.pure for cyc in ring.cycles]
            for a, b in zip(kinds, kinds[1:]):
                if a == b:
                    raise StructureViolation(
                        f"consecutive {a} loops do not alternate in component "
                        f"{ring.vertices}"
                    )
    if c.mode == ANNULAR:
        for mw, _ in classes:
            if mw != 1:
                raise StructureViolation(f"annular cycle winds {mw} times, expected 1")
    elif c.mode == TORAL and classes:
        n0 = classes[0][0]
        k0 = classes[0][1] % n0
        for mw, lw in classes:
            if mw != n0 or lw % n0 != k0:
                raise StructureViolation(
                    f"toral cycles disagree: {(mw, lw)} vs {(n0, k0)}"
                )
        if math.gcd(n0, k0) != 1:
            raise StructureViolation(f"toral class ({n0},{k0}) is not primitive")
    return rings


def cutting_sequence(c: ClosedDiagram):
    """All cut points in ray order as (position, carrier) pairs.

    The carrier is the head endpoint of the cut edge, or ("loop", i)
    for cuts sitting on free loop i.
    """
    out = []
    for h, ps in c.cuts.items():
        for p in ps:
            out.append((p, h))
    for i, f in enumerate(c.free_loops):
        for p in f.cuts:
            out.append((p, ("loop", i)))
    out.sort(key=lambda x: x[0])
    return out

"""Closed strand diagrams: annular (F), toral (T) and abstract closed (V).

Closing a (k,k)-diagram glues sink i to source sigma(i).  The gluing
line becomes the reference ray (annular) or cutting loop (toral): each
glued edge receives one *cut point*.  Cut points are the paper trail of
the cutting sequence; their positions survive rewriting as
order-comparable tuples, which is how radial (annular) and cyclic
(toral) ring order is recovered without storing any geometry.

Positions are read in one place: ``cutting_sequence`` sorts them, and
the type III merge and ``Structure.rings`` take their order from it.
The rings record the owner of every cut in that order, which is all
the toral form needs; every other reader counts cuts.

Per edge we keep:

    cuts : ordered list of cut positions (crossings with the ray); the
           crossing count is the meridian weight,
    long : crossings with the longitudinal line (toral mode only).

Moves I and II run on the shared core of ``rewrite``; the closed half
of a move is ``ClosedDiagram.splice``, which walks each strand through
the move's lanes once.  Spliced cut lists concatenate along the
surviving strand, and the kept strand of a type I bigon inherits the
left edge's cuts: the disc between the edges is empty, so the global
cut order is preserved.  A strand that closes up on itself becomes a
free loop.  Type III (merging two free loops) runs after
moves I/II are exhausted, merging loops of equal class that are
adjacent in the recovered ring order.

The structure of a reduced diagram is computed here and only here: one
``Structure`` pass finds the directed cycles with their classes, and
the rings are built from it.  ``reduced_structure`` is the reduction
gate of the F and T canonical forms, so each form scans for redexes
once; ``check_cycle_structure`` names cycle-level faults before it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .diagram import DEAD, MERGE, OUT_SLOTS, SPLIT, TYPE_I, StrandDiagram, sink_code, sink_index
from .errors import ArityMismatch, NotReduced, StructureViolation
from .rewrite import find_redexes, reduce_diagram

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
        conn = self.conn
        for v, k in enumerate(self.kind):
            for s in OUT_SLOTS[k]:
                yield (3 * v + s, conn[3 * v + s])

    def edge_class(self, head: int) -> tuple[int, int]:
        """(meridian weight, wrap count) of the edge arriving at ``head``."""
        return (len(self.cuts.get(head, ())), self.long.get(head, 0))

    def splice(self, t: str, u: int, v: int) -> list[int]:
        """Fire move ``t`` with top u and bottom v; returns the tail
        endpoints of the freshly spliced edges."""
        conn = self.conn
        cuts = self.cuts
        long = self.long
        # lane entry -> (lane exit, the lane's own cuts, its wraps)
        if t == TYPE_I:
            cuts.pop(3 * v + 1, None)
            long.pop(3 * v + 1, None)
            lanes = {3 * u: (3 * v + 2, cuts.pop(3 * v, []), long.pop(3 * v, 0))}
        else:
            cm = cuts.pop(3 * v, [])
            lm = long.pop(3 * v, 0)
            # the two lanes run parallel where the middle edge was; the left
            # lane is radially inner, so its cut copies sort first
            lanes = {
                3 * u: (3 * v + 1, [p + (0,) for p in cm], lm),
                3 * u + 1: (3 * v + 2, [p + (1,) for p in cm], lm),
            }
        exits = {lane[0] for lane in lanes.values()}

        def walk(head):
            """Follow the strand into ``head`` through the lanes, popping each
            edge's cuts and wraps; returns the first head that is not a lane
            entry left to walk, with the cuts and wraps gathered."""
            acc_cuts = []
            acc_lw = 0
            while True:
                acc_cuts += cuts.pop(head, ())
                acc_lw += long.pop(head, 0)
                if head not in lanes:
                    return head, acc_cuts, acc_lw
                exit_, lane_cuts, lane_lw = lanes.pop(head)
                acc_cuts += lane_cuts
                acc_lw += lane_lw
                head = conn[exit_]

        touched = []
        # an open strand enters the lanes from an edge no lane feeds
        for entry in [e for e in lanes if conn[e] not in exits]:
            tail = conn[entry]
            head, acc_cuts, acc_lw = walk(entry)
            conn[tail] = head
            conn[head] = tail
            if acc_cuts:
                cuts[head] = acc_cuts
            if acc_lw:
                long[head] = acc_lw
            touched.append(tail)
        while lanes:  # the rest are closed orbits: free loops are born
            _, acc_cuts, acc_lw = walk(next(iter(lanes)))
            self.free_loops.append(FreeLoop(acc_cuts, acc_lw))

        self.kind[u] = DEAD
        self.kind[v] = DEAD
        return touched


def cutting_sequence(c: ClosedDiagram):
    """All cut points in ray order as (position, carrier) pairs.

    The carrier is the head endpoint of the cut edge, or ("loop", i)
    for cuts sitting on free loop i.  This is the only code that
    compares positions; every reader of the cut order goes through it.
    """
    out = [(p, h) for h, ps in c.cuts.items() for p in ps]
    out += [(p, ("loop", i)) for i, f in enumerate(c.free_loops) for p in f.cuts]
    out.sort(key=lambda x: x[0])
    return out


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

    src_peer = d.src_conn  # what source i feeds (head or sink code)
    dlong = d.long or {}
    done = [False] * k

    def glue(i):
        """Walk the glue chain from sink i, through sources that feed sinks
        directly, to a vertex head or back to a walked sink; returns
        (head or None, cut positions, wrap count)."""
        cuts = []
        lw = 0
        while not done[i]:
            done[i] = True
            j = sigma(i)
            cuts.append((i,))
            lw += dlong.get(sink_code(i), 0)
            if mode == TORAL and j < i:
                lw += 1  # the glue passes the longitude line
            head = src_peer[j]
            if head >= 0:
                return head, cuts, lw + dlong.get(head, 0)
            i = sink_index(head)  # source j feeds sink i directly
        return None, cuts, lw

    for i0, tail in enumerate(d.snk_conn):
        if tail < 0:
            continue  # strand starts at a source; walked from its sink side
        head, cuts, lw = glue(i0)
        c.conn[tail] = head
        c.conn[head] = tail
        c.cuts[head] = cuts
        if lw:
            c.long[head] = lw
        else:
            c.long.pop(head, None)

    # remaining glue orbits never touch a vertex: free loops
    for i0 in range(k):
        if not done[i0]:
            head, cuts, lw = glue(i0)
            assert head is None, "orbit re-entered the graph"
            c.free_loops.append(FreeLoop(cuts, lw))
    return c


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
    return _close(d, TORAL, lambda i: (i + shift) % k)


def close_abstract(d: StrandDiagram, perm=None) -> ClosedDiagram:
    """V closure: glue sink i to source perm[i] (identity by default)."""
    if perm is None:
        return _close(d, CLOSED, lambda i: i)
    p = tuple(perm)
    return _close(d, CLOSED, lambda i: p[i])


# -- reduction ----------------------------------------------------------------


def reduce_closed(c: ClosedDiagram) -> ClosedDiagram:
    """Apply moves I/II to exhaustion, then merge adjacent free loops."""
    reduce_diagram(c)
    _merge_free_loops(c)
    return c


def _merge_free_loops(c: ClosedDiagram) -> None:
    """Type III: collapse pairs of free loops with equal class.

    In closed (V) mode any two loops of equal cutting weight merge.  On
    the annulus/torus the loops must also cobound an empty region,
    detected as two of their cuts being neighbours in the global cut
    order (foreign bands would have to interpose cuts everywhere).

    The cuts are read once in cut order and linked.  Each merge takes
    the first mergeable pair in cut order (keyed by its first cut, so
    the torus's wrap pair comes last) and unlinks the later loop's cuts;
    only the cuts before them can start new pairs.
    """
    loops = c.free_loops
    if c.mode == CLOSED:
        first = {}
        for f in loops:
            first.setdefault((len(f.cuts), f.long), f)
        c.free_loops = list(first.values())
        return
    if len(loops) < 2:
        return
    # the owner of every cut in cut order; an edge's cut is owned by len(loops)
    owner = [h[1] if isinstance(h, tuple) else len(loops) for _, h in cutting_sequence(c)]
    owned = [[] for _ in range(len(loops) + 1)]
    for i, o in enumerate(owner):
        owned[o].append(i)
    # the class that merges; None for edges and for annular loops that do
    # not wind once, since embedded annular loops do
    cls = [(len(f.cuts), f.long) if c.mode == TORAL or len(f.cuts) == 1 else None for f in loops]
    cls.append(None)
    nm = len(owner)
    nxt = list(range(1, nm)) + [0 if c.mode == TORAL else -1]
    prv = [nm - 1 if c.mode == TORAL else -1] + list(range(nm - 1))

    def mergeable(i):
        j = nxt[i]
        a, b = owner[i], owner[j]
        return j >= 0 and a != b and cls[a] is not None and cls[a] == cls[b]

    heap = [i for i in range(nm) if mergeable(i)]  # ascending, so a heap
    dropped = set()
    while heap:
        i = heapq.heappop(heap)
        if owner[i] in dropped or not mergeable(i):
            continue
        drop = max(owner[i], owner[nxt[i]])
        dropped.add(drop)
        for m in owned[drop]:
            if prv[m] >= 0:
                nxt[prv[m]] = nxt[m]
            if nxt[m] >= 0:
                prv[nxt[m]] = prv[m]
        for m in owned[drop]:
            if prv[m] >= 0 and owner[prv[m]] != drop:
                heapq.heappush(heap, prv[m])
    c.free_loops = [f for k, f in enumerate(loops) if k not in dropped]


# -- structure: cycles, components, rings -------------------------------------


@dataclass(eq=False)
class Cycle:
    vertices: list[int]
    heads: list[int]          # head endpoints of the on-cycle edges
    pure: str | None          # "split", "merge" or None (mixed)
    cls: tuple[int, int]      # (meridian, wrap): cut count and wrap sum


@dataclass
class Ring:
    kind: str                     # "free" or "component"
    radial_index: int
    cycles: list[Cycle] = field(default_factory=list)
    vertices: list[int] = field(default_factory=list)
    loop: FreeLoop | None = None


class Structure:
    """The directed cycles of a closed diagram, found in one pass, and the
    rings built from them.

    The pass is an iterative strongly connected component search (Tarjan
    1972) over the flat slot arrays, rooted at vertex ids in increasing
    order.  Each component that holds a cycle becomes a ``Cycle`` with
    its class, or raises StructureViolation if two cycles share a vertex.
    """

    __slots__ = ("c", "cycles", "owners")

    def __init__(self, c: ClosedDiagram):
        self.c = c
        self.cycles = []
        self.owners = []
        kind = c.kind
        conn = c.conn
        n = len(kind)
        num = [0] * n  # discovery number; 0 until visited
        low = [0] * n
        nxt = [0] * n  # next output slot to follow
        on_stack = bytearray(n)
        stack = []
        count = 0
        for root in range(n):
            if num[root] or kind[root] == DEAD:
                continue
            count += 1
            num[root] = low[root] = count
            stack.append(root)
            on_stack[root] = 1
            nxt[root] = OUT_SLOTS[kind[root]][0]
            path = [root]
            while path:
                v = path[-1]
                s = nxt[v]
                if s < 3:
                    nxt[v] = s + 1
                    w = conn[3 * v + s] // 3
                    if not num[w]:
                        count += 1
                        num[w] = low[w] = count
                        stack.append(w)
                        on_stack[w] = 1
                        nxt[w] = OUT_SLOTS[kind[w]][0]
                        path.append(w)
                    elif on_stack[w] and num[w] < low[v]:
                        low[v] = num[w]
                    continue
                path.pop()
                lv = low[v]
                if path and lv < low[path[-1]]:
                    low[path[-1]] = lv
                if lv == num[v]:
                    w = stack.pop()
                    if w == v and v not in (conn[3 * v + 1] // 3, conn[3 * v + 2] // 3):
                        on_stack[v] = 0  # a single vertex and no loop: no cycle
                        continue
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        comp.append(w)
                    self.cycles.append(self._cycle(comp, on_stack))
                    for w in comp:
                        on_stack[w] = 0

    def _cycle(self, comp: list[int], inside) -> Cycle:
        """The cycle of strongly connected component ``comp``.  Its
        vertices are marked in ``inside``; no other marked vertex has an
        edge from ``comp``, since the search completes ``comp`` first."""
        c = self.c
        kind = c.kind
        conn = c.conn
        head = {}
        for v in comp:
            hs = [conn[3 * v + s] for s in OUT_SLOTS[kind[v]] if inside[conn[3 * v + s] // 3]]
            if len(hs) != 1:
                raise StructureViolation(
                    f"vertex {v} has {len(hs)} successors inside one strongly "
                    "connected component; directed cycles are not disjoint"
                )
            head[v] = hs[0]
        # one successor each in a strongly connected component: a single cycle
        start = v = min(comp)
        vertices = []
        heads = []
        while True:
            vertices.append(v)
            heads.append(head[v])
            v = head[v] // 3
            if v == start:
                break
        kinds = {kind[v] for v in vertices}
        pure = "split" if kinds == {SPLIT} else "merge" if kinds == {MERGE} else None
        weight = sum(len(c.cuts.get(h, ())) for h in heads)
        wrap = sum(c.long.get(h, 0) for h in heads)
        return Cycle(vertices, heads, pure, (weight, wrap))

    def check_cycles(self) -> None:
        """Every directed cycle is pure with positive winding, and so is
        every free loop."""
        for cyc in self.cycles:
            if cyc.pure is None:
                raise StructureViolation(
                    f"cycle through {cyc.vertices} mixes splits and merges"
                )
            if cyc.cls[0] <= 0:
                raise StructureViolation(f"cycle through {cyc.vertices} has winding {cyc.cls[0]}")
        for f in self.c.free_loops:
            if len(f.cuts) <= 0:
                raise StructureViolation("free loop with nonpositive winding")

    def rings(self) -> list[Ring]:
        """Rings ordered radially (annular) or cyclically from the first cut
        (toral), each component's cycles too: both by where their first
        cut comes in ``cutting_sequence``.  Records in ``owners`` the
        (ring index, cycle or None) of every cut, in that order; None
        marks a cut off the cycles.  Needs a reduced diagram, whose every
        ring carries a cut."""
        c = self.c
        comps, label = _components(c)
        cycle_at = {h: cyc for cyc in self.cycles for h in cyc.heads}
        # every component, then every free loop, indexed once its first cut comes
        found = [Ring("component", -1, vertices=comp) for comp in comps]
        found += [Ring("free", -1, loop=f) for f in c.free_loops]
        rings = []
        placed = set()
        self.owners = []
        for _, h in cutting_sequence(c):
            ring = found[len(comps) + h[1] if isinstance(h, tuple) else label[h // 3]]
            if ring.radial_index < 0:
                ring.radial_index = len(rings)
                rings.append(ring)
            cyc = cycle_at.get(h)
            if cyc is not None and cyc not in placed:
                placed.add(cyc)
                ring.cycles.append(cyc)
            self.owners.append((ring.radial_index, cyc))
        for ring in found[: len(comps)]:  # reduced: a split loop feeds a merge loop
            if len(ring.cycles) < 2:
                raise StructureViolation(
                    f"component {ring.vertices} has {len(ring.cycles)} directed cycles"
                )
        return rings

    def checked_rings(self) -> list[Ring]:
        """``rings``, after the ring clauses of the structure theorem: in
        annular mode the cycles of a component alternate between split
        and merge loops and every cycle winds once; in toral mode all
        classes agree modulo the meridian and are primitive."""
        c = self.c
        rings = self.rings()
        classes = [cyc.cls for cyc in self.cycles] + [(len(f.cuts), f.long) for f in c.free_loops]
        if c.mode == ANNULAR:
            for ring in rings:
                kinds = [cyc.pure for cyc in ring.cycles]
                for a, b in zip(kinds, kinds[1:]):
                    if a == b:
                        raise StructureViolation(
                            f"consecutive {a} loops do not alternate in component "
                            f"{ring.vertices}"
                        )
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


def _components(c: ClosedDiagram) -> tuple[list[list[int]], list[int]]:
    """The weak components, each sorted, in order of least vertex, and the
    component index of every vertex (-1 for dead ones)."""
    kind = c.kind
    conn = c.conn
    label = [-1] * len(kind)
    comps = []
    for v0 in range(len(kind)):
        if label[v0] >= 0 or kind[v0] == DEAD:
            continue
        ci = len(comps)
        label[v0] = ci
        comp = [v0]
        for v in comp:
            for e in conn[3 * v : 3 * v + 3]:
                if label[e // 3] < 0:
                    label[e // 3] = ci
                    comp.append(e // 3)
        comp.sort()
        comps.append(comp)
    return comps, label


def _require_reduced(c: ClosedDiagram) -> None:
    redexes = find_redexes(c)
    if redexes:
        raise NotReduced(f"diagram has redex {redexes[0]}")


def reduced_structure(c: ClosedDiagram) -> Structure:
    """The structure of a reduced closed diagram, after ``check_cycles``.
    Raises NotReduced first: this is the one reduction gate of every
    canonical form."""
    _require_reduced(c)
    s = Structure(c)
    s.check_cycles()
    return s


def weak_components(c: ClosedDiagram) -> list[list[int]]:
    return _components(c)[0]


def ring_decomposition(c: ClosedDiagram) -> list[Ring]:
    """Rings ordered radially (annular) or cyclically from the first cut
    (toral).  Requires a reduced diagram."""
    return reduced_structure(c).rings()


def check_cycle_structure(c: ClosedDiagram) -> list[Ring]:
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
    """
    # cycle-level clauses come first so that hand-built pathologies are
    # named even when (necessarily) unreduced: a mixed cycle always
    # contains a merge-then-split edge, i.e. a type II redex
    s = Structure(c)
    s.check_cycles()
    _require_reduced(c)
    return s.checked_rings()

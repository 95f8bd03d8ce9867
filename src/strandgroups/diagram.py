"""Square (m,n)-strand diagrams as ported directed acyclic graphs.

A diagram has m ordered boundary sources along the top, n ordered sinks
along the bottom, and interior vertices that are splits (one input, two
ordered outputs) or merges (two ordered inputs, one output).

Representation: a flat endpoint-connection table instead of explicit
edge records.  Every vertex owns three slots; an edge is a mutual pair
of endpoint codes.  This keeps reduction allocation-free on million-
vertex diagrams; edge records are synthesized on demand for export.

Endpoint codes:
    vertex v, slot s        ->  3*v + s
    boundary source i       ->  -2 - 2*i   (even negative)
    boundary sink i         ->  -3 - 2*i   (odd negative)

Slots: split = (0 input, 1 left output, 2 right output),
       merge = (0 left input, 1 right input, 2 output).

Optionally a diagram carries per-edge wrap counts (``long``) recording
crossings with a longitudinal reference line, which turns the square
into a cylinder; this is how T words are modelled before toral closure.
Weights are keyed by the head endpoint of each edge (every edge has a
unique head) and stored sparsely.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, repeat

from .errors import ArityMismatch
from .trees import TreePair

SPLIT = 0
MERGE = 1
DEAD = 2

# output slots by vertex kind: a split has two, a merge one, a dead vertex none
OUT_SLOTS = ((1, 2), (2,), ())

TOMB = -1
_ALIVE = bytes.maketrans(b"\x00\x01\x02", b"\x01\x01\x00")  # kind -> 1 if live
_DEAD3 = bytes.maketrans(b"\x00\x01\x02", b"\x00\x00\x03")  # kind -> 3 if dead

TYPE_I = "I"
TYPE_II = "II"


def source_code(i: int) -> int:
    return -2 - 2 * i


def sink_code(i: int) -> int:
    return -3 - 2 * i


def is_source_code(e: int) -> bool:
    return e < -1 and e % 2 == 0


def is_sink_code(e: int) -> bool:
    return e < -1 and e % 2 == 1


def source_index(e: int) -> int:
    return (-e - 2) // 2


def sink_index(e: int) -> int:
    return (-e - 3) // 2


class StrandDiagram:
    __slots__ = ("kind", "conn", "src_conn", "snk_conn", "long")

    def __init__(self, m: int = 0, n: int = 0):
        self.kind = bytearray()
        self.conn: list[int] = []
        self.src_conn: list[int] = [TOMB] * m
        self.snk_conn: list[int] = [TOMB] * n
        self.long: dict[int, int] | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.src_conn)

    @property
    def n(self) -> int:
        return len(self.snk_conn)

    def num_vertices(self) -> int:
        """Count of live (non-removed) vertices."""
        kind = self.kind
        return sum(1 for v in range(len(kind)) if kind[v] != DEAD)

    def live_vertices(self):
        kind = self.kind
        return (v for v in range(len(kind)) if kind[v] != DEAD)

    def is_identity(self) -> bool:
        """True for the degenerate (1,1) diagram with no vertices."""
        return (self.m == 1 and self.n == 1 and self.num_vertices() == 0)

    def _new_vertex(self, k: int) -> int:
        v = len(self.kind)
        self.kind.append(k)
        self.conn.extend((TOMB, TOMB, TOMB))
        return v

    def read_conn(self, e: int) -> int:
        if e >= 0:
            return self.conn[e]
        if e % 2 == 0:
            return self.src_conn[(-e - 2) // 2]
        return self.snk_conn[(-e - 3) // 2]

    def _write_conn(self, e: int, val: int) -> None:
        if e >= 0:
            self.conn[e] = val
        elif e % 2 == 0:
            self.src_conn[(-e - 2) // 2] = val
        else:
            self.snk_conn[(-e - 3) // 2] = val

    def _link(self, a: int, b: int) -> None:
        if a >= 0 and b >= 0:
            self.conn[a] = b
            self.conn[b] = a
        else:
            self._write_conn(a, b)
            self._write_conn(b, a)

    def is_tail(self, e: int) -> bool:
        """True if an edge leaves from endpoint ``e``."""
        if e >= 0:
            k = self.kind[e // 3]
            s = e % 3
            return (k == SPLIT and s != 0) or (k == MERGE and s == 2)
        return is_source_code(e)

    def edges(self):
        """Yield live edges as (tail_endpoint, head_endpoint) pairs."""
        for i, peer in enumerate(self.src_conn):
            yield (source_code(i), peer)
        conn = self.conn
        for v, k in enumerate(self.kind):
            for s in OUT_SLOTS[k]:
                yield (3 * v + s, conn[3 * v + s])

    def edge_class(self, head: int) -> int:
        """Wrap count of the edge arriving at ``head``: a type I bigon
        cancels only when both of its edges have the same class."""
        long = self.long
        return 0 if long is None else long.get(head, 0)

    def splice(self, t: str, u: int, v: int) -> tuple[int, ...]:
        """Fire move ``t`` with top u and bottom v; returns the tails of
        the spliced edges (boundary codes included)."""
        conn = self.conn
        long = self.long
        a = conn[3 * u]
        if t == TYPE_I:
            e = conn[3 * v + 2]
            if long is not None:
                w = long.pop(3 * u, 0) + long.pop(3 * v, 0) + long.pop(e, 0)
                long.pop(3 * v + 1, None)
                if w:
                    long[e] = w
            self._link(a, e)
            tails = (a,)
        else:
            b = conn[3 * u + 1]
            c = conn[3 * v + 1]
            e = conn[3 * v + 2]
            if long is not None:
                wm = long.pop(3 * v, 0)
                wl = long.pop(3 * u, 0) + wm + long.pop(c, 0)
                wr = long.pop(3 * u + 1, 0) + wm + long.pop(e, 0)
                if wl:
                    long[c] = wl
                if wr:
                    long[e] = wr
            self._link(a, c)
            self._link(b, e)
            tails = (a, b)
        self.kind[u] = DEAD
        self.kind[v] = DEAD
        return tails

    def copy(self) -> "StrandDiagram":
        d = StrandDiagram()
        d.kind = bytearray(self.kind)
        d.conn = list(self.conn)
        d.src_conn = list(self.src_conn)
        d.snk_conn = list(self.snk_conn)
        d.long = None if self.long is None else dict(self.long)
        return d

    def compact(self) -> None:
        """Renumber the live vertices 0..n-1 in order, in place."""
        kind = self.kind
        live = bytearray(len(self.conn))  # 1 at each slot of a live vertex
        for s in range(3):
            live[s::3] = kind.translate(_ALIVE)
        # an endpoint moves down 3 places per dead vertex below it; boundary
        # codes index the zeros appended at the end and stay where they are
        shift = list(accumulate(kind.translate(_DEAD3)))
        shift += [0] * (max(self.m, self.n) + 1)
        self.conn[:] = [e - shift[e // 3] for e in compress(self.conn, live)]
        kind[:] = kind.translate(None, bytes((DEAD,)))
        for ends in (self.src_conn, self.snk_conn):
            ends[:] = [e - shift[e // 3] for e in ends]
        if self.long:
            moved = {h - shift[h // 3]: w for h, w in self.long.items()}
            self.long.clear()
            self.long.update(moved)


def in_traversal_order(d: StrandDiagram) -> StrandDiagram:
    """A copy of ``d`` with its vertices numbered in the order that a
    traversal from the sources meets them, ports in slot order, and its
    wrap counts as that traversal's residuals: a gauge-fixed numbering,
    so that the copy does not depend on how ``d`` was built."""
    long = d.long or {}
    order = []  # read by the second half of ``ends`` while it grows
    phi = {}  # vertex -> wraps summed from the sources along the traversal; boundary codes 0
    ends = chain(zip(map(source_code, range(d.m)), d.src_conn, repeat(0)),
                 ((e, d.conn[e], phi[v]) for v in order for e in range(3 * v, 3 * v + 3)))
    for e, peer, p in ends:
        if peer >= 0 and peer // 3 not in phi:
            order.append(peer // 3)
            phi[peer // 3] = p + long.get(peer, 0) if d.is_tail(e) else p - long.get(e, 0)
    new = {3 * v + s: 3 * i + s for i, v in enumerate(order) for s in range(3)}
    r = StrandDiagram()
    r.kind = bytearray(d.kind[v] for v in order)
    r.conn = [new.get(e, e) for e in map(d.conn.__getitem__, new)]
    r.src_conn, r.snk_conn = ([new.get(e, e) for e in side] for side in (d.src_conn, d.snk_conn))
    wraps = ((h, phi.get(t // 3, 0) + long.get(h, 0) - phi.get(h // 3, 0)) for t, h in d.edges())
    r.long = None if d.long is None else {new.get(h, h): w for h, w in wraps if w}
    return r


def encode_square(d: StrandDiagram) -> bytes:
    """Bytes equal exactly for square diagrams that are isomorphic
    preserving ports and boundary order, with wrap counts equal up to a
    coboundary at the interior vertices: those of ``in_traversal_order(d)``,
    with its wraps sorted by head."""
    r = in_traversal_order(d)
    wraps = None if r.long is None else sorted(r.long.items())
    return repr((r.src_conn, r.snk_conn, bytes(r.kind), r.conn, wraps)).encode()


def identity_diagram(cylindrical: bool = False) -> StrandDiagram:
    d = StrandDiagram(1, 1)
    d._link(source_code(0), sink_code(0))
    if cylindrical:
        d.long = {}
    return d


def concatenate(top: StrandDiagram, bottom: StrandDiagram) -> StrandDiagram:
    """Splice sink i of ``top`` to source i of ``bottom``; no reduction."""
    if top.n != bottom.m:
        raise ArityMismatch(f"cannot concatenate ({top.m},{top.n}) with ({bottom.m},{bottom.n})")
    off = 3 * len(top.kind)

    def tr(x):
        return x + off if x >= 0 else x

    res = StrandDiagram(top.m, bottom.n)
    res.kind = top.kind + bottom.kind
    res.conn = list(top.conn)
    res.conn.extend(tr(x) for x in bottom.conn)
    res.src_conn = list(top.src_conn)
    res.snk_conn = [tr(x) for x in bottom.snk_conn]

    if top.long is not None or bottom.long is not None:
        res.long = {}
        if top.long:
            for h, w in top.long.items():
                if not is_sink_code(h):
                    res.long[h] = w
        if bottom.long:
            for h, w in bottom.long.items():
                res.long[tr(h)] = res.long.get(tr(h), 0) + w

    for i in range(top.n):
        tail = top.snk_conn[i]
        head = tr(bottom.src_conn[i])
        res._link(tail, head)
        if res.long is not None and top.long:
            w = top.long.get(sink_code(i), 0)
            if w:
                res.long[head] = res.long.get(head, 0) + w
    if res.long is not None:
        res.long = {h: w for h, w in res.long.items() if w}
    return res


_INV_SLOT = {SPLIT: (2, 0, 1), MERGE: (1, 2, 0)}


def invert(d: StrandDiagram) -> StrandDiagram:
    """Reflect across a horizontal line and reverse all edges.

    Splits become merges with left/right preserved as mirror images;
    sources and sinks swap; wrap counts negate (the reflected strand
    crosses the longitude line in the opposite direction).
    """
    res = StrandDiagram(d.n, d.m)
    kind = d.kind
    res.kind = bytearray(DEAD if k == DEAD else 1 - k for k in kind)
    res.conn = [TOMB] * len(d.conn)

    def f(x):
        if x >= 0:
            v, s = divmod(x, 3)
            return 3 * v + _INV_SLOT[kind[v]][s]
        if is_source_code(x):
            return sink_code(source_index(x))
        return source_code(sink_index(x))

    for v in range(len(kind)):
        if kind[v] == DEAD:
            continue
        for s in range(3):
            res._write_conn(f(3 * v + s), f(d.conn[3 * v + s]))
    for i, peer in enumerate(d.src_conn):
        res._write_conn(sink_code(i), f(peer))
    for i, peer in enumerate(d.snk_conn):
        res._write_conn(source_code(i), f(peer))

    if d.long is not None:
        res.long = {}
        for h, w in d.long.items():
            if w:
                tail = d.read_conn(h)
                res.long[f(tail)] = -w
    return res


def vine(k: int) -> StrandDiagram:
    """The right vine: the (1,k)-diagram of k-1 nested right splits."""
    if k < 1:
        raise ValueError("vine needs k >= 1")
    if k == 1:
        return identity_diagram()
    d = StrandDiagram(1, k)
    prev_tail = source_code(0)
    for j in range(k - 1):
        v = d._new_vertex(SPLIT)
        d._link(prev_tail, 3 * v + 0)
        d._link(3 * v + 1, sink_code(j))
        prev_tail = 3 * v + 2
    d._link(prev_tail, sink_code(k - 1))
    return d


def conjugate_by_vine(d: StrandDiagram) -> StrandDiagram:
    """Transport a (k,k)-diagram to the (1,1)-diagram vine . d . vine^-1."""
    if d.m != d.n:
        raise ArityMismatch(f"diagram is ({d.m},{d.n}), need equal arities")
    v = vine(d.m)
    return concatenate(v, concatenate(d, invert(v)))


def from_tree_pair(tp: TreePair, cylindrical: bool = False) -> StrandDiagram:
    """Glue the two trees of a tree pair into a (1,1)-diagram.

    Domain-tree internal nodes become splits, range-tree nodes merges;
    domain leaf i feeds range leaf ``bijection[i]``.  With
    ``cylindrical=True`` the bijection must be cyclic and strands that
    wrap around the cylinder get wrap count 1.
    """
    d = StrandDiagram(1, 1)
    if cylindrical:
        d.long = {}
    dom_tails: list[int] = []
    rng_heads: list[int] = []

    def grow(t, port, k, slots, leaves):
        # pre-order: slots are (edge to parent, left child, right child)
        stack = [(t, port)]
        while stack:
            node, port = stack.pop()
            if node is None:
                leaves.append(port)
                continue
            v = d._new_vertex(k)
            d._link(port, 3 * v + slots[0])
            stack.append((node[1], 3 * v + slots[2]))
            stack.append((node[0], 3 * v + slots[1]))

    grow(tp.domain, source_code(0), SPLIT, (0, 1, 2), dom_tails)
    grow(tp.range_, sink_code(0), MERGE, (2, 0, 1), rng_heads)

    shift = tp.cyclic_shift() if cylindrical else 0
    nl = len(dom_tails)
    for i, tail in enumerate(dom_tails):
        head = rng_heads[tp.bijection[i]]
        d._link(tail, head)
        if cylindrical and i + shift >= nl:
            d.long[head] = 1
    return d

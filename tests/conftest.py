import random
from itertools import chain

import pytest

from strandgroups import rewrite, words
from strandgroups.closure import ClosedDiagram
from strandgroups.diagram import (
    DEAD,
    MERGE,
    OUT_SLOTS,
    SPLIT,
    TOMB,
    StrandDiagram,
    is_source_code,
    sink_code,
    sink_index,
    source_code,
    source_index,
)
from strandgroups.errors import StrandError, StructureViolation
from strandgroups.rewrite import _redex_at, find_redexes
from strandgroups.trees import LEAF, TreePair
from strandgroups.words import SINK, Word, commutator, parse_word


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_tree(rng, n_leaves):
    """Uniform-ish random binary tree with the given number of leaves."""
    if n_leaves == 1:
        return LEAF
    left = rng.randrange(1, n_leaves)
    return (random_tree(rng, left), random_tree(rng, n_leaves - left))


def random_tree_pair(rng, n_leaves, group="F"):
    dom = random_tree(rng, n_leaves)
    ran = random_tree(rng, n_leaves)
    if group == "F":
        bij = tuple(range(n_leaves))
    elif group == "T":
        s = rng.randrange(n_leaves)
        bij = tuple((i + s) % n_leaves for i in range(n_leaves))
    else:
        bij = list(range(n_leaves))
        rng.shuffle(bij)
        bij = tuple(bij)
    return TreePair(dom, ran, bij)


def permute_vertices(c: ClosedDiagram, rng) -> ClosedDiagram:
    """Relabel vertex ids of a closed diagram by a random permutation."""
    n = len(c.kind)
    perm = list(range(n))
    rng.shuffle(perm)
    out = ClosedDiagram(c.mode)
    out.kind = [0] * n
    out.conn = [0] * (3 * n)
    for v in range(n):
        out.kind[perm[v]] = c.kind[v]
        for s in range(3):
            peer = c.conn[3 * v + s]
            out.conn[3 * perm[v] + s] = 3 * perm[peer // 3] + peer % 3
    out.cuts = {3 * perm[h // 3] + h % 3: list(ps) for h, ps in c.cuts.items()}
    out.long = {3 * perm[h // 3] + h % 3: w for h, w in c.long.items()}
    out.free_loops = [type(f)(list(f.cuts), f.long) for f in c.free_loops]
    return out


def reduce_random(g, rng):
    """Reduce a square or closed diagram in place, firing its redexes in
    random order; the confluence reference for ``reduce_diagram``.  A
    closed diagram still needs ``reduce_closed`` for its free loops."""
    kind = g.kind
    pairs = [(r.top, r.bottom, r.kind) for r in find_redexes(g)]
    while pairs:
        i = rng.randrange(len(pairs))
        pairs[i], pairs[-1] = pairs[-1], pairs[i]
        u, v, t = pairs.pop()
        if kind[u] == DEAD or kind[v] == DEAD or _redex_at(g, u) != (t, v):
            continue
        for a in g.splice(t, u, v):
            hit = _redex_at(g, a // 3) if a >= 0 else None
            if hit is not None:
                pairs.append((a // 3, hit[1], hit[0]))
    return g


# F's two defining relators, which hold in T and V too
RELATORS = (
    commutator(parse_word("x0 X1"), parse_word("X0 x1 x0")),
    commutator(parse_word("x0 X1"), parse_word("X0^2 x1 x0^2")),
)


def with_relators(w: Word, count: int, rng) -> Word:
    """``w`` with ``count`` relators or their inverses inserted at random
    places: the same element, but ``w * result^-1`` does not freely reduce
    to the empty word."""
    letters = list(w.letters)
    for _ in range(count):
        r = rng.choice(RELATORS)
        r = r if rng.random() < 0.5 else r.inverse()
        i = rng.randrange(len(letters) + 1)
        letters[i:i] = r.letters
    return Word(w.group, tuple(letters))


def _grow(d, keys):
    """Splice each key's template between the sink and its tail, the
    endpoint that fed the sink; yields that tail after each splice.  The
    sink edge's wrap count moves onto the template's source edge."""
    kind = d.kind
    conn = d.conn
    snk_conn = d.snk_conn
    long = d.long
    templates = words._TEMPLATES[long is not None]
    for key in keys:
        tk, tconn, x_ep, y_ep, tlong, snk_lw = templates[key]
        if not tk:
            continue
        tail = snk_conn[0]
        off = len(conn)
        kind.extend(tk)
        conn.extend(map(off.__add__, tconn))
        x = x_ep + off
        y = y_ep + off
        conn[x] = tail
        if tail >= 0:
            conn[tail] = x
        else:
            d.src_conn[0] = x
        conn[y] = SINK
        snk_conn[0] = y
        if long is not None:
            carried = long.pop(SINK, 0)
            for h, wv in tlong:
                long[h + off] = wv
            if carried:
                long[x] = long.get(x, 0) + carried
            if snk_lw:
                long[SINK] = snk_lw
        yield tail


def reference_seams(d, keys, trace=None):
    """The reference for ``words._seams``: ``_grow`` splices each template
    and ``rewrite.cascade`` fires the moves from the old tail, through
    ``_redex_at`` and ``StrandDiagram.splice``; returns the moves."""
    kind = d.kind
    moves = dead = 0
    for tail in _grow(d, keys):
        if tail >= 0 and kind[tail // 3] == MERGE:
            fired = rewrite.cascade(d, tail // 3, trace)
            moves += fired
            dead += 2 * fired
            n = len(kind)
            while n and kind[n - 1] == DEAD:
                n -= 1
            dead -= len(kind) - n
            del kind[n:], d.conn[3 * n :]
            if 2 * dead > n:
                d.compact()
                dead = 0
    if dead:
        d.compact()
    return moves


def count_seams(monkeypatch, observe=None):
    """Wrap ``words._seams`` so that each run appends its (moves, redex
    tests) to the returned list; ``observe(d)`` runs before each splice."""
    counts = []
    seams = words._seams

    def watched(d, keys, trace=None, reduce=True):
        if observe is not None:
            keys = (observe(d) or key for key in keys)
        counts.append(seams(d, keys, trace, reduce))
        return counts[-1]

    monkeypatch.setattr(words, "_seams", watched)
    return counts


# -- structural checks: every invariant of a diagram, checked from scratch ----


class CyclicGraph(StrandError):
    """A square diagram contains a directed cycle."""


class DanglingPort(StrandError):
    """A vertex port or boundary slot is not met by exactly one edge end."""


class BoundaryMismatch(StrandError):
    """Boundary slot bookkeeping is inconsistent."""


def validate(d: StrandDiagram) -> None:
    """Raise if any structural invariant of square diagram ``d`` fails."""
    if d.m < 1 or d.n < 1:
        raise BoundaryMismatch("need at least one source and one sink")
    kind = d.kind
    conn = d.conn
    if 3 * len(kind) != len(conn):
        raise DanglingPort("slot table length mismatch")

    def check_endpoint(e, here):
        if e == TOMB:
            raise DanglingPort(f"endpoint {here} is unconnected")
        if e >= 0:
            v = e // 3
            if v >= len(kind) or kind[v] == DEAD:
                raise DanglingPort(f"endpoint {here} points at removed vertex {v}")
        elif is_source_code(e):
            if source_index(e) >= d.m:
                raise BoundaryMismatch(f"endpoint {here} names source {source_index(e)}")
        elif sink_index(e) >= d.n:
            raise BoundaryMismatch(f"endpoint {here} names sink {sink_index(e)}")
        if d.read_conn(e) != here:
            raise DanglingPort(f"connection {here} <-> {e} is not mutual")
        if d.is_tail(e) == d.is_tail(here):
            raise DanglingPort(f"edge {here} <-> {e} lacks a direction")

    for i, peer in enumerate(d.src_conn):
        check_endpoint(peer, source_code(i))
    for i, peer in enumerate(d.snk_conn):
        check_endpoint(peer, sink_code(i))
    for v in range(len(kind)):
        if kind[v] == DEAD:
            continue
        for s in range(3):
            check_endpoint(conn[3 * v + s], 3 * v + s)

    bad = cyclic_vertex(kind, conn, lambda head: True)
    if bad is not None:
        raise CyclicGraph(f"directed cycle through vertex {bad}")


def validate_positive(c: ClosedDiagram) -> None:
    """Every directed cycle of closed diagram ``c`` must have positive
    total meridian weight.

    Works on unreduced diagrams too: since cut counts are never
    negative, a nonpositive cycle is a cycle of cut-free edges, so
    it suffices that the zero-weight subgraph is acyclic.
    """
    bad = cyclic_vertex(c.kind, c.conn, lambda head: not c.cuts.get(head))
    if bad is not None:
        raise StructureViolation(f"directed cycle with zero winding through vertex {bad}")
    for f in c.free_loops:
        if len(f.cuts) <= 0:
            raise StructureViolation("free loop with nonpositive winding")


def cyclic_vertex(kind, conn, follow):
    """The least live vertex on or below a directed cycle of the edges
    whose heads ``follow`` picks, or None: Kahn's sort places every
    vertex in dependency order and leaves exactly those unplaced."""
    outs = [[h // 3 for h in (conn[3 * v + s] for s in OUT_SLOTS[k]) if h >= 0 and follow(h)]
            for v, k in enumerate(kind)]
    indeg = [0] * len(kind)
    for w in chain.from_iterable(outs):
        indeg[w] += 1
    queue = [v for v, k in enumerate(kind) if k != DEAD and not indeg[v]]
    for v in queue:
        for w in outs[v]:
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    return next((v for v, k in enumerate(kind) if k != DEAD and indeg[v]), None)


# -- JSON import: the reference for the ``export`` round trip -----------------


def square_from_json(obj: dict) -> StrandDiagram:
    """The square diagram that ``io.square_to_json`` wrote as ``obj``."""
    d = StrandDiagram(obj["m"], obj["n"])
    kinds = {}
    ids = {}
    for rec in obj["vertices"]:
        kinds[rec["id"]] = SPLIT if rec["kind"] == "split" else MERGE
    for vid in sorted(kinds):
        ids[vid] = d._new_vertex(kinds[vid])
    has_long = any("longitudeWeight" in rec for rec in obj["edges"])
    if has_long:
        d.long = {}

    def decode(epobj, role):
        if "source" in epobj:
            return source_code(epobj["source"])
        if "sink" in epobj:
            return sink_code(epobj["sink"])
        v = ids[epobj["vertex"]]
        p = epobj["port"]
        k = d.kind[v]
        if role == "from":
            s = p + 1 if k == SPLIT else 2
        else:
            s = 0 if k == SPLIT else p
        return 3 * v + s

    for rec in obj["edges"]:
        tail = decode(rec["from"], "from")
        head = decode(rec["to"], "to")
        d._link(tail, head)
        if has_long and rec.get("longitudeWeight"):
            d.long[head] = rec["longitudeWeight"]
    validate(d)
    return d


# -- cutting cochains: an independent reference for V equality ---------------
#
# Cochains are dicts keyed like ``cutting_sequence`` carriers: an edge's
# head endpoint, or ("loop", i) for free loop i.


def cut_cochain(c: ClosedDiagram) -> dict:
    """The cutting class as a cochain: cut counts per edge and free loop."""
    out = {}
    for _tail, head in c.edges():
        out[head] = len(c.cuts.get(head, ()))
    for i, f in enumerate(c.free_loops):
        out[("loop", i)] = len(f.cuts)
    return out


def cohomology_equivalent(c: ClosedDiagram, w1: dict, w2: dict) -> bool:
    """True iff w1 - w2 is the coboundary of some vertex potential.

    Solved by spanning-tree propagation on each component: assign the
    potential along discovery edges and verify every remaining edge.
    On a graph the cochain-mod-coboundary group is free, so rational
    solvability equals integer solvability; potentials based at 0 stay
    integral automatically.  Free loops admit no coboundary at all, so
    their values must agree exactly.
    """
    for i in range(len(c.free_loops)):
        key = ("loop", i)
        if w1.get(key, 0) != w2.get(key, 0):
            return False

    kind = c.kind
    conn = c.conn

    def diff(head):
        return w1.get(head, 0) - w2.get(head, 0)

    pot: dict[int, int] = {}
    for v0 in c.live_vertices():
        if v0 in pot:
            continue
        pot[v0] = 0
        stack = [v0]
        while stack:
            v = stack.pop()
            for s in range(3):
                ep = 3 * v + s
                peer = conn[ep]
                w = peer // 3
                k = kind[v]
                is_tail = (k == 0 and s != 0) or (k == 1 and s == 2)
                head = peer if is_tail else ep
                # coboundary convention: (df)(edge t->h) = f(h) - f(t)
                step = diff(head) if is_tail else -diff(head)
                if w not in pot:
                    pot[w] = pot[v] + step
                    stack.append(w)
                elif pot[w] != pot[v] + step:
                    return False
    return True


def identity_pair() -> TreePair:
    return TreePair(LEAF, LEAF, (0,))

"""Confluent reduction of strand diagrams, square and closed, by one core.

Two local moves:

    type I  : a split whose left/right outputs are the left/right inputs
              of a single merge (matching orientation only); both
              vertices vanish and one edge remains.
    type II : a merge whose output is the input of a split; both
              vertices vanish and the strands reconnect left-to-left,
              right-to-right.

The redex finder, ``apply_redex`` and the worklist driver take a square
``StrandDiagram`` or a ``closure.ClosedDiagram``.  Two hooks on the
diagram class are all that differ by kind:

    edge_class(head) : the type I bigon rule.  A bigon cancels only when
                       both parallel edges have the same class, i.e. when
                       it spans a disc.  Plain square diagrams have class
                       0 everywhere; cylindrical ones use the wrap count;
                       closed ones use the cut count and the wrap count.
    splice(t, u, v)  : fire the move and return the tails of the spliced
                       edges.  The square splice writes boundary codes;
                       the closed splice concatenates cut lists and turns
                       a strand that closes up on itself into a free loop.

``reduce_diagram`` runs the frontier worklist by default: find all
currently reducible vertices, fire those moves, then re-examine only
vertices adjacent to the rewiring, until no redex remains.  Total work
is linear in practice; per-round sizes are exposed for measurement.
``order="random"`` fires redexes in random order, purely so tests can
exercise confluence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import (
    DEAD,
    MERGE,
    SPLIT,
    TYPE_I,
    TYPE_II,
    StrandDiagram,
    is_sink_code,
    sink_code,
    source_code,
)
from .errors import ArityMismatch, NotReduced, StaleRedex
from .trees import TreePair, tree_from_antichain


@dataclass(frozen=True)
class Redex:
    kind: str  # TYPE_I or TYPE_II
    top: int
    bottom: int


@dataclass
class ReductionStats:
    """Per-round frontier sizes: (vertices removed, candidates examined)."""

    rounds: list[tuple[int, int]] = field(default_factory=list)
    moves: int = 0

    @property
    def removed_total(self) -> int:
        return sum(r for r, _ in self.rounds)

    @property
    def examined_total(self) -> int:
        return sum(v for _, v in self.rounds)


def _redex_at(g, u: int):
    """Return (type, bottom) if vertex u is the top of a redex, else None."""
    kind = g.kind
    conn = g.conn
    k = kind[u]
    if k == SPLIT:
        x = conn[3 * u + 1]
        if (
            x >= 0
            and x % 3 == 0
            and kind[x // 3] == MERGE
            and conn[3 * u + 2] == x + 1
            and g.edge_class(x) == g.edge_class(x + 1)
        ):
            return (TYPE_I, x // 3)
    elif k == MERGE:
        x = conn[3 * u + 2]
        if x >= 0 and x % 3 == 0 and kind[x // 3] == SPLIT:
            return (TYPE_II, x // 3)
    return None


def _scan(g, candidates) -> list[tuple[int, int, str]]:
    """(top, bottom, type) of every redex topped by a live candidate."""
    kind = g.kind
    pairs = []
    for u in candidates:
        if kind[u] != DEAD:
            hit = _redex_at(g, u)
            if hit is not None:
                pairs.append((u, hit[1], hit[0]))
    return pairs


def find_redexes(g) -> list[Redex]:
    """All current redexes, ordered by top vertex id."""
    return [Redex(t, u, v) for u, v, t in _scan(g, range(len(g.kind)))]


def apply_redex(g, r: Redex):
    """Fire one redex in place; raises StaleRedex if it is no longer valid."""
    kind = g.kind
    if r.top >= len(kind) or kind[r.top] == DEAD or kind[r.bottom] == DEAD:
        raise StaleRedex(f"redex {r} references removed vertices")
    if _redex_at(g, r.top) != (r.kind, r.bottom):
        raise StaleRedex(f"redex {r} no longer matches the diagram")
    g.splice(r.kind, r.top, r.bottom)
    return g


def reduce_diagram(
    g,
    order: str = "frontier",
    rng=None,
    stats: ReductionStats | None = None,
    trace: list | None = None,
):
    """Reduce ``g`` in place until no redex remains; returns ``g``.

    ``order="frontier"`` is the deterministic worklist (lowest top id
    first inside a round) and fills ``stats``, one entry per round, the
    first round's scan of every vertex included.  ``order="random"``
    needs an ``rng``, fires redexes in random order and has no rounds,
    so it refuses ``stats``.  ``trace`` collects the fired moves as
    (type, top, bottom).
    """
    if order not in ("frontier", "random"):
        raise ValueError(f"unknown reduction order {order!r}")
    if order == "random" and stats is not None:
        raise ValueError("order='random' has no rounds to record in stats")
    kind = g.kind
    splice = g.splice
    if order == "random":
        pairs = _scan(g, range(len(kind)))
        while pairs:
            i = rng.randrange(len(pairs))
            pairs[i], pairs[-1] = pairs[-1], pairs[i]
            u, v, t = pairs.pop()
            if kind[u] == DEAD or kind[v] == DEAD or _redex_at(g, u) != (t, v):
                continue
            if trace is not None:
                trace.append((t, u, v))
            for a in splice(t, u, v):
                if a >= 0:
                    pairs.extend(_scan(g, (a // 3,)))
        return g

    candidates = range(len(kind))
    while True:
        removed = 0
        touched = []
        # the first redex of a round always fires, so a round that
        # removes nothing found nothing
        for u, v, t in _scan(g, candidates):
            if kind[u] == DEAD or kind[v] == DEAD or _redex_at(g, u) != (t, v):
                continue
            if trace is not None:
                trace.append((t, u, v))
            for a in splice(t, u, v):
                if a >= 0:
                    touched.append(a // 3)
            removed += 2
        if stats is not None:
            stats.rounds.append((removed, len(candidates)))
            stats.moves += removed // 2
        if not removed:
            return g
        candidates = sorted(set(w for w in touched if kind[w] != DEAD))


# -- cutting a reduced (1,1)-diagram back into a tree pair -------------------


def to_tree_pair(d: StrandDiagram) -> TreePair:
    """Cut every split-to-merge edge of a reduced (1,1)-diagram.

    Returns the tree pair whose gluing reproduces the diagram.  The leaf
    bijection is read off the strand connections (identity for diagrams
    built from F words).
    """
    if d.m != 1 or d.n != 1:
        raise ArityMismatch("tree pairs exist only for (1,1)-diagrams")
    redexes = find_redexes(d)
    if redexes:
        raise NotReduced(f"diagram has redex {redexes[0]}")

    kind = d.kind
    conn = d.conn

    # Domain tree: follow splits downward from the source; a strand that
    # reaches a merge input (or the sink) is a leaf of the split tree.
    dom_leaves: list[tuple[str, int]] = []  # (address, head endpoint reached)
    stack = [(d.src_conn[0], "")]
    while stack:
        head, addr = stack.pop()
        if head >= 0 and head % 3 == 0 and kind[head // 3] == SPLIT:
            v = head // 3
            stack.append((conn[3 * v + 2], addr + "1"))
            stack.append((conn[3 * v + 1], addr + "0"))
        else:
            dom_leaves.append((addr, head))
    dom_leaves.sort()

    # Range tree: follow merges upward from the sink.
    rng_leaves: list[tuple[str, int]] = []  # (address, head endpoint of cut edge)
    stack = [(sink_code(0), "")]
    while stack:
        feed, addr = stack.pop()
        tail = d.read_conn(feed)
        if tail >= 0 and tail % 3 == 2 and kind[tail // 3] == MERGE:
            v = tail // 3
            stack.append((3 * v + 1, addr + "1"))
            stack.append((3 * v + 0, addr + "0"))
        else:
            rng_leaves.append((addr, feed))
    rng_leaves.sort()

    feed_index = {feed: j for j, (_, feed) in enumerate(rng_leaves)}
    bijection = tuple(feed_index[head] for _, head in dom_leaves)
    return TreePair(
        tree_from_antichain([a for a, _ in dom_leaves]),
        tree_from_antichain([a for a, _ in rng_leaves]),
        bijection,
    )


# -- deterministic byte encoding of square diagrams --------------------------


def encode_square(d: StrandDiagram) -> bytes:
    """Order-comparable encoding of a square diagram.

    Vertex ids do not leak in: vertices are numbered in a traversal
    seeded from the boundary, so structurally identical diagrams encode
    identically regardless of construction history.  Wrap counts, when
    present, are folded in as gauge-fixed potentials (tree edges fix the
    gauge; every edge emits its residual).
    """
    kind = d.kind
    conn = d.conn
    long = d.long
    number: dict[int, int] = {}
    phi: dict[int, int] = {}
    queue: list[int] = []
    tokens: list[str] = [f"{d.m},{d.n}"]

    def edge_data(ep, peer):
        # (head endpoint, +1 if edge flows ep->peer else -1)
        return (peer, 1) if d.is_tail(ep) else (ep, -1)

    def enc(ep, peer, phi_here):
        if peer >= 0:
            w = peer // 3
            head, direction = edge_data(ep, peer)
            lw = 0 if long is None else long.get(head, 0)
            if w not in number:
                # fresh vertices get sequential numbers, so the number is implicit
                number[w] = len(number)
                phi[w] = phi_here + direction * lw
                queue.append(w)
                return f"+{peer % 3}"
            resid = phi_here + direction * lw - phi[w]
            if long is None:
                return f"v{number[w]}.{peer % 3}"
            return f"v{number[w]}.{peer % 3}r{resid}"
        if is_sink_code(peer):
            j = (-peer - 3) // 2
            lw = 0 if long is None else long.get(peer, 0)
            tag = f"o{j}"
            return tag if long is None else f"{tag}r{phi_here + lw}"
        return f"i{(-peer - 2) // 2}"

    for i, peer in enumerate(d.src_conn):
        tokens.append("S" + enc(source_code(i), peer, 0))
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        tokens.append("SM"[kind[v]])
        for s in range(3):
            tokens.append(enc(3 * v + s, conn[3 * v + s], phi[v]))
    return ";".join(tokens).encode()

"""Confluent reduction of strand diagrams, square and closed, by one core.

Two local moves:

    type I  : a split whose left/right outputs are the left/right inputs
              of a single merge (matching orientation only); both
              vertices vanish and one edge remains.
    type II : a merge whose output is the input of a split; both
              vertices vanish and the strands reconnect left-to-left,
              right-to-right.

The redex finder, ``cascade`` and ``reduce_diagram`` take a square
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

``reduce_diagram`` sweeps the vertex ids in order and runs ``cascade``
at every vertex that tops a redex.  ``cascade`` fires the moves
reachable from one vertex.  When the sweep leaves vertex u, no vertex at
or below u tops a redex: a move creates one only at a tail that
``splice`` returns, and ``cascade`` examines every such tail.  So one
sweep reduces the diagram, and ``_redex_at`` runs at most
|V| + 3·moves <= 2.5·|V| times:

    one call per swept vertex                          |V|
    one per cascade root; each root fires a move        moves
    one per tail queued, at most two per move           2·moves

and moves <= |V|/2, as each move removes two vertices.

The streamed square builder, ``words._seams``, runs the same cascade
from each seam, with ``_redex_at`` and the square ``splice`` written out
over its own arrays; the tests hold it to ``cascade`` move for move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import DEAD, MERGE, SPLIT, TYPE_I, TYPE_II


@dataclass(frozen=True)
class Redex:
    kind: str  # TYPE_I or TYPE_II
    top: int
    bottom: int


@dataclass
class ReductionStats:
    """One entry per reduction: (vertices removed, vertices swept)."""

    rounds: list[tuple[int, int]] = field(default_factory=list)
    moves: int = 0

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


def find_redexes(g) -> list[Redex]:
    """All current redexes, ordered by top vertex id."""
    redexes = []
    for u in range(len(g.kind)):
        hit = _redex_at(g, u)
        if hit is not None:
            redexes.append(Redex(hit[0], u, hit[1]))
    return redexes


def cascade(g, u: int, trace: list | None = None) -> int:
    """Fire the redex topped by vertex u, if any, and every redex that the
    moves create, which is topped by a tail that ``splice`` returns;
    returns the number of moves.

    The tails are examined first in, first out.  On a closed diagram each
    type II move copies its middle edge's cuts onto two lanes and a type I
    move drops one copy; last in, first out would run the copying moves
    far ahead of the dropping ones and hold 13x more cut positions at
    once on a padded V block pair.
    """
    kind = g.kind
    splice = g.splice
    moves = 0
    queue = [u]
    for u in queue:
        hit = _redex_at(g, u) if kind[u] != DEAD else None
        if hit is not None:
            t, v = hit
            if trace is not None:
                trace.append((t, u, v))
            moves += 1
            for a in splice(t, u, v):
                if a >= 0:
                    queue.append(a // 3)
    return moves


def reduce_diagram(g, stats: ReductionStats | None = None, trace: list | None = None):
    """Reduce ``g`` in place until no redex remains; returns ``g``.

    One sweep over the vertex ids runs ``cascade`` at every redex top
    (module docstring).  ``stats`` gains one entry, (vertices removed,
    vertices swept); ``trace`` collects the fired moves as (type, top,
    bottom).
    """
    moves = 0
    swept = len(g.kind)
    for u in range(swept):
        if _redex_at(g, u) is not None:
            moves += cascade(g, u, trace)
    if stats is not None:
        stats.rounds.append((2 * moves, swept))
        stats.moves += moves
    return g


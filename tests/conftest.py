import random

import pytest

from strandgroups import rewrite, words
from strandgroups.closure import ClosedDiagram
from strandgroups.diagram import DEAD, MERGE
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

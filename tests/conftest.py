import random

import pytest

from strandgroups.closure import ClosedDiagram
from strandgroups.diagram import DEAD
from strandgroups.rewrite import _redex_at, find_redexes
from strandgroups.trees import LEAF, TreePair
from strandgroups.words import Word, commutator, parse_word


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

"""Thompson's group V: closed abstract strand diagrams and conjugacy.

Crossings need no explicit representation: they are implicit in which
ports connect to which, exactly as in the embedding-free definition of
an abstract diagram.  Equality of closed diagrams is port-preserving
directed-graph isomorphism plus equivalence of the cutting cochains
modulo vertex coboundaries; free loops carry their weight exactly
(coboundaries vanish on them).

``canonical_abstract`` decides this equality with bytes, the same way
F and T are decided: each weak component is encoded by the weighted
traversal of ``canonical.min_encoding``, minimized over every vertex of
the component as root, and the form is the sorted component encodings
followed by the sorted free-loop weights.  The traversal numbers
vertices in discovery order through the ports, so equal encodings give
a port-preserving isomorphism; its gauge residuals are the cut counts
summed around the fundamental cycles of the traversal tree, which fix
the cutting class modulo coboundaries.  V words carry no wrap counts,
so the wrap residuals are all 0.  The cost is that of the F and T forms
(O(log t) traversals for t tied roots, since each tie is an automorphism
that lets its orbit be skipped, plus a short prefix per other root),
with no search over bijections between alike components.

Cochains are dicts keyed like ``cutting_sequence`` carriers: an edge's
head endpoint, or ("loop", i) for free loop i.
"""

from __future__ import annotations

from math import lcm

from .canonical import CanonicalForm, min_encoding
from .closure import (
    ClosedDiagram,
    close_abstract,
    reduce_closed,
    weak_components,
)
from .errors import AlphabetError, CutoffExceeded
from .oracle import equals_identity, identity_map, compose, word_to_map
from .rewrite import reduce_diagram
from .words import ALPHABETS, Word, word_to_diagram


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


def canonical_abstract(c: ClosedDiagram) -> CanonicalForm:
    """Order-comparable encoding of a reduced closed V diagram.

    Equal forms mean a port-preserving isomorphism under which the
    cutting classes agree modulo coboundaries, and free-loop weights
    agree as multisets.  Encodings contain no ``|``, so the join is
    unambiguous.
    """
    comps = sorted(min_encoding(c, comp, with_weights=True) for comp in weak_components(c))
    loops = _loop_weights(c)
    blob = b"|".join([b"V%d" % len(comps), *comps, b"L" + b",".join(b"%d" % n for n in loops)])
    return CanonicalForm(blob, (len(comps), c.num_vertices(), len(loops)))


def _loop_weights(c: ClosedDiagram) -> list[int]:
    return sorted(len(f.cuts) for f in c.free_loops)


def closed_diagrams_equal(c1: ClosedDiagram, c2: ClosedDiagram) -> bool:
    """Isomorphism with matching cutting class, the V equality notion.

    Equal forms have equal vertex counts and free-loop weights, so those
    are compared first and most unequal pairs are never encoded.
    """
    if c1.num_vertices() != c2.num_vertices() or _loop_weights(c1) != _loop_weights(c2):
        return False
    return canonical_abstract(c1) == canonical_abstract(c2)


def _v_word(w: Word) -> Word:
    for g in w.letters:
        if g.symbol not in ALPHABETS["V"]:
            raise AlphabetError(f"generator {g.symbol!r} is illegal in V")
    return w if w.group == "V" else Word("V", w.letters)


def closed_form(w: Word) -> ClosedDiagram:
    w = _v_word(w)
    d = word_to_diagram(w)
    reduce_diagram(d)
    c = close_abstract(d)
    reduce_closed(c)
    return c


def is_conjugate_v(w1: Word, w2: Word) -> bool:
    """Conjugacy in V: equal canonical forms of the reduced closed diagrams."""
    return closed_diagrams_equal(closed_form(w1), closed_form(w2))


def torsion_check(w: Word) -> tuple[bool, int | None]:
    """(is_torsion, order).

    An element is torsion iff its reduced closed diagram consists of
    free loops only (it is then conjugate to a prefix permutation whose
    orbit lengths are the loop weights).  The oracle confirms by
    iterating: the order must divide the lcm of the loop weights, and
    CutoffExceeded reports the engine bug should it ever fail to.
    """
    c = closed_form(w)
    if c.num_vertices() != 0:
        return (False, None)
    bound = lcm(*(len(f.cuts) for f in c.free_loops)) if c.free_loops else 1
    m = word_to_map(_v_word(w))
    acc = identity_map()
    order = None
    for i in range(1, bound + 1):
        acc = compose(acc, m)
        if equals_identity(acc):
            order = i
            break
    if order is None:
        raise CutoffExceeded(
            f"diagram says torsion with order dividing {bound}, iteration disagrees"
        )
    return (True, order)

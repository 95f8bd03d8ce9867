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

The tests hold this equality to an independent reference, a direct
coboundary solve over cut-count cochains (``cohomology_equivalent`` in
``tests/conftest.py``).
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
from .errors import CutoffExceeded
from .oracle import equals_identity, identity_map, compose, word_to_map
from .words import Word, core_diagram


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
    return CanonicalForm(blob)


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
    return w if w.group == "V" else Word("V", w.letters)


def closed_form(w: Word) -> ClosedDiagram:
    return reduce_closed(close_abstract(core_diagram(_v_word(w))))


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

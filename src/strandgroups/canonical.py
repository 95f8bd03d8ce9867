"""Canonical forms for reduced annular diagrams and conjugacy in F.

A reduced annular diagram is a radial sequence of rings: free loops and
connected components.  Isotopy classes of a connected component are
exactly ported-digraph isomorphism classes rooted at the innermost
directed cycle: rotating the annulus lets the traversal start anywhere
on that cycle (hence the minimum over starting vertices), while twists
of the annulus wash out all per-edge crossing weights, so the encoding
records pure port structure.  Crossing weights still matter before
encoding: they are validated (every cycle winds exactly once) and they
determine the radial order of the rings.

The minimum over starting vertices (``min_encoding``) exits early.  The
roots are encoded one after another against the least encoding so far,
which is itself read only as far as a comparison needs: a root stops as
soon as its bytes compare greater, and one that compares less takes
over as the least with its traversal paused.  Only the final least and
the roots that tie with it run to the end, and a tie is an automorphism
of the component: the two discovery orders, paired, map it onto itself.
Roots in the orbit of the least under the automorphisms found so far
encode to the same bytes and are skipped.  Automorphisms of a connected
component act freely (one fixed vertex fixes every vertex), so each tie
at least doubles the group they generate.  Take a component of n
vertices with r candidate roots, t of them tied at the minimum.  When
the roots are closed under its automorphisms (the innermost cycle for
F, every cycle vertex of a single T unit, every vertex for V), the
component has t automorphisms, so there are at most log2(t) ties.  It
costs the final least, those ties and any earlier least that tied
before a smaller root displaced it: at most 1 + 2 log2(t) traversals,
1 + log2(t) when no tied least is displaced, plus a prefix per other
root, instead of r traversals.  A random word pays about one traversal
plus a short prefix per other root (on the 10^4 letter F words of the
benchmark, r is 32 to 91 and a pruned root reads 1 to 3 vertices on
average).  A symmetric power w^k keeps k roots tied on its innermost
cycle: w^32 of a 200-letter F word (12,800 vertices) encodes 2 of its
32 roots to the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import (
    ClosedDiagram,
    close_annular,
    reduce_closed,
    reduced_structure,
)
from .errors import AlphabetError
from .words import Word, core_diagram


@dataclass(frozen=True, order=True)
class CanonicalForm:
    blob: bytes

    def hex(self) -> str:
        return self.blob.hex()

    def __repr__(self):
        return f"CanonicalForm({self.blob.hex()[:24]}...)"


def _pieces(c: ClosedDiagram, root: int, with_weights: bool, queue: list | None = None):
    """The traversal encoding from ``root`` as a stream of ASCII pieces.

    The first piece is the root's kind token; every later piece is
    ``";"`` plus one token, so the pieces concatenate to the encoding
    and a consumer can stop reading as soon as the prefix decides a
    comparison.  ``queue``, when given, is an empty list that receives
    the vertices in discovery order as the stream is read.  Vertices are
    numbered in discovery order, so the encoding depends only on the
    ported structure and, with ``with_weights``, on the gauge residuals
    of the cut and wrap cochains along non-tree edges.
    """
    kind = c.kind
    conn = c.conn
    cuts = c.cuts
    long = c.long
    number = {root: 0}
    if queue is None:
        queue = []
    queue.append(root)  # vertices in discovery order: queue[number[v]] == v
    phi_m = [0]  # gauge potentials by discovery number (with_weights only)
    phi_l = [0]
    sep = ""
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        k = kind[v]
        yield sep + "SM"[k]
        sep = ";"
        if with_weights:
            pm = phi_m[qi]
            pl = phi_l[qi]
        qi += 1
        for s in range(3):
            ep = 3 * v + s
            peer = conn[ep]
            w = peer // 3
            if with_weights:
                is_tail = (k == 0 and s != 0) or (k == 1 and s == 2)
                head = peer if is_tail else ep
                direction = 1 if is_tail else -1
                wm = pm + direction * len(cuts.get(head, ()))
                wl = pl + direction * long.get(head, 0)
            j = number.get(w)
            if j is None:
                number[w] = len(queue)
                queue.append(w)
                if with_weights:
                    phi_m.append(wm)
                    phi_l.append(wl)
                yield f";+{peer % 3}"
            elif with_weights:
                yield f";v{j}.{peer % 3}:{wm - phi_m[j]},{wl - phi_l[j]}"
            else:
                yield f";v{j}.{peer % 3}"


def min_encoding(c: ClosedDiagram, roots, with_weights: bool = False) -> bytes:
    """The least over ``roots`` of the traversal encoding from a root,
    ``"".join(_pieces(c, root, with_weights)).encode()``, with early exit
    and without re-encoding roots that a symmetry makes equal.

    Roots are encoded one at a time and compared, as they go, with the
    least encoding so far, which is read only as far as a comparison
    needs.  A root stops as soon as its prefix compares greater.  If it
    compares less, its paused traversal becomes the least; only the
    final least, and roots that tie with it, run to the end.  The
    comparison is on bytes (the encodings are ASCII text), not tokens:
    token ``v1.2:0,1`` sorts before ``v1.2:0,12``, but the byte that
    follows it, ``;``, sorts after ``2``.

    A tie is an automorphism when the roots share a component, as every
    caller's do: the two traversals number the vertices alike, so
    pairing their discovery orders maps the component onto itself
    preserving kinds and ports (and, with weights, both cochains up to a
    coboundary, which the gauge residuals cannot see).  Every root in
    the orbit of the least under the automorphisms found so far encodes
    to the same bytes and is skipped.  An automorphism of a connected
    component that fixes one vertex fixes all of them, so each tie at
    least doubles the group the automorphisms found generate; the module
    docstring gives the resulting bound on full traversals.
    """
    roots = iter(roots)
    best_root = next(roots, None)
    if best_root is None:
        raise ValueError("min_encoding needs at least one root")
    best_queue = []  # discovery order of the least's traversal
    best = _pieces(c, best_root, with_weights, best_queue)  # the least encoding so far
    read = ""  # its bytes read so far
    autos = []  # automorphisms from ties, v -> image[position[v]]
    position = None  # inverse of best_queue, built at its first tie
    orbit = {best_root}  # roots known to encode like best_root
    for root in roots:
        if root in orbit:
            continue
        # until it differs, this root's bytes are read[:pos]
        queue = []
        stream = _pieces(c, root, with_weights, queue)
        pos = 0
        for piece in stream:
            end = pos + len(piece)
            if len(read) < end:
                read = _read_ahead(best, read, end)
            ref = read[pos:end]
            if piece != ref:
                if piece < ref:
                    best, read = stream, read[:pos] + piece
                    best_root, best_queue, position = root, queue, None
                    orbit = _orbit(root, autos)
                break
            pos = end
        else:
            # every byte matched: a tie, or a proper prefix of ``best``
            if len(read) == pos:
                read = _read_ahead(best, read, pos + 1)
            if len(read) > pos:
                best, read = iter(()), read[:pos]
                best_root, best_queue, position = root, queue, None
                orbit = _orbit(root, autos)
            else:
                if position is None:
                    position = {v: i for i, v in enumerate(best_queue)}
                autos.append((position, queue))
                orbit = _orbit(best_root, autos)
    return (read + "".join(best)).encode()


def _orbit(v: int, autos) -> set[int]:
    """The orbit of ``v`` under the group generated by ``autos``, each a
    pair ``(position, image)`` mapping u to ``image[position[u]]``.

    A map is defined on the component its ``position`` numbers; roots
    from several components can tie through an isomorphism between two
    of them, which is followed only where it is defined."""
    orbit = {v}
    todo = [v]
    for u in todo:
        for position, image in autos:
            i = position.get(u)
            if i is not None and image[i] not in orbit:
                orbit.add(image[i])
                todo.append(image[i])
    return orbit


def _read_ahead(stream, read: str, end: int) -> str:
    """``read`` extended by pieces of ``stream`` to at least ``end``
    bytes, or to the end of the stream.  It reads at least as much again
    as ``read`` holds, so repeated calls copy O(total) bytes."""
    parts = [read]
    size = len(read)
    goal = max(end, 2 * size)
    for piece in stream:
        parts.append(piece)
        size += len(piece)
        if size >= goal:
            break
    return "".join(parts)


def canonical_annular(a: ClosedDiagram) -> CanonicalForm:
    """Order-comparable encoding of a reduced annular diagram.

    Equal blobs mean isotopic diagrams; the radial ring order is read
    off the cut positions.  Raises NotReduced on unreduced input, and
    StructureViolation where ``check_cycle_structure`` would.
    """
    rings = reduced_structure(a).checked_rings()
    parts = [b"A%d" % len(rings)]
    for ring in rings:
        # free loops are a fixed token; a component minimizes over the
        # vertices of its innermost directed cycle
        parts.append(b"F" if ring.kind == "free" else min_encoding(a, ring.cycles[0].vertices))
    return CanonicalForm(b"|".join(parts))


def annular_form(w: Word) -> CanonicalForm:
    """Word -> cyclic core's reduced square diagram -> reduced annular
    diagram -> bytes.  Conjugates close to the same annular diagram."""
    return canonical_annular(reduce_closed(close_annular(core_diagram(w))))


def is_conjugate_f(w1: Word, w2: Word) -> bool:
    """Two F words are conjugate iff their reduced annular diagrams match."""
    if w1.group != "F" or w2.group != "F":
        raise AlphabetError("is_conjugate_f expects words over F's alphabet")
    return annular_form(w1) == annular_form(w2)


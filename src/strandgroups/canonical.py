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

The minimum over starting vertices (``min_encoding``) encodes only the
roots with the least first vertex, a vertex at a time and only as far
as a comparison needs; a tie is an automorphism whose orbit is skipped.
With r candidate roots, t of them tied at the minimum, and the roots
closed under the automorphisms (the innermost cycle for F, every cycle
vertex of a lone T unit, every vertex for V), it costs at most
1 + 2 log2(t) traversals plus a prefix per other root with the least
key, not r traversals.  On the 10^4 letter F words of the benchmark, 26
to 58 of r = 32 to 91 roots carry the least key, and a pruned root reads
3 to 4 vertices on average; w^32 of a 200-letter positive F word keys
all 3,072 roots alike, 32 of them tied, and encodes 2 to the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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


_KIND = ("S", "M")
_LEAD = (";S", ";M")  # a kind token after the first vertex
_NEW = (";+0", ";+1", ";+2")
_TAIL = ((False, True, True), (False, False, True))  # [kind][slot]: the slot is a tail
# the keys of roots with three distinct peers other than themselves, at
# 27 * kind + 9 * port 0 + 3 * port 1 + port 2 of the peers
_FRESH_KEYS = tuple("{};+{};+{};+{};".format(*key) for key in product("SM", "012", "012", "012"))


def _pieces(c: ClosedDiagram, root: int, with_weights: bool, queue: list, number: list):
    """The traversal encoding from ``root`` as ASCII chunks, one per
    vertex: its kind and one token per slot, each after a ``;`` but the
    root's kind.  ``queue``, an empty list, receives the vertices in
    discovery order as the stream is read, and ``number``, -1 at every
    vertex id, their discovery numbers, which the caller resets through
    ``queue``.  With ``with_weights`` the tokens of non-tree edges carry
    the gauge residuals of the cut and wrap cochains.
    """
    kind = c.kind
    conn = c.conn
    number[root] = 0
    queue.append(root)  # vertices in discovery order: queue[number[v]] == v
    lead = _KIND
    cuts = c.cuts
    long = c.long
    phi_m = [0]  # gauge potentials by discovery number (with_weights only)
    phi_l = [0]
    for qi, v in enumerate(queue):  # runs on over the vertices appended meanwhile
        k = kind[v]
        chunk = lead[k]
        lead = _LEAD
        if with_weights:
            pm = phi_m[qi]
            pl = phi_l[qi]
        ep = 3 * v
        for is_tail in _TAIL[k]:
            peer = conn[ep]
            if with_weights and is_tail:
                wm = pm + len(cuts.get(peer, ()))
                wl = pl + long.get(peer, 0)
            elif with_weights:
                wm = pm - len(cuts.get(ep, ()))
                wl = pl - long.get(ep, 0)
            ep += 1
            w = peer // 3
            j = number[w]
            if j < 0:
                number[w] = len(queue)
                queue.append(w)
                chunk += _NEW[peer % 3]
                if with_weights:
                    phi_m.append(wm)
                    phi_l.append(wl)
            elif with_weights:
                chunk += f";v{j}.{peer % 3}:{wm - phi_m[j]},{wl - phi_l[j]}"
            else:
                chunk += f";v{j}.{peer % 3}"
        yield chunk


def _first_key(c: ClosedDiagram, v: int, with_weights: bool) -> str:
    """The first chunk from root ``v`` plus ``;``, for a root with a
    self-loop or a double edge."""
    found = [v]  # vertices by discovery number, with their potentials
    phi = [(0, 0)]
    key = _KIND[c.kind[v]]
    for s, is_tail in enumerate(_TAIL[c.kind[v]]):
        peer = c.conn[3 * v + s]
        head, sign = (peer, 1) if is_tail else (3 * v + s, -1)
        wm, wl = sign * len(c.cuts.get(head, ())), sign * c.long.get(head, 0)
        if peer // 3 in found:
            j = found.index(peer // 3)
            key += f";v{j}.{peer % 3}"
            if with_weights:
                key += f":{wm - phi[j][0]},{wl - phi[j][1]}"
        else:
            found.append(peer // 3)
            phi.append((wm, wl))
            key += _NEW[peer % 3]
    return key + ";"


def _least_key_roots(c: ClosedDiagram, roots, with_weights: bool) -> list[int]:
    """The roots with the least key, in their given order.  A root's key
    is its encoding's first chunk plus the ``;`` that starts the next (a
    component has two vertices or more).  A key holds four ``;``, the
    last at its end, so no key is a proper prefix of another and keys
    compare as the encodings they start."""
    kind, conn = c.kind, c.conn
    least, chosen = None, []
    for v in roots:
        p0, p1, p2 = conn[3 * v : 3 * v + 3]
        a, b, d = p0 // 3, p1 // 3, p2 // 3
        if v != a != b != d != v != b and a != d:  # four distinct vertices
            key = _FRESH_KEYS[27 * kind[v] + 9 * (p0 % 3) + 3 * (p1 % 3) + p2 % 3]
        else:
            key = _first_key(c, v, with_weights)
        if least is None or key < least:
            least, chosen = key, [v]
        elif key == least:
            chosen.append(v)
    return chosen


def blank_numbers(c: ClosedDiagram) -> tuple[list[int], list[int]]:
    """Discovery numbers for ``min_encoding``, one list per open stream;
    a call leaves them blank, so all the calls of a form share one pair."""
    return [-1] * len(c.kind), [-1] * len(c.kind)


def min_encoding(c: ClosedDiagram, roots, with_weights: bool, numbers) -> bytes:
    """The least over ``roots`` of the traversal encoding from a root,
    ``"".join(_pieces(c, root, with_weights, [], numbers[0])).encode()``;
    ``numbers`` is a pair from ``blank_numbers``, and is left blank.

    Only the roots with the least key (``_least_key_roots``) are encoded,
    one at a time, each compared as it goes with the least encoding so
    far, which is read only as far as a comparison needs.  A root stops
    as soon as its prefix compares greater; if it compares less, its
    paused traversal becomes the least.  The comparison is on bytes, not
    tokens, so where the streams are cut does not matter: token
    ``v1.2:0,1`` sorts before ``v1.2:0,12``, but the byte after it, ``;``,
    sorts after ``2``.  A tie is an automorphism when the roots share a
    component, as every caller's do: pairing the two discovery orders
    maps the component onto itself, preserving kinds, ports and (with
    weights) both cochains up to a coboundary.  Roots in the orbit of the
    least under the automorphisms found so far encode alike and are
    skipped; each tie at least doubles the group they generate, since an
    automorphism of a connected component that fixes a vertex fixes all.
    """
    roots = _least_key_roots(c, roots, with_weights)
    if not roots:
        raise ValueError("min_encoding needs at least one root")
    held, free = numbers  # the least's, the next root's
    best_root = roots[0]
    best_queue = []  # discovery order of the least's traversal
    best = _pieces(c, best_root, with_weights, best_queue, held)  # the least encoding so far
    read = ""  # its bytes read so far
    autos = []  # automorphisms from ties, v -> image[position[v]]
    position = None  # inverse of best_queue, built at its first tie
    orbit = {best_root}  # roots known to encode like best_root
    for root in roots:
        if root in orbit:
            continue
        # until it differs, this root's bytes are read[:pos]
        queue = []
        stream = _pieces(c, root, with_weights, queue, free)
        pos, wins = 0, False
        for piece in stream:
            end = pos + len(piece)
            if len(read) < end:
                read = _read_ahead(best, read, end)
            ref = read[pos:end]
            if piece != ref:
                if piece < ref:
                    best, read, wins = stream, read[:pos] + piece, True
                break
            pos = end
        else:
            # every byte matched: a tie, or a proper prefix of ``best``
            if len(read) == pos:
                read = _read_ahead(best, read, pos + 1)
            if len(read) > pos:
                best, read, wins = iter(()), read[:pos], True
            else:
                if position is None:
                    position = {v: i for i, v in enumerate(best_queue)}
                autos.append((position, queue))
                orbit = _orbit(best_root, autos)
        if wins:
            best_root, position, orbit = root, None, _orbit(root, autos)
            best_queue, queue, held, free = queue, best_queue, free, held
        for v in queue:  # blank the numbers of the stream dropped
            free[v] = -1
    out = (read + "".join(best)).encode()
    for v in best_queue:
        held[v] = -1
    return out


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
    numbers = blank_numbers(a)
    for ring in rings:  # a component minimizes over its innermost cycle
        roots = None if ring.kind == "free" else ring.cycles[0].vertices
        parts.append(b"F" if roots is None else min_encoding(a, roots, False, numbers))
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


"""Thompson's group T: toral closures, rotation numbers, conjugacy.

A T word gives a cylindrical square diagram (wrap counts on edges);
closing top to bottom puts it on the torus.  Every directed cycle of a
reduced toral diagram represents one primitive homology class (n, k):
n is the cut count (meridian crossings), k the wrap sum.  Two toral
diagrams are equal when they agree up to isotopy and powers of the
meridian Dehn twist, which shifts k by n; ``dehn_normalize`` pins
0 <= k < n, after which k/n is the rotation number.

Ring structure on the torus is cyclic, not radial: the cutting loop
passes through the cyclic ring pattern n times, so the cut owners read
(R1 R2 ... Rp)^n.  The canonical form minimizes over rotations of the
per-ring encodings, with per-component gauge residuals of both
cochains included (torus twists that preserve the cutting class cannot
reshuffle them, unlike on the annulus).

Each unit's encoding is ``canonical.min_encoding`` over its candidate
roots: every cycle vertex when the diagram is a single unit, else the
vertices of the unit's first cycle in cut order.  The minimum exits
early, so a random word pays about one traversal plus a short prefix
per other root (374 roots, under one vertex read on average per pruned
root, on the 10^3 letter T word of the benchmark).  A symmetric power
w^k keeps many roots tied, and ties are automorphisms whose orbits are
skipped, so t tied roots cost O(log t) traversals, not t (w^32 of a
100-letter word: 64 tied roots, 3 traversals).  The structure (cycles,
class, rings) is computed once per canonical form and shared by the
normalization, the structure check and the ring order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .canonical import CanonicalForm, min_encoding
from .closure import (
    ClosedDiagram,
    Cycle,
    Ring,
    check_cycle_structure,
    close_cylindrical,
    directed_cycles,
    reduce_closed,
)
from .errors import AlphabetError, NotReduced, StructureViolation
from .oracle import PrefixMap, word_from_map_t
from .rewrite import find_redexes, reduce_diagram
from .trees import antichain, comb
from .words import ALPHABETS, Word, word_to_diagram


def cycle_class(t: ClosedDiagram, cycles: list[Cycle] | None = None) -> tuple[int, int]:
    """The common (meridian, wrap) class of all directed cycles;
    ``cycles``, when given, must be ``directed_cycles(t)``."""
    if cycles is None:
        cycles = directed_cycles(t)
    classes = set()
    for cyc in cycles:
        mw = sum(len(t.cuts.get(h, ())) for h in cyc.heads)
        lw = sum(t.long.get(h, 0) for h in cyc.heads)
        classes.add((mw, lw))
    for f in t.free_loops:
        classes.add((len(f.cuts), f.long))
    if not classes:
        raise StructureViolation("toral diagram has no directed cycle")
    if len(classes) != 1:
        raise StructureViolation(f"directed cycles carry different classes: {classes}")
    return classes.pop()


def dehn_twist(t: ClosedDiagram, times: int = 1) -> ClosedDiagram:
    """Twist along the cutting loop: every meridian crossing adds a wrap."""
    for h, ps in t.cuts.items():
        if ps:
            w = t.long.get(h, 0) + times * len(ps)
            if w:
                t.long[h] = w
            else:
                t.long.pop(h, None)
    for f in t.free_loops:
        f.long += times * len(f.cuts)
    return t


def _normalize(t: ClosedDiagram) -> tuple[list[Cycle], int, int]:
    """``dehn_normalize`` in place; returns the directed cycles (a twist
    changes wraps, not cycles) and the normalized class (n, k)."""
    if find_redexes(t):
        raise NotReduced("normalize after reducing")
    cycles = directed_cycles(t)
    n, k = cycle_class(t, cycles)
    shift = (k % n - k) // n
    if shift:
        dehn_twist(t, shift)
    return cycles, n, k % n


def dehn_normalize(t: ClosedDiagram) -> ClosedDiagram:
    """Twist until the common class (n, k) satisfies 0 <= k < n; idempotent."""
    _normalize(t)
    return t


def _t_word(w: Word) -> Word:
    for g in w.letters:
        if g.symbol not in ALPHABETS["T"]:
            raise AlphabetError(f"generator {g.symbol!r} is illegal in T")
    return w if w.group == "T" else Word("T", w.letters)


def toral_form(w: Word) -> CanonicalForm:
    w = _t_word(w)
    d = word_to_diagram(w)
    reduce_diagram(d)
    t = close_cylindrical(d, 0)
    reduce_closed(t)
    return canonical_toral(t)


def rotation_number(w: Word) -> Fraction:
    """Diagrammatic rotation number: the normalized class k/n."""
    w = _t_word(w)
    d = word_to_diagram(w)
    reduce_diagram(d)
    t = close_cylindrical(d, 0)
    reduce_closed(t)
    _cycles, n, k = _normalize(t)
    if gcd(n, k % n) != 1 and k % n != 0:
        raise StructureViolation(f"reduced toral class ({n},{k}) is not primitive")
    return Fraction(k % n, n)


def torsion_witness(n: int, k: int) -> Word:
    """The T word for the n-strand rotation conjugated down the right vine.

    Realized as the prefix map rotating the n-leaf comb k notches, then
    rebuilt as a word; rotation number is k/n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1 or k % n == 0:
        return Word("T", ())
    leaves = tuple(antichain(comb(n)))
    perm = tuple((i + (k % n)) % n for i in range(n))
    return word_from_map_t(PrefixMap(leaves, leaves, perm))


def is_conjugate_t(w1: Word, w2: Word) -> bool:
    """Equality of Dehn-normalized canonical toral forms."""
    return toral_form(w1) == toral_form(w2)


# -- cyclic canonical form ----------------------------------------------------


def _cyclic_units(t: ClosedDiagram, n: int, rings: list[Ring]):
    """Rings in cyclic order with per-unit cut runs.

    Returns a list of (ring, run_positions) in cyclic order starting at
    the run containing the globally smallest cut.  Validates that the
    owner pattern is (unit_1 ... unit_p)^n.
    """
    owner = {}
    for idx, ring in enumerate(rings):
        if ring.kind == "free":
            for p in ring.loop.cuts:
                owner[p] = idx
        else:
            for v in ring.vertices:
                k = t.kind[v]
                slots = (1, 2) if k == 0 else (2,)
                for s in slots:
                    h = t.conn[3 * v + s]
                    for p in t.cuts.get(h, ()):
                        owner[p] = idx
    marks = sorted(owner)
    runs = []  # (ring index, [positions])
    for p in marks:
        o = owner[p]
        if runs and runs[-1][0] == o:
            runs[-1][1].append(p)
        else:
            runs.append((o, [p]))
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        last = runs.pop()
        runs[0] = (runs[0][0], last[1] + runs[0][1])
    p_units = len(rings)
    # a single unit's runs all collapse into one; anything else tiles n times
    single_collapsed = p_units == 1 and len(runs) == 1
    if not single_collapsed and len(runs) != p_units * n:
        raise StructureViolation(
            f"cut pattern has {len(runs)} runs for {p_units} rings of class n={n}"
        )
    pattern = [o for o, _ in runs[:p_units]]
    for rep in range(1, len(runs) // max(p_units, 1)):
        if [o for o, _ in runs[rep * p_units : (rep + 1) * p_units]] != pattern:
            raise StructureViolation("ring pattern does not repeat around the torus")
    if sorted(pattern) != list(range(p_units)):
        raise StructureViolation("rings interleave; bands are not cyclically ordered")
    return [(rings[o], runs[i][1]) for i, o in enumerate(pattern)]


def _unit_roots(t: ClosedDiagram, ring, run, whole: bool):
    if ring.kind == "free":
        return None
    if whole:
        return [v for cyc in ring.cycles for v in cyc.vertices]
    # first cycle in this unit's run order
    pos_rank = {p: i for i, p in enumerate(run)}
    best = None
    for cyc in ring.cycles:
        ranks = [
            pos_rank[p]
            for h in cyc.heads
            for p in t.cuts.get(h, ())
            if p in pos_rank
        ]
        if not ranks:
            continue
        r = min(ranks)
        if best is None or r < best[0]:
            best = (r, cyc)
    if best is None:
        raise StructureViolation("component cycle carries no cut")
    return best[1].vertices


def canonical_toral(t: ClosedDiagram) -> CanonicalForm:
    """Byte encoding of a reduced toral diagram up to the Dehn convention.

    Twist-normalizes a copy, recovers the cyclic ring order from the
    cut pattern, encodes each unit independently (components include
    both gauge residuals), and minimizes over rotations.
    """
    t = t.copy()
    cycles, n, k = _normalize(t)
    rings = check_cycle_structure(t, cycles)
    units = _cyclic_units(t, n, rings)
    whole = len(units) == 1
    encodings = []
    for ring, run in units:
        if ring.kind == "free":
            encodings.append(b"F")
        else:
            roots = _unit_roots(t, ring, run, whole)
            encodings.append(min_encoding(t, roots, with_weights=True))
    pattern = tuple(1 if ring.kind == "free" else 0 for ring, _ in units)
    if encodings:
        rotations = [
            (
                b"|".join(encodings[i:] + encodings[:i]),
                pattern[i:] + pattern[:i],
            )
            for i in range(len(encodings))
        ]
        body, pattern = min(rotations)
    else:
        body = b""
    blob = b"T%d,%d#%d|" % (n, k, len(units)) + body
    return CanonicalForm(blob, (len(units), t.num_vertices(), pattern))

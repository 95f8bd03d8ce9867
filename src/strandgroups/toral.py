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
vertices of the unit's first cycle in cut order.  The minimum keeps the
roots with the least first vertex and exits early, so a random word pays
about one traversal (the 10^3 letter T word of the benchmark: 374 roots,
3 with the least key).  A symmetric power w^k keeps many roots tied, and
ties are automorphisms whose orbits are skipped, so t tied roots cost
O(log t) traversals, not t (w^32 of a 100-letter positive word: 5,248
roots, 32 with the least key, 2 traversals).  The structure comes from
one ``closure.reduced_structure`` per form, which gates on reduction
once; the normalization, the structure check and the ring order all read
its cycles and rings.  The cyclic order comes from the rings' record of
which ring and cycle own each cut, in cut order, so this module reads
cut counts and never a cut position.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .canonical import CanonicalForm, blank_numbers, min_encoding
from .closure import (
    ClosedDiagram,
    Cycle,
    Ring,
    Structure,
    close_cylindrical,
    reduce_closed,
    reduced_structure,
)
from .errors import StructureViolation
from .oracle import PrefixMap, word_from_map_t
from .trees import antichain, comb
from .words import Word, core_diagram


def cycle_class(t: ClosedDiagram) -> tuple[int, int]:
    """The common (meridian, wrap) class of all directed cycles and free
    loops."""
    return _common_class(t, Structure(t).cycles)


def _common_class(t: ClosedDiagram, cycles: list[Cycle]) -> tuple[int, int]:
    classes = {cyc.cls for cyc in cycles}
    classes.update((len(f.cuts), f.long) for f in t.free_loops)
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


def _normalize(t: ClosedDiagram, cycles: list[Cycle]) -> tuple[int, int, int]:
    """``dehn_normalize`` in place, given the directed cycles of ``t``;
    returns the normalized class (n, k) and the twists made.  They change
    wraps, not cycles, so ``cycles`` stay valid but for wrap sums."""
    n, k = _common_class(t, cycles)
    shift = (k % n - k) // n
    if shift:
        dehn_twist(t, shift)
    return n, k % n, shift


def dehn_normalize(t: ClosedDiagram) -> ClosedDiagram:
    """Twist until the common class (n, k) satisfies 0 <= k < n; idempotent."""
    _normalize(t, reduced_structure(t).cycles)
    return t


def _t_word(w: Word) -> Word:
    return w if w.group == "T" else Word("T", w.letters)


def _reduced_toral(w: Word) -> ClosedDiagram:
    return reduce_closed(close_cylindrical(core_diagram(_t_word(w)), 0))


def toral_form(w: Word) -> CanonicalForm:
    return canonical_toral(_reduced_toral(w))


def rotation_number(w: Word) -> Fraction:
    """Diagrammatic rotation number: the normalized class k/n."""
    t = _reduced_toral(w)
    n, k = _common_class(t, reduced_structure(t).cycles)
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


def _cyclic_units(n: int, rings: list[Ring], owners):
    """Rings in cyclic order, each with the first cycle its cuts meet.

    ``owners`` is ``Structure.owners``: the (ring index, cycle or None)
    of every cut in cut order.  Returns a list of (ring, first cycle) in
    cyclic order starting at the run that holds the first cut; the first
    cycle is the one the run's cuts meet first, or None.  Validates that
    the owner pattern is (unit_1 ... unit_p)^n; every ring owns a cut, so
    a pattern that repeats names each ring exactly once.
    """
    runs = []  # [ring index, first cycle of the run's cuts or None]
    for o, cyc in owners:
        if runs and runs[-1][0] == o:
            runs[-1][1] = runs[-1][1] or cyc
        else:
            runs.append([o, cyc])
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        last = runs.pop()  # the run across the wrap starts with these cuts
        runs[0][1] = last[1] or runs[0][1]
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
    return [(rings[o], runs[i][1]) for i, o in enumerate(pattern)]


def canonical_toral(t: ClosedDiagram) -> CanonicalForm:
    """Byte encoding of a reduced toral diagram up to the Dehn convention.

    Twist-normalizes ``t`` in place until done, recovers the cyclic ring
    order from the cut pattern, encodes each unit independently
    (components include both gauge residuals), minimizes over rotations.
    """
    s = reduced_structure(t)
    n, k, shift = _normalize(t, s.cycles)
    try:
        # the ring clauses read classes modulo n, which the twist preserves
        units = _cyclic_units(n, s.checked_rings(), s.owners)
        encodings = []
        numbers = blank_numbers(t)
        for ring, first in units:
            if ring.kind == "free":
                encodings.append(b"F")
                continue
            if len(units) == 1:  # a lone unit: every cycle vertex is a root
                roots = [v for cyc in ring.cycles for v in cyc.vertices]
            elif first is None:
                raise StructureViolation("component cycle carries no cut")
            else:
                roots = first.vertices
            encodings.append(min_encoding(t, roots, True, numbers))
    finally:
        if shift:
            dehn_twist(t, -shift)
    # the class check leaves at least one unit
    body = min(b"|".join(encodings[i:] + encodings[:i]) for i in range(len(encodings)))
    return CanonicalForm(b"T%d,%d#%d|" % (n, k, len(units)) + body)

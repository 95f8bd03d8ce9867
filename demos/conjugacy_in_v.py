#!/usr/bin/env python3
"""Walkthrough: Thompson's group V and closed strand diagrams.

V allows strand crossings, so closed diagrams are abstract graphs with
a cutting cohomology class instead of an embedding.  Conjugacy is
port-preserving graph isomorphism plus agreement of the cutting classes
modulo vertex coboundaries, decided by comparing canonical bytes
(``canonical_abstract``) as for F and T.  Torsion is visible at a
glance: the reduced closed diagram of a torsion element is free loops
only.
"""

import random

from strandgroups.diagram import OUT_SLOTS
from strandgroups import (
    canonical_abstract,
    closed_form,
    is_conjugate_v,
    parse_word,
    random_word,
    torsion_check,
    word_to_text,
)

print("== the transposition pi0 ==")
c = closed_form(parse_word("pi0", "V"))
print(f"reduced closed diagram: {c.num_vertices()} vertices, "
      f"free loop weights {sorted(len(f.cuts) for f in c.free_loops)}")
print(f"torsion_check(pi0) = {torsion_check(parse_word('pi0', 'V'))}")
print(f"torsion_check(x0)  = {torsion_check(parse_word('x0', 'V'))}")

print("\n== conjugacy verdicts ==")
for s1, s2 in (("pi0", "x0^-1 pi0 x0"), ("x0", "pi0"), ("c pi0", "pi0 c")):
    v = is_conjugate_v(parse_word(s1, "V"), parse_word(s2, "V"))
    print(f"{s1!r} ~ {s2!r}: {v}")

print("\n== canonical forms: equal bytes for conjugates ==")
for s in ("pi0", "x0^-1 pi0 x0", "x0", "x1^-1 x0 x1"):
    print(f"{s!r}: {canonical_abstract(closed_form(parse_word(s, 'V'))).blob.decode()}")

print("\n== the cutting class is only defined up to coboundaries ==")
# Pushing the cutting loop across a vertex v takes one cut off each edge
# out of v and adds one to each edge into it: the cut counts change by the
# coboundary of a potential that is 1 at v.  The V form reads cut counts
# only, never their positions, so the added cuts carry a dummy position.
c = closed_form(parse_word("x0 pi0", "V"))
v = next(v for v in c.live_vertices()
         if all(c.cuts.get(c.conn[3 * v + s]) for s in OUT_SLOTS[c.kind[v]]))
pushed = c.copy()
for s in range(3):
    if s in OUT_SLOTS[c.kind[v]]:
        pushed.cuts[pushed.conn[3 * v + s]].pop()
    else:
        pushed.cuts.setdefault(3 * v + s, []).append(())
counts = [(len(c.cuts.get(h, ())), len(pushed.cuts.get(h, ()))) for _, h in c.edges()]
print(f"cut counts per edge, before and after pushing across vertex {v}: {counts}")
print(f"same canonical bytes: {canonical_abstract(c) == canonical_abstract(pushed)}")
loops = closed_form(parse_word("pi0", "V"))
bumped = loops.copy()
bumped.free_loops[0].cuts.append(())
print(f"bumping a free loop's weight changes the bytes: "
      f"{canonical_abstract(loops) != canonical_abstract(bumped)}")

rng = random.Random(5)

print("\n== torsion elements keep their order under conjugation ==")
for _ in range(3):
    g = random_word("V", rng.randrange(1, 6), rng)
    w = g.inverse() * parse_word("pi0", "V") * g
    print(f"g = {word_to_text(g)!r}: torsion_check = {torsion_check(w)}")

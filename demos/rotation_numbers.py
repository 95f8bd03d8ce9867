#!/usr/bin/env python3
"""Walkthrough: Thompson's group T on the torus.

T words live on a cylinder (strands may wrap around); closing the
cylinder gives a toral diagram.  All directed cycles share one homology
class (n, k), pinned to 0 <= k < n by Dehn normalization; k/n is the
rotation number, a conjugacy invariant that classifies torsion.
"""

import random

from strandgroups import (
    close_cylindrical,
    dehn_twist,
    canonical_toral,
    is_conjugate_t,
    parse_word,
    random_word,
    reduce_closed,
    reduced_diagram,
    rotation_number,
    torsion_witness,
    word_to_text,
)

print("== rotation numbers of vine-conjugated rotations ==")
for n in range(2, 6):
    for k in range(1, n):
        w = torsion_witness(n, k)
        print(f"rot(witness({n},{k})) = {rotation_number(w)}   word: {word_to_text(w)}")

print("\n== F sits inside T with rotation number zero ==")
for s in ("x0", "x1 x0^-1", "x0 x1 x1"):
    print(f"rot({s!r}) = {rotation_number(parse_word(s, 'T'))}")

print("\n== Dehn twists do not change the diagram ==")
t = reduce_closed(close_cylindrical(reduced_diagram(parse_word("c x1", "T")), 0))
twisted = dehn_twist(t.copy(), 3)
print(f"canonical(t) == canonical(twist^3 t): {canonical_toral(t) == canonical_toral(twisted)}")

print("\n== torsion is classified by rotation number ==")
rng = random.Random(3)
g = random_word("T", 5, rng)
w = g.inverse() * torsion_witness(4, 3) * g
r = rotation_number(w)
print(f"a conjugated witness has rot {r}; conjugate to witness({r.denominator},{r.numerator}): "
      f"{is_conjugate_t(w, torsion_witness(r.denominator, r.numerator))}")
print(f"but witness(2,1) ~ witness(2,1)^2 is {is_conjugate_t(torsion_witness(2,1), torsion_witness(2,1) * torsion_witness(2,1))} "
      f"(rotation numbers 1/2 vs 0)")

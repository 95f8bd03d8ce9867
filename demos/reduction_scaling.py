#!/usr/bin/env python3
"""Measure that diagram reduction scales linearly in word length.

Builds the reduced diagrams of random F words of growing length with
``reduced_diagram``, the streamed builder every verdict uses, which
freely reduces the word and splices pre-reduced blocks of letters.
Reports the time and the decade-over-decade ratios (a truly linear
implementation stays near 10).
"""

import random
import time

from strandgroups import random_word, reduced_diagram

LENGTHS = (10**3, 10**4, 10**5, 10**6)

rng = random.Random(42)
rows = []
print(f"{'N':>9} {'stream_s':>9} {'verts_out':>9}")
for n in LENGTHS:
    w = random_word("F", n, rng)
    t0 = time.perf_counter()
    d = reduced_diagram(w)
    t1 = time.perf_counter()
    rows.append((n, t1 - t0))
    print(f"{n:>9} {t1 - t0:>9.3f} {d.num_vertices():>9}")

print("\ndecade ratios (target: about 10, linear):")
for (n1, s1), (n2, s2) in zip(rows, rows[1:]):
    print(f"  {n1} -> {n2}: x{s2 / s1:.1f}")

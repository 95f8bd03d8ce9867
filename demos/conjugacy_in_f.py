#!/usr/bin/env python3
"""Walkthrough: conjugacy in F via annular strand diagrams.

Closing a reduced (1,1)-diagram top-to-bottom puts it on an annulus;
the reduced annular diagram is a complete conjugacy invariant.  Its
rings (free loops and components of alternating split/merge loops) are
radially ordered, and the canonical byte encoding makes equality a
string comparison.
"""

import random

from strandgroups import (
    annular_form,
    brute_conj_witness,
    close_annular,
    is_conjugate_f,
    parse_word,
    random_word,
    reduce_closed,
    reduced_diagram,
    ring_decomposition,
    word_to_text,
)

print("== the annular diagram of x0 ==")
a = reduce_closed(close_annular(reduced_diagram(parse_word("x0"))))
for ring in ring_decomposition(a):
    if ring.kind == "free":
        print(f"ring {ring.radial_index}: free loop")
    else:
        kinds = [cy.pure for cy in ring.cycles]
        print(f"ring {ring.radial_index}: component, concentric cycles {kinds}")
print(f"canonical hex: {annular_form(parse_word('x0')).hex()}")

print("\n== conjugates share the invariant ==")
pairs = [
    ("x1", "x0^-1 x1 x0"),
    ("x0 x1", "x1 x0"),          # cyclic shuffle is conjugation
    ("x0", "x0^-1"),             # mirror image: NOT conjugate in F
    ("x0", "x0 x0"),
]
for s1, s2 in pairs:
    verdict = is_conjugate_f(parse_word(s1), parse_word(s2))
    print(f"{s1!r} ~ {s2!r}: {verdict}")

print("\n== verdicts backed by brute-force witness search ==")
w1, w2 = parse_word("x0 x1"), parse_word("x1 x0")
wit = brute_conj_witness(w1, w2, 6)
print(f"witness conjugating {word_to_text(w1)!r} to {word_to_text(w2)!r}: "
      f"{word_to_text(wit) if wit and wit.letters else wit and '<empty>'}")
print(f"witness for x0 ~ x1 up to length 8: {brute_conj_witness(parse_word('x0'), parse_word('x1'), 8)}")

print("\n== random sanity sweep ==")
rng = random.Random(7)
ok = 0
for _ in range(100):
    w = random_word("F", rng.randrange(0, 16), rng)
    g = random_word("F", rng.randrange(0, 8), rng)
    if is_conjugate_f(w, g.inverse() * w * g):
        ok += 1
print(f"constructed conjugate pairs recognized: {ok}/100")

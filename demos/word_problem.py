#!/usr/bin/env python3
"""Walkthrough: deciding the word problem in Thompson's group F.

A word over {x0, x1} becomes a strand diagram by stacking generator
diagrams; rewriting cancels split/merge pairs as each generator is
stacked, until no move applies.
The word is trivial exactly when everything cancels.  The exact
prefix-map oracle checks every verdict independently.
"""

import random

from strandgroups import (
    equals_identity,
    find_redexes,
    parse_word,
    random_word,
    reduced_diagram,
    word_to_map,
    word_to_text,
)
from strandgroups.words import commutator

print("== building and reducing ==")
w = parse_word("x0 x1 x1^-1 x0^-1")
trace = []
d = reduced_diagram(w, trace=trace)
print(f"word: {word_to_text(w)}")
print(f"moves fired (type, top, bottom): {trace}")
print(f"reduced to identity: {d.is_identity()}")

print("\n== the defining relations of F collapse ==")
r1 = commutator(parse_word("x0 x1^-1"), parse_word("x0^-1 x1 x0"))
r2 = commutator(parse_word("x0 x1^-1"), parse_word("x0^-2 x1 x0^2"))
for i, r in enumerate((r1, r2), 1):
    trace = []
    d = reduced_diagram(r, trace=trace)
    print(f"relation {i}: {len(r.letters)} letters, {len(trace)} moves -> identity: {d.is_identity()}")

print("\n== a non-trivial word stays non-trivial ==")
w = parse_word("x0 x1")
d = reduced_diagram(w)
print(f"{word_to_text(w)}: {d.num_vertices()} vertices remain, redexes: {find_redexes(d)}")

print("\n== oracle agreement on random words ==")
rng = random.Random(1)
agree = 0
for _ in range(200):
    w = random_word("F", rng.randrange(0, 20), rng)
    if reduced_diagram(w).is_identity() == equals_identity(word_to_map(w)):
        agree += 1
print(f"diagram verdict == prefix-map verdict on {agree}/200 random words")

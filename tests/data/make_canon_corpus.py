"""Write the pinned canonical-form corpus, one tab-separated line per word:

    group  family  word  hex of ``strandgroups reduce -g <group> --emit-canon``

Run from the repository root:

    PYTHONPATH=src python tests/data/make_canon_corpus.py > tests/data/canon_corpus.tsv

The words are seeded, so the same source tree always writes the same
file; ``tests/test_canon_corpus.py`` checks that every entry keeps its
bytes.  Families: random words, symmetric powers w^k (k tied roots) and
torsion elements of T, plain and conjugated.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

from strandgroups import cli
from strandgroups.toral import torsion_witness
from strandgroups.words import ALPHABETS, Generator, Word, random_word, word_to_text


def emit_canon(group: str, text: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reduce", "-g", group, text, "--emit-canon"])
    if code != 0:
        raise RuntimeError(f"reduce -g {group} {text!r} exited {code}")
    return out.getvalue().splitlines()[-1]


def positive_word(group: str, n: int, rng) -> Word:
    return Word(group, tuple(Generator(rng.choice(ALPHABETS[group]), 1) for _ in range(n)))


def entries():
    for group, count, max_len, longs in (("F", 60, 40, (300, 1000, 3000)), ("T", 60, 30, (200, 600))):
        rng = random.Random(f"canon-corpus:{group}:random")
        for _ in range(count):
            yield group, "random", random_word(group, rng.randrange(0, max_len), rng)
        for n in longs:
            yield group, "random-long", random_word(group, n, rng)
        rng = random.Random(f"canon-corpus:{group}:powers")
        for n, k in ((1, 2), (2, 3), (3, 2), (3, 4), (5, 3), (5, 8), (10, 4), (20, 3)):
            w = positive_word(group, n, rng)
            yield group, "power", Word(group, w.letters * k)
        for n, k in ((4, 2), (6, 3), (8, 2)):
            w = random_word(group, n, rng)
            yield group, "power-mixed", Word(group, w.letters * k)
    rng = random.Random("canon-corpus:T:torsion")
    for n in range(2, 8):
        for k in range(1, n):
            t = torsion_witness(n, k)
            yield "T", "torsion", t
            g = random_word("T", rng.randrange(1, 8), rng)
            yield "T", "torsion-conjugated", g.inverse() * t * g
    rng = random.Random("canon-corpus:F-in-T")
    for _ in range(20):
        w = random_word("F", rng.randrange(0, 25), rng)
        yield "T", "f-word", Word("T", w.letters)


def main() -> int:
    for group, family, w in entries():
        text = word_to_text(w)
        print(f"{group}\t{family}\t{text}\t{emit_canon(group, text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

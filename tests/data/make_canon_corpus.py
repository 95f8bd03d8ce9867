"""Write the pinned canonical-form corpus, one tab-separated line per word:

    group  family  word  hex of ``strandgroups reduce -g <group> --emit-canon``

Run from the repository root:

    PYTHONPATH=src python tests/data/make_canon_corpus.py > tests/data/canon_corpus.tsv

The words are seeded, so the same source tree always writes the same
file; ``tests/test_canon_corpus.py`` checks that every entry keeps its
bytes.  Families: random words, symmetric powers w^k (k tied roots),
torsion elements of T, plain and conjugated, and for V the element that
acts as x0 on each of 2^d dyadic blocks (2^d alike components) and
torsion elements of V, whose closed diagrams are free loops only.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

from strandgroups import cli
from strandgroups.oracle import PrefixMap, word_from_map_f
from strandgroups.toral import torsion_witness
from strandgroups.words import ALPHABETS, Generator, Word, parse_word, random_word, word_to_text


def emit_canon(group: str, text: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reduce", "-g", group, text, "--emit-canon"])
    if code != 0:
        raise RuntimeError(f"reduce -g {group} {text!r} exited {code}")
    return out.getvalue().splitlines()[-1]


def positive_word(group: str, n: int, rng) -> Word:
    return Word(group, tuple(Generator(rng.choice(ALPHABETS[group]), 1) for _ in range(n)))


def block_word(d: int, inverted: int | None) -> Word:
    """x0 on each of the 2^d dyadic blocks; block ``inverted`` carries x0^-1."""
    dom: list[str] = []
    rng: list[str] = []
    for i in range(2 ** d):
        b = format(i, f"0{d}b") if d else ""
        up, down = [b + "00", b + "01", b + "1"], [b + "0", b + "10", b + "11"]
        if i == inverted:
            up, down = down, up
        dom += up
        rng += down
    return word_from_map_f(PrefixMap(tuple(dom), tuple(rng), tuple(range(len(dom)))), "V")


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
    rng = random.Random("canon-corpus:V:random")
    for _ in range(40):
        yield "V", "random", random_word("V", rng.randrange(0, 40), rng)
    for n in (300, 1000, 3000):
        yield "V", "random-long", random_word("V", n, rng)
    rng = random.Random("canon-corpus:V:powers")
    for n, k in ((1, 2), (2, 3), (3, 4), (5, 3), (5, 8), (10, 4), (20, 3)):
        w = positive_word("V", n, rng)
        yield "V", "power", Word("V", w.letters * k)
    for n, k in ((4, 2), (6, 3), (8, 2)):
        w = random_word("V", n, rng)
        yield "V", "power-mixed", Word("V", w.letters * k)
    rng = random.Random("canon-corpus:V:blocks")
    for d in range(5):
        yield "V", "blocks", block_word(d, None)
        yield "V", "blocks-inverted", block_word(d, rng.randrange(2 ** d))
        g = random_word("V", rng.randrange(1, 8), rng)
        yield "V", "blocks-conjugated", g.inverse() * block_word(d, None) * g
    rng = random.Random("canon-corpus:V:torsion")
    pi0 = parse_word("pi0", "V")
    torsion = [pi0, parse_word("pi0 x0 pi0 x0^-1", "V")]
    torsion += [Word("V", torsion_witness(n, k).letters) for n, k in ((2, 1), (3, 1), (3, 2), (5, 2))]
    torsion.append(torsion[3] * pi0)
    for t in torsion:
        yield "V", "torsion", t
        g = random_word("V", rng.randrange(1, 8), rng)
        yield "V", "torsion-conjugated", g.inverse() * t * g


def main() -> int:
    for group, family, w in entries():
        text = word_to_text(w)
        print(f"{group}\t{family}\t{text}\t{emit_canon(group, text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

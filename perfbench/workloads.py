"""Seeded workload inputs, each with a known answer that does not come
from the strand-diagram engine.

Every decision is an ``Item``: the CLI arguments the engine receives,
the output the CLI must print, and a tag naming its family.  A workload
is a sequence of passes; every pass has the same composition, so shares
such as ``failed_share`` repeat exactly whatever the number of passes.

Known answers, by construction:

* equal pairs insert random u.u^-1 pairs and F's two defining relators
  (which also hold in T and V); unequal pairs insert, in addition, one
  nontrivial generator;
* conjugate pairs conjugate by a random g;
* F non-conjugate pairs differ in the abelianisation
  x0 -> (1,-1), x1 -> (0,-1) (log2 slopes at 0 and at 1);
* T and V non-conjugate pairs come from the dyadic-block family: x0
  acting on each of 2^d blocks against the same element with one block
  inverted.  In T an orientation-preserving conjugator keeps the
  direction in which each block moves its points; in V a prefix
  replacement keeps the eventual tail (0^inf or 1^inf) of every
  repelling fixed point;
* ``rotnum`` of g^-1 . torsion_witness(n, k) . g is k/n.

The cost of a conjugacy decision on long words depends on the classes
compared: at 10^4 letters, one random F word encodes four times faster
than another.  So that the cost does not change with the seed, the long
words of conj-long are fixed corpus words, drawn once, that the seed
conjugates by random g; every seed compares the same classes in
different words.  For the same reason the symmetric powers w^k of
conj-adversarial take w positive (no inverse letters), so that no
cancellation makes one seed's w^k much cheaper than another's.

``self_test`` checks the generators themselves against the prefix-map
oracle at tiny sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from strandgroups.oracle import (
    PrefixMap,
    brute_conj_witness,
    equals_identity,
    map_power,
    minimize,
    word_from_map_f,
    word_to_map,
)
from strandgroups.toral import torsion_witness
from strandgroups.trees import antichain, comb
from strandgroups.words import ALPHABETS, Generator, Word, parse_word, word_to_text

# Per-decision time limit of conj-adversarial.  On a 2-CPU Xeon every item
# that finishes takes under 0.15 s, and every item stopped here runs for
# over 6 s when it is given the time.
ADVERSARIAL_LIMIT_S = 1.0
# Limit for the other workloads: a guard against hangs, never reached today.
DEFAULT_LIMIT_S = 60.0

SIZES = {
    "eq-long": {"letters_per_side": 50000, "groups": "FTV", "per_pass": "one pair per group, equal and unequal in turn"},
    "conj-long": {"letters": {"F": 10000, "T": 1000, "V": 10000}, "conjugator_letters": 100,
                  "classes": "fixed corpus words, conjugated by seeded g",
                  "nonconjugate": "F: abelianisation, T and V: 4 dyadic blocks"},
    "conj-short": {"max_letters": 20, "per_pass": "12 conj, 6 eq, 2 rotnum"},
    "conj-adversarial": {"v_blocks": [2, 4, 8, 16], "f_powers": [[10, 4], [10, 8], [200, 32]],
                         "t_powers": [[10, 2], [10, 4], [100, 32]], "power_base": "random positive word",
                         "conjugator_letters": 20, "limit_s": ADVERSARIAL_LIMIT_S},
}
WORKLOADS = tuple(SIZES)


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    expect: str
    tag: str
    oracle_eq: tuple[Word, Word] | None = None  # re-checked with the oracle


def _text(letters, group: str) -> str:
    return word_to_text(Word(group, tuple(letters)))


def _inverse(letters):
    return tuple(g.inverse() for g in reversed(letters))


def _relators() -> tuple[tuple[Generator, ...], ...]:
    a = parse_word("x0 X1", "F").letters
    b = parse_word("X0 x1 x0", "F").letters
    c = parse_word("X0 X0 x1 x0 x0", "F").letters
    return tuple(u + v + _inverse(u) + _inverse(v) for u, v in ((a, b), (a, c)))


RELATORS = _relators()


def abelianisation(letters) -> tuple[int, int]:
    """Image in Z^2 under x0 -> (1,-1), x1 -> (0,-1); a conjugacy invariant of F."""
    s0 = sum(g.sign for g in letters if g.symbol == "x0")
    s1 = sum(g.sign for g in letters if g.symbol == "x1")
    return (s0, -s0 - s1)


_GENERATORS = {(sym, sign): Generator(sym, sign) for sym in ALPHABETS["V"] for sign in (1, -1)}


def _letters(group: str, n: int, rng) -> tuple[Generator, ...]:
    """The letters of ``random_word(group, n, rng)``, sharing one object per
    generator so that long words stay small."""
    alpha = ALPHABETS[group]
    return tuple(_GENERATORS[rng.choice(alpha), rng.choice((1, -1))] for _ in range(n))


def _insert(rng, letters, pieces) -> tuple[Generator, ...]:
    """Insert each piece at an independent uniform position."""
    cuts = sorted(rng.randrange(len(letters) + 1) for _ in pieces)
    out: list[Generator] = []
    prev = 0
    for cut, piece in zip(cuts, pieces):
        out.extend(letters[prev:cut])
        out.extend(piece)
        prev = cut
    out.extend(letters[prev:])
    return tuple(out)


def _trivial_pieces(group: str, count: int, rng):
    """Words equal to the identity: u.u^-1 with |u| <= 3, or a relator."""
    pieces = []
    for _ in range(count):
        if rng.random() < 0.5:
            u = _letters(group, rng.randint(1, 3), rng)
            pieces.append(u + _inverse(u))
        else:
            r = rng.choice(RELATORS)
            pieces.append(r if rng.random() < 0.5 else _inverse(r))
    return pieces


def eq_pair(rng, group: str, n: int, equal: bool, pieces: int):
    """(w1, w2) with w1 == w2 in the group iff ``equal``."""
    w1 = _letters(group, n, rng)
    extra = _trivial_pieces(group, pieces, rng)
    if not equal:
        extra.append(_letters(group, 1, rng))
    rng.shuffle(extra)
    return w1, _insert(rng, w1, extra)


def eq_item(rng, group: str, n: int, equal: bool, pieces: int, tag: str, check: bool = False) -> Item:
    w1, w2 = eq_pair(rng, group, n, equal, pieces)
    oracle = (Word(group, w1), Word(group, w2)) if check else None
    return Item(("eq", "-g", group, _text(w1, group), _text(w2, group)),
                "true" if equal else "false", tag, oracle)


def conjugate(rng, group: str, w, glen: int):
    g = _letters(group, glen, rng)
    return _inverse(g) + tuple(w) + g


def conj_item(group: str, w1, w2, expect: bool, tag: str) -> Item:
    return Item(("conj", "-g", group, _text(w1, group), _text(w2, group)),
                "true" if expect else "false", tag)


def conj_true(rng, group: str, w, glen: int, tag: str) -> Item:
    return conj_item(group, w, conjugate(rng, group, w, glen), True, tag)


def nonconjugate_f(rng, w, glen: int):
    """A conjugate of the F word w with one generator inserted, which moves
    the abelianisation."""
    return _insert(rng, conjugate(rng, "F", w, glen), [_letters("F", 1, rng)])


def block_map(d: int, inverted: int | None) -> PrefixMap:
    """x0 on each of the 2^d dyadic blocks; block ``inverted`` carries x0^-1."""
    dom: list[str] = []
    rng: list[str] = []
    for i in range(2 ** d):
        b = format(i, f"0{d}b") if d else ""
        up = [b + "00", b + "01", b + "1"]
        down = [b + "0", b + "10", b + "11"]
        if i == inverted:
            up, down = down, up
        dom += up
        rng += down
    return PrefixMap(tuple(dom), tuple(rng), tuple(range(len(dom))))


@lru_cache(maxsize=None)
def block_word(d: int, inverted: int | None, group: str) -> tuple[Generator, ...]:
    return word_from_map_f(block_map(d, inverted), group).letters


def block_pair(rng, group: str, d: int, glen: int, conjugate_pair: bool, tag: str) -> Item:
    """A conjugate of the 2^d-block element against a conjugate of itself,
    or of the element with one random block inverted."""
    b = block_word(d, None, group)
    other = b if conjugate_pair else block_word(d, rng.randrange(2 ** d), group)
    w1 = conjugate(rng, group, b, glen)
    w2 = conjugate(rng, group, other, glen)
    return conj_item(group, w1, w2, conjugate_pair, tag)


def rotnum_item(rng, n: int, k: int, glen: int, tag: str) -> Item:
    w = conjugate(rng, "T", torsion_witness(n, k).letters, glen)
    r = Fraction(k, n)
    return Item(("rotnum", _text(w, "T")), f"{r.numerator}/{r.denominator}", tag)


# -- workloads -------------------------------------------------------------------


def _eq_long(rng, index):
    n = SIZES["eq-long"]["letters_per_side"]
    items = []
    for i, g in enumerate("FTV"):
        equal = (index + i) % 2 == 0
        items.append(eq_item(rng, g, n, equal, n // 100, f"eq-{g}-{'equal' if equal else 'unequal'}"))
    return items


@lru_cache(maxsize=None)
def corpus_word(group: str, n: int, index: int) -> tuple[Generator, ...]:
    """A random word drawn once, the same for every seed."""
    return _letters(group, n, random.Random(f"corpus:{group}:{n}:{index}"))


def _conj_long(rng, index):
    sizes = SIZES["conj-long"]["letters"]
    glen = SIZES["conj-long"]["conjugator_letters"]
    items = []
    for g in "FTV":
        # F gets two conjugate classes, so that the median decision is an F
        # one rather than the gap between the V and F costs
        for c in (0, 2) if g == "F" else (0,):
            w = corpus_word(g, sizes[g], c)
            items.append(conj_item(g, conjugate(rng, g, w, glen), conjugate(rng, g, w, glen), True,
                                   f"conj-{g}-conjugate"))
        if g == "F":
            w = corpus_word("F", sizes["F"], 1)
            other = _insert(random.Random("corpus:F:insert"), w, [(Generator("x1", 1),)])
            items.append(conj_item("F", conjugate(rng, "F", w, glen), conjugate(rng, "F", other, glen),
                                   False, "conj-F-abelianisation"))
        else:
            # pad the 4-block pair with long conjugators to the same length
            pad = (sizes[g] - len(block_word(2, None, g))) // 2
            items.append(block_pair(rng, g, 2, pad, False, f"conj-{g}-blocks4-inverted"))
    return items


def _conj_short(rng, index):
    items = []
    for g in "FTV":
        for _ in range(2):
            w = _letters(g, rng.randint(1, 10), rng)
            items.append(conj_true(rng, g, w, rng.randint(1, 5), f"short-conj-{g}-conjugate"))
        for _ in range(2):
            if g == "F":
                w = _letters("F", rng.randint(1, 9), rng)
                items.append(conj_item("F", w, nonconjugate_f(rng, w, rng.randint(1, 5)), False,
                                       "short-conj-F-abelianisation"))
            else:
                items.append(block_pair(rng, g, 1, rng.randint(0, 5), False, f"short-conj-{g}-blocks2-inverted"))
        for equal in (True, False):
            # one inserted piece: a relator (up to 14 letters) or u.u^-1
            n = rng.randint(0, 20 - 14 - (not equal))
            items.append(eq_item(rng, g, n, equal, 1, f"short-eq-{g}", check=True))
    for _ in range(2):
        n = rng.randint(2, 5)
        items.append(rotnum_item(rng, n, rng.randint(1, n - 1), rng.randint(0, 3), "short-rotnum"))
    return items


def _conj_adversarial(rng, index):
    spec = SIZES["conj-adversarial"]
    glen = spec["conjugator_letters"]
    items = []
    for k in spec["v_blocks"]:
        d = k.bit_length() - 1
        items.append(block_pair(rng, "V", d, glen, True, f"adv-V-blocks{k}-conjugate"))
        items.append(block_pair(rng, "V", d, glen, False, f"adv-V-blocks{k}-inverted"))
    for g, powers in (("F", spec["f_powers"]), ("T", spec["t_powers"])):
        for n, k in powers:
            w = tuple(_GENERATORS[rng.choice(ALPHABETS[g]), 1] for _ in range(n)) * k
            items.append(conj_true(rng, g, w, glen, f"adv-{g}-power{n}x{k}"))
    return items


_PASS = {
    "eq-long": _eq_long,
    "conj-long": _conj_long,
    "conj-short": _conj_short,
    "conj-adversarial": _conj_adversarial,
}

# verbs and groups a workload's decisions use, for the warm-up decisions
_WARMUP_WORD = {"F": "x0 x1 X0 X1", "T": "x0 x1 c X0 X1 C", "V": "x0 x1 c pi0 X0 X1 C PI0"}


def passes(workload: str, seed: int, count: int) -> list[list[Item]]:
    rng = random.Random(f"{workload}:{seed}")
    return [_PASS[workload](rng, i) for i in range(count)]


def limit_s(workload: str) -> float:
    return ADVERSARIAL_LIMIT_S if workload == "conj-adversarial" else DEFAULT_LIMIT_S


def warmup(items: list[Item]) -> list[list[str]]:
    """One tiny decision per (verb, group) the items use."""
    seen = []
    for it in items:
        verb = it.argv[0]
        key = (verb, it.argv[2] if verb != "rotnum" else "T")
        if key not in seen:
            seen.append(key)
    out = []
    for verb, g in seen:
        w = _WARMUP_WORD[g]
        out.append(["rotnum", w] if verb == "rotnum" else [verb, "-g", g, w, w])
    return out


def oracle_check(item: Item) -> bool:
    """True iff the oracle agrees with the item's known answer."""
    w1, w2 = item.oracle_eq
    equal = equals_identity(word_to_map(w1 * w2.inverse()))
    return equal == (item.expect == "true")


# -- self-test of the generators against the oracle ----------------------------------


def self_test(seed: int) -> list[str]:
    """Check every known-answer generator at tiny sizes; returns the failures."""
    rng = random.Random(f"self-test:{seed}")
    bad = []
    for r in RELATORS:
        if not equals_identity(word_to_map(Word("F", r))) or abelianisation(r) != (0, 0):
            bad.append(f"relator {_text(r, 'F')}")
    for g in "FTV":
        for equal in (True, False):
            for _ in range(4):
                w1, w2 = eq_pair(rng, g, rng.randint(0, 6), equal, 2)
                same = word_to_map(Word(g, w1)) == word_to_map(Word(g, w2))
                if same != equal:
                    bad.append(f"eq pair {g} equal={equal}: {_text(w1, g)} / {_text(w2, g)}")
        for _ in range(2):
            w = _letters(g, rng.randint(1, 4), rng)
            w2 = conjugate(rng, g, w, rng.randint(1, 2))
            if brute_conj_witness(Word(g, w), Word(g, w2), 2) is None:
                bad.append(f"conjugate pair {g}: no witness for {_text(w2, g)}")
    for _ in range(2):
        w = _letters("F", rng.randint(1, 4), rng)
        w2 = nonconjugate_f(rng, w, 1)
        if abelianisation(w) == abelianisation(w2) or brute_conj_witness(
            Word("F", w), Word("F", w2), 2
        ) is not None:
            bad.append(f"F pair {_text(w, 'F')} / {_text(w2, 'F')} is not told apart")
    for g in "TV":
        for d in (1, 2):
            for inv in (None, 0):
                if word_to_map(Word(g, block_word(d, inv, g))) != minimize(block_map(d, inv)):
                    bad.append(f"block word d={d} inverted={inv} in {g}")
        b, b_inv = (Word(g, block_word(1, inv, g)) for inv in (None, 1))
        if brute_conj_witness(b, b_inv, 2) is not None:
            bad.append(f"block pair in {g} has a short conjugator")
    for n in (2, 3, 5):
        leaves = tuple(antichain(comb(n)))
        for k in range(1, n):
            m = word_to_map(torsion_witness(n, k))
            rot = minimize(PrefixMap(leaves, leaves, tuple((i + k) % n for i in range(n))))
            if m != rot or not equals_identity(map_power(m, n)):
                bad.append(f"torsion witness ({n},{k})")
    return bad


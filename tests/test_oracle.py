"""Prefix-map oracle: composition, minimization, words from maps, witness search."""

import random
import sys

import pytest

from strandgroups.oracle import (
    PrefixMap,
    _posword_indices,
    _witness_bfs,
    brute_conj_witness,
    compose,
    equals_identity,
    generator_map,
    invert_map,
    map_power,
    minimize,
    word_from_map_f,
    word_from_map_t,
    word_to_map,
)
from strandgroups.trees import LEAF, comb, num_leaves
from strandgroups.words import Generator, Word, commutator, parse_word, random_word, word_to_text

from conftest import random_tree


def test_generator_conventions():
    assert generator_map(Generator("x0", 1)) == PrefixMap(
        ("00", "01", "1"), ("0", "10", "11"), (0, 1, 2)
    )
    assert generator_map(Generator("x1", 1)) == PrefixMap(
        ("0", "100", "101", "11"), ("0", "10", "110", "111"), (0, 1, 2, 3)
    )


def test_identity_and_cancellation():
    assert equals_identity(word_to_map(Word("F", ())))
    assert equals_identity(word_to_map(parse_word("x0 x0^-1")))
    assert not equals_identity(word_to_map(parse_word("x0")))


def test_relations_evaluate_to_identity():
    r1 = commutator(parse_word("x0 x1^-1"), parse_word("x0^-1 x1 x0"))
    r2 = commutator(parse_word("x0 x1^-1"), parse_word("x0^-2 x1 x0^2"))
    assert equals_identity(word_to_map(r1))
    assert equals_identity(word_to_map(r2))


def test_homomorphism(rng):
    for _ in range(100):
        grp = rng.choice(("F", "T", "V"))
        u = random_word(grp, rng.randrange(0, 9), rng)
        v = random_word(grp, rng.randrange(0, 9), rng)
        assert word_to_map(u * v) == compose(word_to_map(u), word_to_map(v))


def test_inverse_and_power(rng):
    for _ in range(50):
        w = random_word("V", rng.randrange(0, 8), rng)
        m = word_to_map(w)
        assert equals_identity(compose(m, invert_map(m)))
        assert map_power(m, 3) == compose(m, compose(m, m))


def test_minimize_result_is_stable(rng):
    for _ in range(50):
        w = random_word("V", rng.randrange(0, 10), rng)
        m = word_to_map(w)
        assert minimize(m) == m  # word_to_map already minimizes


def test_word_from_map_f_roundtrip(rng):
    for _ in range(150):
        w = random_word("F", rng.randrange(0, 12), rng)
        m = word_to_map(w)
        assert word_to_map(word_from_map_f(m)) == m


def _posword_indices_recursive(t):
    """The recursive form of ``_posword_indices``: the reference."""
    if t is None:
        return []
    left, right = t
    out = [i + 1 for i in _posword_indices_recursive(right)]
    if left is not None:
        ll, lr = left
        out.append(0)
        out.extend(_posword_indices_recursive((ll, (lr, comb(num_leaves(right))))))
    return out


def _random_spine(rng, depth):
    """A tree of the given depth: each level hangs a leaf or a caret on
    the left or the right of the levels below it."""
    t = LEAF
    for _ in range(depth):
        side = LEAF if rng.random() < 0.8 else (LEAF, LEAF)
        t = (t, side) if rng.random() < 0.5 else (side, t)
    return t


def test_posword_indices_match_the_recursive_reference():
    rng = random.Random(7)
    trees = [random_tree(rng, rng.randrange(1, 60)) for _ in range(300)]
    trees += [_random_spine(rng, depth) for depth in (100, 300, 500, 700, 899)]
    # the reference recurses about twice as deep as the tree
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        for t in trees:
            assert _posword_indices(t) == _posword_indices_recursive(t)
    finally:
        sys.setrecursionlimit(limit)


def test_word_from_map_f_rejects_permuted():
    m = word_to_map(parse_word("pi0", "V"))
    with pytest.raises(ValueError):
        word_from_map_f(m)


def test_word_from_map_t_roundtrip(rng):
    for _ in range(150):
        w = random_word("T", rng.randrange(0, 10), rng)
        m = word_to_map(w)
        assert word_to_map(word_from_map_t(m)) == m


def test_witness_trivia():
    w = parse_word("x0 x1")
    wit = brute_conj_witness(w, w, 2)
    assert wit is not None and wit.letters == ()


def test_witness_simple_conjugate():
    wit = brute_conj_witness(parse_word("x1"), parse_word("x0^-1 x1 x0"), 1)
    assert wit is not None and word_to_text(wit) == "x0"
    # the meet-in-the-middle path returns the same witness
    wit = brute_conj_witness(parse_word("x1"), parse_word("x0^-1 x1 x0"), 12)
    assert wit is not None and word_to_text(wit) == "x0"


def test_witness_none_for_x0_x1():
    assert brute_conj_witness(parse_word("x0"), parse_word("x1"), 6) is None


def test_witness_is_the_first_in_generator_order():
    # the meet search only decides whether to search breadth first and how
    # far; the witness is the one the breadth-first search alone returns
    rng = random.Random(83)
    found = 0
    for i in range(90):
        group = "FTV"[i % 3]
        w1 = random_word(group, rng.randrange(0, 6), rng)
        g = random_word(group, rng.randrange(0, 4), rng)
        w2 = g.inverse() * w1 * g if i % 2 else random_word(group, rng.randrange(0, 6), rng)
        wit = brute_conj_witness(w1, w2, 3)
        assert wit == _witness_bfs(group, word_to_map(w1), word_to_map(w2), 3)
        found += wit is not None
    assert 0 < found < 90
    # a pair on which the meet search alone returns c c x0^-1
    w1 = parse_word("x0 x1", "T")
    w2 = parse_word("x0 c^-1 c^-1 x0 x1 c c x0^-1", "T")
    assert word_to_text(brute_conj_witness(w1, w2, 3)) == "x0 c^-1 c^-1"


@pytest.mark.parametrize(
    "g, max_len",
    [
        ("x1 x1 x0^-1 x1", 4),
        ("x1 x1 x1 x0^-1 x1 x1", 6),
        ("x1 x1 x1 x1 x1 x0^-1 x1 x1 x1 x1", 10),
    ],
)
def test_witness_found_at_full_length(g, max_len):
    # a cone that grows g2 in g2 m2 g2^-1 at its inside end and keeps one
    # word per conjugate found no witness for these pairs
    gw = parse_word(g)
    wit = brute_conj_witness(gw * parse_word("x0") * gw.inverse(), parse_word("x0"), max_len)
    assert wit is not None and word_to_text(wit) == g


def test_witness_soundness(rng):
    # every returned witness actually conjugates
    for _ in range(30):
        grp = rng.choice(("F", "T", "V"))
        w1 = random_word(grp, rng.randrange(0, 5), rng)
        g = random_word(grp, rng.randrange(0, 3), rng)
        w2 = g.inverse() * w1 * g
        wit = brute_conj_witness(w1, w2, 4)
        assert wit is not None
        m1, m2, mg = word_to_map(w1), word_to_map(w2), word_to_map(wit)
        assert compose(compose(invert_map(mg), m1), mg) == m2

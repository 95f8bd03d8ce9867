"""Closed diagrams for V: cutting classes, cohomology, conjugacy, torsion."""

import random

import pytest

from strandgroups.closure import (
    CLOSED,
    ClosedDiagram,
    FreeLoop,
    close_abstract,
    reduce_closed,
    weak_components,
)
from strandgroups.canonical import is_conjugate_f
from strandgroups.errors import AlphabetError
from strandgroups.oracle import block_word, equals_identity, map_power, word_to_map
from strandgroups import vgroup
from strandgroups.rewrite import find_redexes, reduce_diagram
from strandgroups.vgroup import (
    canonical_abstract,
    closed_diagrams_equal,
    closed_form,
    cohomology_equivalent,
    cut_cochain,
    is_conjugate_v,
    torsion_check,
)
from strandgroups.words import Word, parse_word, random_word, word_to_diagram


def test_close_identity():
    c = close_abstract(word_to_diagram(Word("V", ())))
    assert [len(f.cuts) for f in c.free_loops] == [1]


def test_pi0_closed_reduces_to_loops():
    c = closed_form(parse_word("pi0", "V"))
    assert c.num_vertices() == 0
    assert sorted(len(f.cuts) for f in c.free_loops) == [1, 2]
    c.validate_positive()


def test_close_abstract_with_permutation():
    # gluing sink i to source perm[i]: vertex-free strands trace the
    # permutation's orbits, one free loop per orbit
    from strandgroups.diagram import StrandDiagram, sink_code, source_code

    def identity_k(k):
        d = StrandDiagram(k, k)
        for i in range(k):
            d._link(source_code(i), sink_code(i))
        return d

    c = close_abstract(identity_k(3), perm=(1, 2, 0))
    assert sorted(len(f.cuts) for f in c.free_loops) == [3]
    c = close_abstract(identity_k(3), perm=(1, 0, 2))
    assert sorted(len(f.cuts) for f in c.free_loops) == [1, 2]
    c.validate_positive()


def test_positivity_preserved_by_close_and_reduce(rng):
    for _ in range(80):
        w = random_word("V", rng.randrange(0, 10), rng)
        c = close_abstract(word_to_diagram(w))
        c.validate_positive()
        reduce_closed(c)
        c.validate_positive()


def test_crossed_pair_is_not_a_redex():
    d = word_to_diagram(parse_word("pi0", "V"))
    c = close_abstract(d)
    # the two crossed cross-edges of pi0 must not register as type I
    kinds = sorted(r.kind for r in find_redexes(c))
    assert "I" not in kinds


def test_f_closure_matches_annular_verdicts(rng):
    for _ in range(150):
        w1 = random_word("F", rng.randrange(6, 14), rng)
        if rng.random() < 0.5:
            g = random_word("F", rng.randrange(0, 6), rng)
            w2 = g.inverse() * w1 * g
        else:
            w2 = random_word("F", rng.randrange(6, 14), rng)
        assert is_conjugate_f(w1, w2) == is_conjugate_v(w1, w2)


def test_cohomology_trivial_cases():
    c = closed_form(parse_word("x0", "V"))
    w = cut_cochain(c)
    assert cohomology_equivalent(c, w, dict(w))
    # a single free loop: coboundaries vanish, unequal values differ
    loop = ClosedDiagram(CLOSED)
    loop.free_loops = [FreeLoop([(0,)], 0)]
    assert not cohomology_equivalent(loop, {("loop", 0): 1}, {("loop", 0): 2})


def test_cohomology_shifted_by_coboundary(rng):
    for _ in range(50):
        w = random_word("V", rng.randrange(1, 10), rng)
        c = closed_form(w)
        if c.num_vertices() == 0:
            continue
        base = cut_cochain(c)
        f = {v: rng.randrange(-2, 3) for v in c.live_vertices()}
        shifted = dict(base)
        for tail, head in c.edges():
            shifted[head] = shifted.get(head, 0) + f[head // 3] - f[tail // 3]
        assert cohomology_equivalent(c, base, shifted)


def test_cohomology_is_equivalence(rng):
    for _ in range(30):
        w = random_word("V", rng.randrange(1, 8), rng)
        c = closed_form(w)
        base = cut_cochain(c)
        others = []
        for _ in range(3):
            alt = dict(base)
            for k in alt:
                if not isinstance(k, tuple):
                    alt[k] += rng.randrange(-1, 2)
            others.append(alt)
        a, b, d = others
        assert cohomology_equivalent(c, a, a)
        if cohomology_equivalent(c, a, b):
            assert cohomology_equivalent(c, b, a)
        if cohomology_equivalent(c, a, b) and cohomology_equivalent(c, b, d):
            assert cohomology_equivalent(c, a, d)


def test_conjugation_invariance(rng):
    for _ in range(300):
        w = random_word("V", rng.randrange(0, 12), rng)
        g = random_word("V", rng.randrange(0, 6), rng)
        assert is_conjugate_v(w, g.inverse() * w * g)


def test_x0_not_conjugate_pi0():
    # pi0 is torsion of order two, x0 has infinite order
    assert not is_conjugate_v(parse_word("x0", "V"), parse_word("pi0", "V"))
    assert torsion_check(parse_word("pi0", "V")) == (True, 2)
    assert torsion_check(parse_word("x0", "V")) == (False, None)
    m = word_to_map(parse_word("pi0", "V"))
    assert equals_identity(map_power(m, 2))


def test_torsion_trivia():
    assert torsion_check(Word("V", ())) == (True, 1)
    assert torsion_check(parse_word("x0 x0^-1", "V")) == (True, 1)


def test_torsion_conjugation_stable(rng):
    for _ in range(20):
        g = random_word("V", rng.randrange(0, 6), rng)
        w = g.inverse() * parse_word("pi0", "V") * g
        assert torsion_check(w) == (True, 2)
        c = closed_form(w)
        assert c.num_vertices() == 0  # free loops and permutation-like cycles only


def test_witness_implies_conjugate_v(rng):
    from strandgroups.oracle import brute_conj_witness

    for _ in range(50):
        w1 = random_word("V", rng.randrange(0, 4), rng)
        w2 = random_word("V", rng.randrange(0, 4), rng)
        wit = brute_conj_witness(w1, w2, 4)
        if wit is not None:
            assert is_conjugate_v(w1, w2)


def test_closed_diagrams_equal_reflexive(rng):
    for _ in range(40):
        w = random_word("V", rng.randrange(0, 10), rng)
        assert closed_diagrams_equal(closed_form(w), closed_form(w))


def test_frontier_and_random_give_one_form(rng):
    for _ in range(150):
        w = random_word("V", rng.randrange(0, 30), rng)
        c1 = reduce_closed(close_abstract(reduce_diagram(word_to_diagram(w))))
        c2 = reduce_closed(close_abstract(word_to_diagram(w)), order="random", rng=rng)
        assert canonical_abstract(c1) == canonical_abstract(c2)


def test_unequal_sizes_decided_without_encoding(monkeypatch):
    rng = random.Random(1)
    c1, c2 = (closed_form(random_word("V", 10**4, rng)) for _ in range(2))
    assert c1.num_vertices() != c2.num_vertices()

    def encode(c):
        raise AssertionError("pairs of unequal size need no canonical form")

    monkeypatch.setattr(vgroup, "canonical_abstract", encode)
    assert not closed_diagrams_equal(c1, c2)


def test_many_identical_components():
    # 16 alike components: a search over bijections between them would
    # try up to 16! matchings; the canonical form sorts 16 encodings
    b = block_word(4, None, "V")
    g = parse_word("x1 pi0 x0^-1 c", "V")
    c = closed_form(b)
    assert sorted(map(len, weak_components(c))) == [2] * 16 and not c.free_loops
    assert is_conjugate_v(b, g.inverse() * b * g)
    assert not is_conjugate_v(b, block_word(4, 5, "V"))
    assert not is_conjugate_v(g.inverse() * b * g, block_word(4, 0, "V"))


def test_alphabet_guard():
    # F and T words embed into V
    assert is_conjugate_v(parse_word("x0"), parse_word("x0", "V"))
    # but pi0 cannot masquerade as a T word
    with pytest.raises(AlphabetError):
        Word("T", (parse_word("pi0", "V").letters[0],))
    from strandgroups.toral import is_conjugate_t

    with pytest.raises(AlphabetError):
        is_conjugate_t(parse_word("pi0", "V"), parse_word("pi0", "V"))

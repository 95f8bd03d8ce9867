"""Toral closures: Dehn normalization, rotation numbers, conjugacy in T."""

from fractions import Fraction

import pytest

from strandgroups.closure import (
    ClosedDiagram,
    FreeLoop,
    TORAL,
    close_annular,
    close_cylindrical,
    reduce_closed,
    ring_decomposition,
)
from strandgroups.diagram import StrandDiagram, identity_diagram, sink_code, source_code
from strandgroups.errors import NotReduced
from strandgroups.rewrite import reduce_diagram
from strandgroups.toral import (
    canonical_toral,
    cycle_class,
    dehn_normalize,
    dehn_twist,
    is_conjugate_t,
    rotation_number,
    torsion_witness,
)
from strandgroups.words import Word, parse_word, random_word, word_to_diagram

from conftest import permute_vertices, reduce_random


def _identity_k(k):
    d = StrandDiagram(k, k)
    d.long = {}
    for i in range(k):
        d._link(source_code(i), sink_code(i))
    return d


def test_close_identity_gives_1_0_loop():
    t = close_cylindrical(identity_diagram(cylindrical=True), 0)
    assert [(f.winding, f.long) for f in t.free_loops] == [(1, 0)]


def test_close_cn_gives_class_n_1():
    # the n-strand rotation: vertex-free (n,n) diagram closed with shift 1
    for n in range(2, 7):
        t = close_cylindrical(_identity_k(n), 1)
        assert [(f.winding, f.long) for f in t.free_loops] == [(n, 1)]
        reduce_closed(t)
        assert cycle_class(t) == (n, 1)


def test_f_word_closure_has_no_wraps(rng):
    # closing an F word torally reproduces the annular picture: class
    # (1,0) cycles and the same components; the only difference is that
    # ring order is cyclic, so an innermost and an outermost free loop
    # sit in one band across the seam and consolidate
    for _ in range(50):
        letters = random_word("F", rng.randrange(0, 10), rng).letters
        t = close_cylindrical(word_to_diagram(Word("T", letters)), 0)
        reduce_closed(t)
        assert cycle_class(t) == (1, 0)
        a = reduce_closed(close_annular(word_to_diagram(Word("F", letters))))
        rt = ring_decomposition(t)
        ra = ring_decomposition(a)
        comp_t = sorted(
            str([c.pure for c in r.cycles]) for r in rt if r.kind == "component"
        )
        comp_a = sorted(
            str([c.pure for c in r.cycles]) for r in ra if r.kind == "component"
        )
        assert comp_t == comp_a
        free_t = sum(1 for r in rt if r.kind == "free")
        free_a = sum(1 for r in ra if r.kind == "free")
        wraps = len(ra) >= 2 and ra[0].kind == "free" and ra[-1].kind == "free"
        assert free_t == free_a - (1 if wraps else 0)


def test_dehn_normalize_arithmetic():
    t = ClosedDiagram(TORAL)
    t.free_loops = [FreeLoop([(0,), (1,), (2,)], 4)]  # class (3,4)
    dehn_normalize(t)
    assert cycle_class(t) == (3, 1)
    t2 = ClosedDiagram(TORAL)
    t2.free_loops = [FreeLoop([(0,)], 7)]  # class (1,7)
    dehn_normalize(t2)
    assert cycle_class(t2) == (1, 0)


def test_dehn_normalize_idempotent(rng):
    for _ in range(50):
        w = random_word("T", rng.randrange(0, 10), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        t = reduce_closed(close_cylindrical(d, 0))
        dehn_normalize(t)
        snapshot = (dict(t.long), [(list(f.cuts), f.long) for f in t.free_loops])
        dehn_normalize(t)
        assert snapshot == (dict(t.long), [(list(f.cuts), f.long) for f in t.free_loops])


def test_dehn_normalize_requires_reduced():
    t = close_cylindrical(word_to_diagram(parse_word("c c^-1", "T")), 0)
    with pytest.raises(NotReduced):
        dehn_normalize(t)


def test_twisted_variants_normalize_equal(rng):
    for _ in range(100):
        w = random_word("T", rng.randrange(0, 10), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        t1 = reduce_closed(close_cylindrical(d, 0))
        t2 = dehn_twist(t1.copy(), 1)
        assert canonical_toral(t1) == canonical_toral(t2)


def test_free_loop_merge_side_condition():
    same = ClosedDiagram(TORAL)
    same.free_loops = [FreeLoop([(0,)], 0), FreeLoop([(1,)], 0)]
    reduce_closed(same)
    assert len(same.free_loops) == 1

    differ = ClosedDiagram(TORAL)
    differ.free_loops = [FreeLoop([(0,)], 0), FreeLoop([(1,)], 1)]
    reduce_closed(differ)
    assert len(differ.free_loops) == 2


def test_rotation_number_trivia():
    assert rotation_number(Word("T", ())) == Fraction(0, 1)
    assert rotation_number(parse_word("x0 x0^-1")) == Fraction(0, 1)


def test_rotation_numbers_of_torsion_witnesses():
    for n in range(1, 9):
        for k in range(1, n):
            assert rotation_number(torsion_witness(n, k)) == Fraction(k, n)


def test_torsion_witness_trivia():
    assert torsion_witness(1, 5).letters == ()
    for n in range(2, 6):
        assert torsion_witness(n, n).letters == ()


def test_f_words_have_rotation_zero(rng):
    for _ in range(50):
        w = random_word("F", rng.randrange(0, 12), rng)
        assert rotation_number(w) == 0


def test_rotation_number_conjugation_invariant(rng):
    for _ in range(100):
        w = random_word("T", rng.randrange(0, 10), rng)
        g = random_word("T", rng.randrange(0, 6), rng)
        assert rotation_number(w) == rotation_number(g.inverse() * w * g)


def test_is_conjugate_t(rng):
    for _ in range(300):
        w = random_word("T", rng.randrange(0, 12), rng)
        g = random_word("T", rng.randrange(0, 6), rng)
        assert is_conjugate_t(w, g.inverse() * w * g)


def test_distinct_rotation_numbers_separate():
    c2 = torsion_witness(2, 1)
    assert not is_conjugate_t(c2, c2 * c2)
    assert not is_conjugate_t(parse_word("x0", "T"), torsion_witness(3, 1))


def test_torsion_words_conjugate_to_witness(rng):
    # anything whose reduced toral diagram is free loops only is conjugate
    # to a power of a vine-conjugated rotation, located by rotation number
    for n in range(2, 6):
        for k in range(1, n):
            tw = torsion_witness(n, k)
            g = random_word("T", 4, rng)
            conj = g.inverse() * tw * g
            d = word_to_diagram(conj)
            reduce_diagram(d)
            t = reduce_closed(close_cylindrical(d, 0))
            assert t.num_vertices() == 0
            r = rotation_number(conj)
            assert is_conjugate_t(conj, torsion_witness(r.denominator, r.numerator))


def test_witness_implies_conjugate_t(rng):
    from strandgroups.oracle import brute_conj_witness

    for _ in range(60):
        w1 = random_word("T", rng.randrange(0, 5), rng)
        w2 = random_word("T", rng.randrange(0, 5), rng)
        wit = brute_conj_witness(w1, w2, 4)
        if wit is not None:
            assert is_conjugate_t(w1, w2)


def test_toral_confluence(rng):
    for _ in range(300):
        w = random_word("T", rng.randrange(0, 10), rng)
        d1 = word_to_diagram(w)
        reduce_diagram(d1)
        t1 = reduce_closed(close_cylindrical(d1, 0))
        d2 = word_to_diagram(w)
        t2 = reduce_closed(reduce_random(close_cylindrical(d2, 0), rng))
        assert canonical_toral(t1) == canonical_toral(t2)


def test_canonical_toral_reindexing(rng):
    for _ in range(60):
        w = random_word("T", rng.randrange(0, 10), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        t = reduce_closed(close_cylindrical(d, 0))
        assert canonical_toral(t) == canonical_toral(permute_vertices(t, rng))


def test_every_reduced_toral_diagram_has_a_cycle(rng):
    # the computable shadow of "every element of T has a periodic point"
    for _ in range(100):
        w = random_word("T", rng.randrange(0, 10), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        t = reduce_closed(close_cylindrical(d, 0))
        n, k = cycle_class(t)  # raises if no cycle exists
        assert n > 0

"""Annular closures: moves I/II/III, ring structure, the F structure theorem."""

import pytest

from strandgroups.closure import (
    CLOSED,
    ClosedDiagram,
    FreeLoop,
    check_cycle_structure,
    close_abstract,
    close_annular,
    close_cylindrical,
    cutting_sequence,
    reduce_closed,
    ring_decomposition,
)
from strandgroups.canonical import canonical_annular
from strandgroups.diagram import MERGE, SPLIT, StrandDiagram, sink_code, source_code, vine
from strandgroups.errors import ArityMismatch, NotReduced, StructureViolation
from strandgroups.rewrite import find_redexes, reduce_diagram
from strandgroups.words import parse_word, random_word, word_to_diagram

from conftest import reduce_random, validate_positive


def _identity_k(k):
    d = StrandDiagram(k, k)
    for i in range(k):
        d._link(source_code(i), sink_code(i))
    return d


def test_close_identity_gives_free_loop():
    c = close_annular(_identity_k(1))
    assert c.num_vertices() == 0
    assert [f.winding for f in c.free_loops] == [1]


def test_close_requires_square():
    with pytest.raises(ArityMismatch):
        close_annular(vine(2))


def test_two_concentric_loops_merge():
    c = close_annular(_identity_k(2))
    assert len(c.free_loops) == 2
    reduce_closed(c)
    assert len(c.free_loops) == 1
    assert c.free_loops[0].winding == 1


def test_close_x0_structure():
    c = close_annular(word_to_diagram(parse_word("x0")))
    assert c.num_vertices() == 4
    reduce_closed(c)
    rings = ring_decomposition(c)
    assert len(rings) == 1 and rings[0].kind == "component"
    assert [cy.pure for cy in rings[0].cycles] == ["split", "merge"]
    check_cycle_structure(c)


def test_reduce_commutes_with_square_reduction(rng):
    for _ in range(300):
        w = random_word("F", rng.randrange(0, 15), rng)
        d1 = word_to_diagram(w)
        a1 = reduce_closed(close_annular(d1))
        d2 = word_to_diagram(w)
        reduce_diagram(d2)
        a2 = reduce_closed(close_annular(d2))
        s1 = [(r.kind, [c.pure for c in r.cycles]) for r in ring_decomposition(a1)]
        s2 = [(r.kind, [c.pure for c in r.cycles]) for r in ring_decomposition(a2)]
        assert s1 == s2


def test_frontier_and_random_give_one_form(rng):
    for _ in range(150):
        w = random_word("F", rng.randrange(0, 30), rng)
        a1 = reduce_closed(close_annular(reduce_diagram(word_to_diagram(w))))
        a2 = reduce_closed(reduce_random(close_annular(word_to_diagram(w)), rng))
        assert canonical_annular(a1) == canonical_annular(a2)


def test_overlap_resolved_by_type_three():
    # split and merge joined by both bigon edges and the opposite strand:
    # the type I and type II redexes share both vertices, and both routes
    # must end in a single free loop of winding one
    def build():
        d = word_to_diagram(parse_word("x0 x0^-1"))
        return close_annular(reduce_diagram(d))

    # the reduced square diagram of x0 x0^-1 is the identity, so instead
    # build the configuration directly: split u over merge v, closed up
    def build_cycle():
        c = ClosedDiagram("annular")
        u, v = 0, 1
        c.kind = [0, 1]
        c.conn = [0] * 6
        # bigon u->v, plus v.out feeding u.in through the seam
        c.conn[3 * u + 1] = 3 * v + 0
        c.conn[3 * v + 0] = 3 * u + 1
        c.conn[3 * u + 2] = 3 * v + 1
        c.conn[3 * v + 1] = 3 * u + 2
        c.conn[3 * v + 2] = 3 * u + 0
        c.conn[3 * u + 0] = 3 * v + 2
        c.cuts = {3 * u + 0: [(0,)]}
        return c

    redexes = find_redexes(build_cycle())
    assert sorted(r.kind for r in redexes) == ["I", "II"]
    results = []
    for r in redexes:
        c = build_cycle()
        rr = next(x for x in find_redexes(c) if x.kind == r.kind)
        c.splice(rr.kind, rr.top, rr.bottom)
        reduce_closed(c)
        results.append([(f.winding, f.long) for f in c.free_loops])
    assert results[0] == results[1] == [(1, 0)]


def test_free_loop_only_diagram_is_ok():
    c = ClosedDiagram("annular")
    c.free_loops = [FreeLoop([(0,)], 0)]
    check_cycle_structure(c)


def test_mixed_cycle_is_structure_violation():
    # a simple directed cycle through one split and one merge; mixed
    # cycles only occur in unreduced diagrams (the merge-then-split edge
    # is a type II redex), and the checker names them rather than
    # trusting its precondition
    c = ClosedDiagram("annular")
    c.kind = [0, 1, 1, 0, 1, 0]  # u, v on the mixed cycle; m, s, m2, z2 fill ports
    c.conn = [0] * 18
    pairs = [
        (0, 5),    # u.in <- v.out          (cycle edge)
        (1, 3),    # u.outL -> v.inL        (cycle edge)
        (2, 7),    # u.outR -> m.inR
        (4, 17),   # v.inR <- z2.outR
        (6, 10),   # m.inL <- s.outL
        (8, 9),    # m.out -> s.in
        (11, 13),  # s.outR -> m2.inR
        (12, 14),  # m2 self loop (merge loop)
        (15, 16),  # z2 self loop (split loop)
    ]
    for a, b in pairs:
        c.conn[a] = b
        c.conn[b] = a
    c.cuts = {0: [(0,)], 9: [(1,)], 12: [(2,)], 15: [(3,)]}
    with pytest.raises(StructureViolation, match="mixes"):
        check_cycle_structure(c)


def test_cycle_structure_on_random_reduced(rng):
    for _ in range(300):
        w = random_word("F", rng.randrange(0, 18), rng)
        a = reduce_closed(close_annular(word_to_diagram(w)))
        check_cycle_structure(a)
        for ring in ring_decomposition(a):
            kinds = [cy.pure for cy in ring.cycles]
            for x, y in zip(kinds, kinds[1:]):
                assert x != y  # alternation
            for cy in ring.cycles:
                winding = sum(len(a.cuts.get(h, ())) for h in cy.heads)
                assert winding == 1


def test_ring_decomposition_requires_reduced():
    a = close_annular(word_to_diagram(parse_word("x0 x0^-1")))
    with pytest.raises(NotReduced):
        ring_decomposition(a)


def test_single_free_loop_ring():
    a = reduce_closed(close_annular(_identity_k(3)))
    rings = ring_decomposition(a)
    assert len(rings) == 1 and rings[0].kind == "free"


def test_positivity_after_close_and_reduce(rng):
    for _ in range(100):
        w = random_word("F", rng.randrange(0, 12), rng)
        a = close_annular(word_to_diagram(w))
        validate_positive(a)
        reduce_closed(a)
        validate_positive(a)


def test_cutting_sequence_is_cochain(rng):
    for group, close in (("F", close_annular), ("T", close_cylindrical), ("V", close_abstract)):
        for _ in range(50):
            w = random_word(group, rng.randrange(0, 10), rng)
            a = reduce_closed(close(word_to_diagram(w)))
            seq = cutting_sequence(a)
            counts = {}
            for _pos, carrier in seq:
                counts[carrier] = counts.get(carrier, 0) + 1
            for h, ps in a.cuts.items():
                assert counts.get(h, 0) == len(ps)
            for i, f in enumerate(a.free_loops):
                assert counts.get(("loop", i), 0) == len(f.cuts)
            # every reader of the cut order needs it total: no two cuts tie
            positions = [p for p, _ in seq]
            assert all(p < q for p, q in zip(positions, positions[1:])), group


def _split_merge_cycle(cut_heads):
    """A split whose two outputs feed one merge, whose output feeds the
    split back: every directed cycle runs through one parallel edge and
    the edge back.  ``cut_heads`` get one cut each."""
    s, m = 0, 1
    c = ClosedDiagram(CLOSED)
    c.kind = [SPLIT, MERGE]
    c.conn = [None] * 6
    for tail, head in ((3 * s + 1, 3 * m), (3 * s + 2, 3 * m + 1), (3 * m + 2, 3 * s)):
        c.conn[tail] = head
        c.conn[head] = tail
    c.cuts = {h: [(i,)] for i, h in enumerate(cut_heads)}
    return c


def test_validate_positive_raise_paths():
    with pytest.raises(StructureViolation, match="zero winding"):
        validate_positive(_split_merge_cycle([]))
    with pytest.raises(StructureViolation, match="zero winding"):
        validate_positive(_split_merge_cycle([3]))  # the right edge stays cut-free
    c = _split_merge_cycle([3, 4])
    validate_positive(c)
    c.free_loops.append(FreeLoop([]))
    with pytest.raises(StructureViolation, match="free loop with nonpositive winding"):
        validate_positive(c)

"""The structure clauses on hand-built closed diagrams: every reachable
StructureViolation message, and the order of structure and reduction
errors in each entry point."""

import pytest

from strandgroups.canonical import canonical_annular
from strandgroups.closure import (
    ANNULAR,
    TORAL,
    ClosedDiagram,
    FreeLoop,
    check_cycle_structure,
    ring_decomposition,
)
from strandgroups.errors import NotReduced, StructureViolation
from strandgroups.rewrite import find_redexes
from strandgroups.toral import canonical_toral, cycle_class, dehn_normalize

SPLIT, MERGE = 0, 1


def _diagram(mode, kinds, pairs, cuts=None, long=None, loops=()):
    """A closed diagram from vertex kinds and (endpoint, endpoint) edges."""
    c = ClosedDiagram(mode)
    c.kind = list(kinds)
    c.conn = [0] * (3 * len(kinds))
    for a, b in pairs:
        c.conn[a] = b
        c.conn[b] = a
    c.cuts = {h: list(ps) for h, ps in (cuts or {}).items()}
    c.long = dict(long or {})
    c.free_loops = [FreeLoop(list(ps), lw) for ps, lw in loops]
    return c


def _loops(mode, *loops):
    return _diagram(mode, [], [], loops=loops)


def _bigon_cycle(mode=ANNULAR):
    # split 0 feeds both inputs of merge 1, whose output returns to split
    # 0: one strongly connected component in which vertex 0 has two
    # successors (the type I and type II redexes of a bigon)
    return _diagram(mode, [SPLIT, MERGE], [(1, 3), (2, 4), (5, 0)], cuts={0: [(0,)]})


def _mixed_cycle(mode=ANNULAR):
    # u, v (0, 1) on a cycle through one split and one merge; m, s, m2,
    # z2 (2-5) fill the remaining ports: m and s form a second mixed
    # cycle, m2 a merge loop and z2 a split loop
    pairs = [(0, 5), (1, 3), (2, 7), (4, 17), (6, 10), (8, 9), (11, 13), (12, 14), (15, 16)]
    cuts = {0: [(0,)], 9: [(1,)], 12: [(2,)], 15: [(3,)]}
    return _diagram(mode, [SPLIT, MERGE, MERGE, SPLIT, MERGE, SPLIT], pairs, cuts)


def _split_merge(split_cuts=((0,),), merge_cuts=((1,),), mode=ANNULAR):
    # reduced component: split loop 0 (left output into its own input),
    # merge loop 1 (output into its own left input), split 0's right
    # output into merge 1's right input
    cuts = {0: list(split_cuts), 3: list(merge_cuts)}
    return _diagram(mode, [SPLIT, MERGE], [(1, 0), (5, 3), (2, 4)], cuts)


def _two_split_loops():
    # reduced component: split loops 0 and 1 feed the right inputs of
    # merges 2 and 3, which form one merge loop; the cuts put both split
    # loops radially inside the merge loop
    pairs = [(1, 0), (4, 3), (2, 7), (5, 10), (8, 9), (11, 6)]
    return _diagram(ANNULAR, [SPLIT, SPLIT, MERGE, MERGE], pairs, {0: [(0,)], 3: [(1,)], 9: [(2,)]})


def test_hand_built_reduced_component_passes():
    c = _split_merge()
    assert not find_redexes(c)
    rings = check_cycle_structure(c)
    assert [[cyc.pure for cyc in r.cycles] for r in rings] == [["split", "merge"]]
    assert ring_decomposition(c)[0].vertices == [0, 1]
    assert not find_redexes(_two_split_loops())


# -- check_cycle_structure --------------------------------------------------


def test_cycles_sharing_a_vertex():
    with pytest.raises(
        StructureViolation,
        match=r"^vertex 0 has 2 successors inside one strongly connected component; "
        "directed cycles are not disjoint$",
    ):
        check_cycle_structure(_bigon_cycle())


def test_mixed_cycle_is_named_before_not_reduced():
    # the search from vertex 0 completes the cycle through 2 and 3 first
    c = _mixed_cycle()
    assert find_redexes(c)
    with pytest.raises(StructureViolation, match=r"^cycle through \[2, 3\] mixes splits and merges$"):
        check_cycle_structure(c)


def test_cycle_without_cuts():
    c = _split_merge(merge_cuts=())
    with pytest.raises(StructureViolation, match=r"^cycle through \[1\] has winding 0$"):
        check_cycle_structure(c)


def test_free_loop_without_cuts():
    with pytest.raises(StructureViolation, match="^free loop with nonpositive winding$"):
        check_cycle_structure(_loops(ANNULAR, ([(0,)], 0), ([], 0)))


def test_unreduced_with_sound_cycles_is_not_reduced():
    # the cycle clauses pass (split loops 0 and 3 upstream, merge loops 4
    # and 5 downstream, one cut each), then the reduction gate fires:
    # merge 1 feeds split 2, a type II redex on no cycle
    pairs = [(1, 0), (2, 3), (10, 9), (11, 4), (5, 6), (7, 13), (8, 16), (14, 12), (17, 15)]
    cuts = {0: [(0,)], 9: [(1,)], 12: [(2,)], 15: [(3,)]}
    c = _diagram(ANNULAR, [SPLIT, MERGE, SPLIT, SPLIT, MERGE, MERGE], pairs, cuts)
    assert [r.kind for r in find_redexes(c)] == ["II"]
    with pytest.raises(NotReduced, match=r"^diagram has redex Redex\(kind='II', top=1, bottom=2\)$"):
        check_cycle_structure(c)


def test_split_loops_must_alternate_with_merge_loops():
    with pytest.raises(
        StructureViolation,
        match=r"^consecutive split loops do not alternate in component \[0, 1, 2, 3\]$",
    ):
        check_cycle_structure(_two_split_loops())


def test_annular_cycle_winding_twice():
    c = _split_merge(merge_cuts=((1,), (2,)))
    with pytest.raises(StructureViolation, match="^annular cycle winds 2 times, expected 1$"):
        check_cycle_structure(c)


def test_toral_classes_disagree():
    c = _loops(TORAL, ([(0,), (1,)], 1), ([(2,), (3,), (4,)], 1))
    with pytest.raises(StructureViolation, match=r"^toral cycles disagree: \(3, 1\) vs \(2, 1\)$"):
        check_cycle_structure(c)


def test_toral_class_not_primitive():
    c = _loops(TORAL, ([(0,), (1,)], 0))
    with pytest.raises(StructureViolation, match=r"^toral class \(2,0\) is not primitive$"):
        check_cycle_structure(c)


# -- ring_decomposition and canonical_annular gate first --------------------


def test_ring_decomposition_gates_before_structure():
    for c in (_mixed_cycle(), _bigon_cycle()):
        with pytest.raises(NotReduced, match="^diagram has redex Redex"):
            ring_decomposition(c)


def test_canonical_annular_gates_before_structure():
    for c in (_mixed_cycle(), _bigon_cycle()):
        with pytest.raises(NotReduced, match="^diagram has redex Redex"):
            canonical_annular(c)


def test_canonical_annular_names_zero_winding_cycle():
    with pytest.raises(StructureViolation, match=r"^cycle through \[1\] has winding 0$"):
        canonical_annular(_split_merge(merge_cuts=()))


# -- cycle_class ------------------------------------------------------------


def test_cycle_class_needs_a_cycle():
    with pytest.raises(StructureViolation, match="^toral diagram has no directed cycle$"):
        cycle_class(_loops(TORAL))


def test_cycle_class_needs_one_class():
    c = _loops(TORAL, ([(0,)], 0), ([(1,), (2,)], 1))
    with pytest.raises(StructureViolation, match="^directed cycles carry different classes: "):
        cycle_class(c)


def test_cycle_class_names_shared_vertices():
    with pytest.raises(StructureViolation, match="^vertex 0 has 2 successors"):
        cycle_class(_bigon_cycle(TORAL))


def test_cycle_class_of_hand_built_component():
    c = _split_merge(split_cuts=((0,), (2,)), merge_cuts=((1,), (3,)), mode=TORAL)
    c.long = {0: 1, 3: 1}
    assert cycle_class(c) == (2, 1)


# -- the toral entry points -------------------------------------------------


def test_toral_entry_points_gate_before_structure():
    for c in (_mixed_cycle(TORAL), _bigon_cycle(TORAL)):
        for entry in (canonical_toral, dehn_normalize):
            with pytest.raises(NotReduced):
                entry(c.copy())


def test_canonical_toral_checks_the_class_before_the_rings():
    c = _loops(TORAL, ([(0,)], 0), ([(1,), (2,)], 1))
    with pytest.raises(StructureViolation, match="^directed cycles carry different classes: "):
        canonical_toral(c)
    with pytest.raises(StructureViolation, match=r"^toral class \(2,0\) is not primitive$"):
        canonical_toral(_loops(TORAL, ([(0,), (1,)], 0)))


def test_cut_runs_must_tile_the_torus():
    # two loops of class (2,1) whose cuts do not interleave: two runs
    # where a cyclic ring order around the torus needs four
    c = _loops(TORAL, ([(0,), (1,)], 1), ([(2,), (3,)], 1))
    with pytest.raises(StructureViolation, match="^cut pattern has 2 runs for 2 rings of class n=2$"):
        canonical_toral(c)


def test_ring_pattern_must_repeat():
    # cut owners A B C B A C: six runs, but the second pass reverses A, B
    c = _loops(TORAL, ([(0,), (4,)], 1), ([(1,), (3,)], 1), ([(2,), (5,)], 1))
    with pytest.raises(StructureViolation, match="^ring pattern does not repeat around the torus$"):
        canonical_toral(c)


def test_interleaved_loops_tile_the_torus():
    c = _loops(TORAL, ([(0,), (2,)], 1), ([(1,), (3,)], 1))
    form = canonical_toral(c)
    assert form.blob == b"T2,1#2|F|F"


def test_readers_of_a_reduced_structure_check_the_cycles():
    # ring_decomposition and the toral entry points check the cycle
    # clauses right after the reduction gate, so a cycle without cuts is
    # named (not a failed sort, nor a division by a zero class)
    with pytest.raises(StructureViolation, match=r"^cycle through \[1\] has winding 0$"):
        ring_decomposition(_split_merge(merge_cuts=()))
    t = _split_merge(split_cuts=(), merge_cuts=(), mode=TORAL)
    for entry in (canonical_toral, dehn_normalize):
        with pytest.raises(StructureViolation, match=r"^cycle through \[1\] has winding 0$"):
            entry(t.copy())

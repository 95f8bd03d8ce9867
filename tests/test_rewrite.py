"""Reduction engine: redex discovery, moves, confluence, tree pairs."""

import pytest

from strandgroups.closure import close_abstract, close_annular, close_cylindrical
from strandgroups.diagram import (
    StrandDiagram,
    concatenate,
    encode_square,
    from_tree_pair,
    identity_diagram,
    sink_code,
    source_code,
)
from strandgroups import rewrite, words
from strandgroups.oracle import (
    PrefixMap,
    _posword_indices,
    equals_identity,
    minimize,
    treepair_to_map,
    word_from_map_f,
    word_to_map,
)
from strandgroups.rewrite import ReductionStats, find_redexes, reduce_diagram
from strandgroups.trees import LEAF, TreePair, antichain, comb, tree_from_antichain
from strandgroups.words import parse_word, random_word, reduced_diagram, word_to_diagram

from conftest import count_seams, random_tree_pair, reduce_random, validate, with_relators


def _split_merge(crossed: bool) -> StrandDiagram:
    d = StrandDiagram(1, 1)
    u = d._new_vertex(0)
    v = d._new_vertex(1)
    d._link(source_code(0), 3 * u + 0)
    if crossed:
        d._link(3 * u + 1, 3 * v + 1)
        d._link(3 * u + 2, 3 * v + 0)
    else:
        d._link(3 * u + 1, 3 * v + 0)
        d._link(3 * u + 2, 3 * v + 1)
    d._link(3 * v + 2, sink_code(0))
    return d


def test_find_redexes_trivia():
    assert find_redexes(identity_diagram()) == []
    straight = _split_merge(crossed=False)
    assert [r.kind for r in find_redexes(straight)] == ["I"]
    crossed = _split_merge(crossed=True)
    assert find_redexes(crossed) == []


def test_apply_type1_gives_identity():
    d = _split_merge(crossed=False)
    (r,) = find_redexes(d)
    d.splice(r.kind, r.top, r.bottom)
    validate(d)
    assert d.is_identity()


def test_apply_type2_gives_parallel_strands():
    # merge above split: a (2,2)-diagram, one type II move from two strands
    d = StrandDiagram(2, 2)
    u = d._new_vertex(1)
    v = d._new_vertex(0)
    d._link(source_code(0), 3 * u + 0)
    d._link(source_code(1), 3 * u + 1)
    d._link(3 * u + 2, 3 * v + 0)
    d._link(3 * v + 1, sink_code(0))
    d._link(3 * v + 2, sink_code(1))
    (r,) = find_redexes(d)
    assert r.kind == "II"
    d.splice(r.kind, r.top, r.bottom)
    validate(d)
    assert d.num_vertices() == 0
    assert d.src_conn == [sink_code(0), sink_code(1)]


def test_overlapping_redexes_same_result():
    # type I (u,v) and type II (v,w) share the merge v: either move first,
    # the end result is the same diagram
    def build():
        d = StrandDiagram(1, 2)
        u = d._new_vertex(0)
        v = d._new_vertex(1)
        w = d._new_vertex(0)
        d._link(source_code(0), 3 * u + 0)
        d._link(3 * u + 1, 3 * v + 0)
        d._link(3 * u + 2, 3 * v + 1)
        d._link(3 * v + 2, 3 * w + 0)
        d._link(3 * w + 1, sink_code(0))
        d._link(3 * w + 2, sink_code(1))
        return d

    d = build()
    r1, r2 = find_redexes(d)
    d1 = build()
    d1.splice(r1.kind, r1.top, r1.bottom)
    d2 = build()
    d2.splice(r2.kind, r2.top, r2.bottom)
    assert encode_square(d1) == encode_square(d2)


def test_reduce_trivia():
    d = word_to_diagram(parse_word("x0 x0^-1"))
    reduce_diagram(d)
    assert d.is_identity()


def test_confluence_frontier_vs_random(rng):
    for _ in range(500):
        w = random_word("F", rng.randrange(0, 25), rng)
        d1 = word_to_diagram(w)
        reduce_diagram(d1)
        d2 = word_to_diagram(w)
        reduce_random(d2, rng)
        assert encode_square(d1) == encode_square(d2)
        assert find_redexes(d1) == []


def test_reduce_distributes_over_concatenation(rng):
    for _ in range(100):
        a = word_to_diagram(random_word("F", rng.randrange(0, 12), rng))
        b = word_to_diagram(random_word("F", rng.randrange(0, 12), rng))
        whole = reduce_diagram(concatenate(a.copy(), b.copy()))
        parts = reduce_diagram(concatenate(reduce_diagram(a), reduce_diagram(b)))
        assert encode_square(whole) == encode_square(parts)


def test_worklist_telescoping_bounds(rng):
    for _ in range(50):
        w = random_word("F", rng.randrange(1, 60), rng)
        d = word_to_diagram(w)
        total = len(d.kind)
        stats = ReductionStats()
        reduce_diagram(d, stats=stats)
        removed = sum(r for r, _ in stats.rounds)
        assert removed <= total
        assert stats.examined_total <= 5 * total
        assert stats.moves * 2 == removed


@pytest.mark.parametrize(
    "group, close",
    [("F", close_annular), ("T", lambda d: close_cylindrical(d, 0)), ("V", close_abstract)],
)
def test_closed_worklist_telescoping_bounds(rng, group, close):
    for _ in range(50):
        c = close(word_to_diagram(random_word(group, rng.randrange(1, 60), rng)))
        total = len(c.kind)
        stats = ReductionStats()
        reduce_diagram(c, stats=stats)
        assert find_redexes(c) == []
        removed = sum(r for r, _ in stats.rounds)
        assert removed <= total
        assert stats.examined_total <= 5 * total
        assert stats.moves * 2 == removed


def test_stats_record_the_first_round_on_reduced_input():
    # the first round scans every vertex even when it finds nothing
    d = reduce_diagram(word_to_diagram(parse_word("x0 x1^-1 x0")))
    stats = ReductionStats()
    reduce_diagram(d, stats=stats)
    assert stats.rounds == [(0, len(d.kind))]
    assert stats.examined_total == len(d.kind) > 0 and stats.moves == 0


@pytest.mark.parametrize(
    "group, close",
    [("F", close_annular), ("T", lambda d: close_cylindrical(d, 0)), ("V", close_abstract)],
)
def test_redex_checks_are_linear_in_the_input(monkeypatch, rng, group, close):
    # the sweep examines each vertex once, each cascade root once more and
    # at most two tails per move; the streamed builder one tail per letter,
    # or per block of letters, whose template comes already reduced
    calls = [0]
    redex_at = rewrite._redex_at

    def counted(g, u):
        calls[0] += 1
        return redex_at(g, u)

    monkeypatch.setattr(rewrite, "_redex_at", counted)
    counts = count_seams(monkeypatch)
    k = words._BLOCK[group]
    for _ in range(30):
        w = random_word(group, rng.randrange(0, 400), rng)
        for g in (word_to_diagram(w), close(word_to_diagram(w))):
            n = len(g.kind)
            stats = ReductionStats()
            calls[0] = 0
            reduce_diagram(g, stats=stats)
            assert calls[0] <= n + 3 * stats.moves
            assert find_redexes(g) == []
        # w * v^-1 is the identity, but relators keep it from cancelling freely
        ws = (w, with_relators(w, 1 + len(w.letters) // 40, rng).inverse())
        letters = sum(len(u.letters) for u in ws)
        trace = []
        reduced_diagram(*ws, trace=trace)
        moves, examined = counts[-1]
        assert 0 < examined <= letters + 2 * len(trace) and moves == len(trace)
        reduced_diagram(*ws)
        moves, examined = counts[-1]
        blocks = -(-letters // k)
        assert 0 < examined <= blocks + 3 * moves
        assert 0 < moves <= len(trace)


def test_trace_records_moves():
    d = word_to_diagram(parse_word("x0 x0^-1"))
    trace = []
    reduce_diagram(d, trace=trace)
    assert len(trace) == 4  # eight vertices go in four moves
    assert all(kind in ("I", "II") for kind, _, _ in trace)


def test_word_problem_matches_oracle(rng):
    for _ in range(300):
        w = random_word("F", rng.randrange(0, 16), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        assert d.is_identity() == equals_identity(word_to_map(w))


def test_to_tree_pair_roundtrip(rng):
    # reducing the diagram of a tree pair gives the minimised pair's diagram
    for _ in range(200):
        grp = rng.choice(("F", "V"))
        tp = random_tree_pair(rng, rng.randrange(1, 8), group=grp)
        d = reduce_diagram(from_tree_pair(tp))
        m = minimize(treepair_to_map(tp))
        minimal = TreePair(tree_from_antichain(m.domain), tree_from_antichain(m.range_), m.perm)
        assert encode_square(d) == encode_square(from_tree_pair(minimal))


def test_deep_tree_pairs_roundtrip():
    # x0^n is the pair (left comb, right comb) on n + 2 leaves; 10^4 levels
    # are far past the interpreter's recursion limit
    n = 10**4
    left_comb = LEAF
    for _ in range(n + 1):
        left_comb = (left_comb, LEAF)
    tp = TreePair(left_comb, comb(n + 2), tuple(range(n + 2)))
    d = word_to_diagram(parse_word(" ".join(["x0"] * n)))
    reduce_diagram(d)
    assert encode_square(from_tree_pair(tp)) == encode_square(d)


def test_deep_comb_word_from_map():
    # the identity on the 2,000 leaves of a comb: its leaf addresses are
    # 2,000 deep, past the interpreter's recursion limit
    n = 2000
    leaves = tuple(antichain(comb(n)))
    assert word_from_map_f(PrefixMap(leaves, leaves, tuple(range(n)))).letters == ()
    left_comb = LEAF
    for _ in range(n - 1):
        left_comb = (left_comb, LEAF)
    # x0 rotates a left comb one caret at a time into the right comb
    assert _posword_indices(left_comb) == [0] * (n - 2)


def test_reduction_count_bound(rng):
    for _ in range(50):
        w = random_word("F", rng.randrange(0, 30), rng)
        d = word_to_diagram(w)
        nv = len(d.kind)
        stats = ReductionStats()
        reduce_diagram(d, stats=stats)
        assert stats.moves <= nv // 2

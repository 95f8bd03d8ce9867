"""Reduction engine: redex discovery, moves, confluence, cutting."""

import pytest

from strandgroups.closure import close_abstract, close_annular, close_cylindrical
from strandgroups.diagram import (
    StrandDiagram,
    concatenate,
    from_tree_pair,
    identity_diagram,
    sink_code,
    source_code,
)
from strandgroups.errors import NotReduced, StaleRedex
from strandgroups.oracle import equals_identity, minimize, treepair_to_map, word_to_map
from strandgroups.rewrite import (
    Redex,
    ReductionStats,
    apply_redex,
    encode_square,
    find_redexes,
    reduce_diagram,
    to_tree_pair,
)
from strandgroups.trees import LEAF, TreePair, antichain, comb, identity_pair
from strandgroups.words import GENERATOR_PAIRS, parse_word, random_word, word_to_diagram

from conftest import random_tree_pair


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
    apply_redex(d, r)
    d.validate()
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
    apply_redex(d, r)
    d.validate()
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
    apply_redex(d1, r1)
    d2 = build()
    apply_redex(d2, r2)
    assert encode_square(d1) == encode_square(d2)


def test_stale_redex_raises():
    d = _split_merge(crossed=False)
    (r,) = find_redexes(d)
    apply_redex(d, r)
    with pytest.raises(StaleRedex):
        apply_redex(d, r)
    with pytest.raises(StaleRedex):
        apply_redex(_split_merge(crossed=False), Redex("II", 0, 1))


def test_closed_stale_redex_raises():
    c = close_annular(word_to_diagram(parse_word("x0 x0^-1")))
    r = find_redexes(c)[0]
    apply_redex(c, r)
    with pytest.raises(StaleRedex):
        apply_redex(c, r)


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
        reduce_diagram(d2, order="random", rng=rng)
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
        assert stats.removed_total <= total
        assert stats.examined_total <= 5 * total
        assert stats.moves * 2 == stats.removed_total


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
        assert stats.removed_total <= total
        assert stats.examined_total <= 5 * total
        assert stats.moves * 2 == stats.removed_total


def test_stats_record_the_first_round_on_reduced_input():
    # the first round scans every vertex even when it finds nothing
    d = reduce_diagram(word_to_diagram(parse_word("x0 x1^-1 x0")))
    stats = ReductionStats()
    reduce_diagram(d, stats=stats)
    assert stats.rounds == [(0, len(d.kind))]
    assert stats.examined_total == len(d.kind) > 0 and stats.moves == 0


def test_random_order_refuses_stats(rng):
    d = word_to_diagram(parse_word("x0 x0^-1"))
    with pytest.raises(ValueError):
        reduce_diagram(d, order="random", rng=rng, stats=ReductionStats())


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


def test_to_tree_pair_trivia():
    assert to_tree_pair(identity_diagram()) == identity_pair()
    x0 = from_tree_pair(GENERATOR_PAIRS["x0"])
    assert to_tree_pair(x0) == GENERATOR_PAIRS["x0"]


def test_to_tree_pair_requires_reduced():
    d = word_to_diagram(parse_word("x0 x0^-1"))
    with pytest.raises(NotReduced):
        to_tree_pair(d)


def test_to_tree_pair_roundtrip(rng):
    for _ in range(200):
        grp = rng.choice(("F", "V"))
        tp = random_tree_pair(rng, rng.randrange(1, 8), group=grp)
        d = from_tree_pair(tp)
        reduce_diagram(d)
        got = to_tree_pair(d)
        # cutting a reduced diagram recovers the minimized tree pair
        assert treepair_to_map(got) == minimize(treepair_to_map(tp))


def test_deep_tree_pairs_roundtrip():
    # 5,000 levels, far past the interpreter's recursion limit
    n = 5000
    left_comb = LEAF
    for _ in range(n - 1):
        left_comb = (left_comb, LEAF)
    tp = TreePair(comb(n), left_comb, tuple(range(n)))
    got = to_tree_pair(from_tree_pair(tp))
    # deep tuples cannot be compared with ==, their leaf addresses can
    assert antichain(got.domain) == antichain(tp.domain)
    assert antichain(got.range_) == antichain(tp.range_)
    assert got.bijection == tp.bijection

    d = word_to_diagram(parse_word(" ".join(["x0"] * n)))
    reduce_diagram(d)
    tp = to_tree_pair(d)
    assert tp.n_leaves == n + 2
    assert encode_square(from_tree_pair(tp)) == encode_square(d)


def test_reduction_count_bound(rng):
    for _ in range(50):
        w = random_word("F", rng.randrange(0, 30), rng)
        d = word_to_diagram(w)
        nv = len(d.kind)
        stats = ReductionStats()
        reduce_diagram(d, stats=stats)
        assert stats.moves <= nv // 2

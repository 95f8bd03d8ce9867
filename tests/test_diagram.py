"""Square diagram construction, validation, composition, inversion."""

import pytest

from strandgroups.diagram import (
    OUT_SLOTS,
    StrandDiagram,
    concatenate,
    conjugate_by_vine,
    encode_square,
    from_tree_pair,
    identity_diagram,
    in_traversal_order,
    invert,
    sink_code,
    source_code,
    vine,
)
from strandgroups.errors import ArityMismatch
from strandgroups.rewrite import find_redexes, reduce_diagram
from strandgroups.trees import LEAF, TreePair
from strandgroups.words import (
    GENERATOR_PAIRS,
    Generator,
    generator_diagram,
    random_word,
    reduced_diagram,
    word_to_diagram,
)

from conftest import (
    BoundaryMismatch,
    CyclicGraph,
    DanglingPort,
    identity_pair,
    random_tree_pair,
    validate,
)


def test_identity_diagram():
    d = identity_diagram()
    validate(d)
    assert d.is_identity()
    assert d.m == d.n == 1
    assert d.num_vertices() == 0


def test_validate_detects_cycle():
    d = StrandDiagram(1, 1)
    u = d._new_vertex(1)  # merge
    v = d._new_vertex(0)  # split
    d._link(source_code(0), 3 * u + 0)
    d._link(3 * u + 2, 3 * v + 0)
    d._link(3 * v + 1, sink_code(0))
    d._link(3 * v + 2, 3 * u + 1)  # feeds back up: directed cycle
    with pytest.raises(CyclicGraph):
        validate(d)


def test_validate_detects_self_loop():
    # a merge output wired straight back into its own input
    d = StrandDiagram(1, 1)
    w = d._new_vertex(0)
    u = d._new_vertex(1)
    d._link(source_code(0), 3 * w + 0)
    d._link(3 * w + 1, sink_code(0))
    d._link(3 * w + 2, 3 * u + 0)
    d._link(3 * u + 2, 3 * u + 1)
    with pytest.raises(CyclicGraph):
        validate(d)


def test_validate_detects_dangling_port():
    d = StrandDiagram(1, 1)
    u = d._new_vertex(0)
    d._link(source_code(0), 3 * u + 0)
    d._link(3 * u + 1, sink_code(0))
    # 3u+2 left unconnected
    with pytest.raises(DanglingPort):
        validate(d)


def test_validate_needs_boundary():
    with pytest.raises(BoundaryMismatch):
        validate(StrandDiagram(0, 0))


def test_crossed_split_merge_is_valid():
    # crossings are legal in abstract diagrams; validation only checks ports
    d = StrandDiagram(1, 1)
    u = d._new_vertex(0)
    v = d._new_vertex(1)
    d._link(source_code(0), 3 * u + 0)
    d._link(3 * u + 1, 3 * v + 1)
    d._link(3 * u + 2, 3 * v + 0)
    d._link(3 * v + 2, sink_code(0))
    validate(d)


def test_concatenate_identity():
    d = concatenate(identity_diagram(), identity_diagram())
    validate(d)
    assert d.is_identity()


def test_concatenate_arity_mismatch():
    with pytest.raises(ArityMismatch):
        concatenate(vine(3), vine(2))


def test_concatenate_x0_with_inverse_reduces_to_identity():
    x0 = generator_diagram(Generator("x0", 1))
    d = concatenate(x0, invert(x0))
    assert d.num_vertices() == 8
    reduce_diagram(d)
    assert d.is_identity()


def test_split_then_merge_reduces_to_identity():
    # (1,2) split composed with (2,1) merge: one type I move away from identity
    sp = StrandDiagram(1, 2)
    u = sp._new_vertex(0)
    sp._link(source_code(0), 3 * u + 0)
    sp._link(3 * u + 1, sink_code(0))
    sp._link(3 * u + 2, sink_code(1))
    mg = invert(sp)
    d = concatenate(sp, mg)
    assert d.num_vertices() == 2
    redexes = find_redexes(d)
    assert len(redexes) == 1 and redexes[0].kind == "I"
    reduce_diagram(d)
    assert d.is_identity()


def test_concatenate_associative(rng):
    parts = []
    for _ in range(3):
        tp = random_tree_pair(rng, rng.randrange(1, 6))
        parts.append(from_tree_pair(tp))
    a, b, c = parts
    lhs = concatenate(concatenate(a, b), c)
    rhs = concatenate(a, concatenate(b, c))
    assert lhs.kind == rhs.kind
    assert lhs.conn == rhs.conn
    assert lhs.src_conn == rhs.src_conn
    assert lhs.snk_conn == rhs.snk_conn


def test_invert_identity_and_single_split():
    assert invert(identity_diagram()).is_identity()
    sp = vine(2)
    mg = invert(sp)
    validate(mg)
    assert mg.m == 2 and mg.n == 1
    assert mg.kind.count(1) == 1  # one merge


def test_invert_is_involution(rng):
    for _ in range(40):
        tp = random_tree_pair(rng, rng.randrange(1, 8), group="V")
        d = from_tree_pair(tp)
        dd = invert(invert(d))
        assert dd.kind == d.kind
        assert dd.conn == d.conn
        assert dd.src_conn == d.src_conn
        assert dd.snk_conn == d.snk_conn


def test_product_with_inverse_reduces_to_identity(rng):
    for _ in range(200):
        tp = random_tree_pair(rng, rng.randrange(1, 7))
        d = from_tree_pair(tp)
        r = reduce_diagram(concatenate(d, invert(d)))
        assert r.is_identity()


def test_port_completeness_after_operations(rng):
    for _ in range(30):
        tp = random_tree_pair(rng, rng.randrange(1, 7))
        d = from_tree_pair(tp)
        validate(d)
        e = concatenate(d, invert(d))
        validate(e)
        reduce_diagram(e)
        validate(e)


def test_vine_shapes():
    assert vine(1).is_identity()
    v2 = vine(2)
    assert v2.num_vertices() == 1 and v2.m == 1 and v2.n == 2
    for k in range(1, 11):
        vk = vine(k)
        validate(vk)
        assert vk.num_vertices() == k - 1
        r = reduce_diagram(concatenate(invert(vk), vk))
        assert r.num_vertices() == 0 and r.m == r.n == k


def test_conjugate_by_vine():
    assert reduce_diagram(conjugate_by_vine(identity_diagram())).is_identity()
    id3 = StrandDiagram(3, 3)
    for i in range(3):
        id3._link(source_code(i), sink_code(i))
    assert reduce_diagram(conjugate_by_vine(id3)).is_identity()
    with pytest.raises(ArityMismatch):
        conjugate_by_vine(vine(2))


def test_conjugate_by_vine_two_strand_rotation():
    c2 = StrandDiagram(2, 2)
    c2._link(source_code(0), sink_code(1))
    c2._link(source_code(1), sink_code(0))
    d = reduce_diagram(conjugate_by_vine(c2))
    assert not d.is_identity()
    sq = reduce_diagram(concatenate(d, d))
    assert sq.is_identity()


def test_from_tree_pair_trivia():
    assert from_tree_pair(identity_pair()).is_identity()
    caret = TreePair((LEAF, LEAF), (LEAF, LEAF), (0, 1))
    d = from_tree_pair(caret)
    assert d.num_vertices() == 2
    assert reduce_diagram(d).is_identity()


def test_from_tree_pair_x0_is_reduced():
    d = from_tree_pair(GENERATOR_PAIRS["x0"])
    assert d.num_vertices() == 4
    assert find_redexes(d) == []


def _shift_wraps(d, heads, delta):
    for h in heads:
        w = d.long.get(h, 0) + delta
        if w:
            d.long[h] = w
        else:
            d.long.pop(h, None)


def test_encode_square_sees_wraps_up_to_a_coboundary(rng):
    """The wraps are read up to a coboundary: adding 1 to every edge out
    of an interior vertex and -1 to every edge into it moves no
    source-to-sink path sum and no cycle sum, so the bytes stay; adding 1
    at the source edge moves every source-to-sink path sum, so they change."""
    for _ in range(60):
        w = random_word("T", rng.randrange(1, 16), rng)
        for d in (word_to_diagram(w), reduced_diagram(w)):
            live = list(d.live_vertices())
            if not live:
                continue
            assert d.long is not None
            ref = encode_square(d)
            v = rng.choice(live)
            e = d.copy()
            _shift_wraps(e, [e.conn[3 * v + s] for s in OUT_SLOTS[e.kind[v]]], 1)
            _shift_wraps(e, [3 * v + s for s in range(3) if s not in OUT_SLOTS[e.kind[v]]], -1)
            assert e.long != d.long
            assert encode_square(e) == ref
            e = d.copy()
            _shift_wraps(e, [e.src_conn[0]], 1)
            assert encode_square(e) != ref
            once = in_traversal_order(d)
            twice = in_traversal_order(once)
            for attr in ("kind", "conn", "src_conn", "snk_conn", "long"):
                assert getattr(twice, attr) == getattr(once, attr)

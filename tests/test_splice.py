"""``ClosedDiagram.splice`` on hand-built closed diagrams: the joined
edges, their cut lists in order, their wraps and the free loops born."""

from strandgroups.closure import ANNULAR, TORAL, ClosedDiagram
from strandgroups.diagram import DEAD, MERGE, SPLIT, TYPE_I, TYPE_II


def _closed(mode, kinds, edges):
    """A closed diagram from (tail, head, cuts, wraps) edge records."""
    c = ClosedDiagram(mode)
    c.kind = list(kinds)
    c.conn = [None] * (3 * len(kinds))
    for tail, head, cuts, lw in edges:
        c.conn[tail] = head
        c.conn[head] = tail
        if cuts:
            c.cuts[head] = list(cuts)
        if lw:
            c.long[head] = lw
    return c


def _loops(c):
    return [(f.cuts, f.long) for f in c.free_loops]


def test_type_one_open_strand_keeps_the_left_edge():
    # split u over merge v, fed by a split a and feeding a merge b
    u, v, a, b = 0, 1, 2, 3
    c = _closed(
        TORAL,
        [SPLIT, MERGE, SPLIT, MERGE],
        [
            (3 * a + 1, 3 * u, [(0,)], 1),
            (3 * u + 1, 3 * v, [(1,)], 2),
            (3 * u + 2, 3 * v + 1, [(2,)], 2),
            (3 * v + 2, 3 * b, [(3,)], 0),
            (3 * a + 2, 3 * b + 1, [], 0),
            (3 * b + 2, 3 * a, [(4,)], 0),
        ],
    )
    conn = list(c.conn)
    assert c.splice(TYPE_I, u, v) == [3 * a + 1]
    conn[3 * a + 1] = 3 * b
    conn[3 * b] = 3 * a + 1
    assert c.conn == conn
    assert c.cuts == {3 * a: [(4,)], 3 * b: [(0,), (1,), (3,)]}
    assert c.long == {3 * b: 3}
    assert _loops(c) == []
    assert c.kind == [DEAD, DEAD, SPLIT, MERGE]


def test_type_one_kept_strand_closes_into_a_free_loop():
    # the merge's output feeds the split's input: the bigon and the edge
    # back around the torus are one strand
    u, v = 0, 1
    edges = [
        (3 * u + 1, 3 * v, [(1,), (2,)], 1),
        (3 * u + 2, 3 * v + 1, [(3,), (4,)], 1),
        (3 * v + 2, 3 * u, [(0,)], 2),
    ]
    c = _closed(TORAL, [SPLIT, MERGE], edges)
    conn = list(c.conn)
    assert c.splice(TYPE_I, u, v) == []
    assert c.conn == conn
    assert c.cuts == {} and c.long == {}
    assert _loops(c) == [([(0,), (1,), (2,)], 3)]
    assert c.kind == [DEAD, DEAD]


def test_type_two_lanes_chain_into_one_edge():
    # merge u over split v; v's left output feeds u's right input, so the
    # left lane runs on into the right lane and both become one edge a -> b
    u, v, a, b = 0, 1, 2, 3
    c = _closed(
        TORAL,
        [MERGE, SPLIT, SPLIT, MERGE],
        [
            (3 * a + 1, 3 * u, [(0,)], 0),
            (3 * u + 2, 3 * v, [(1,), (2,)], 1),
            (3 * v + 1, 3 * u + 1, [(3,)], 0),
            (3 * v + 2, 3 * b, [(4,)], 2),
            (3 * a + 2, 3 * b + 1, [], 0),
            (3 * b + 2, 3 * a, [(5,)], 0),
        ],
    )
    conn = list(c.conn)
    assert c.splice(TYPE_II, u, v) == [3 * a + 1]
    conn[3 * a + 1] = 3 * b
    conn[3 * b] = 3 * a + 1
    assert c.conn == conn
    assert c.cuts == {
        3 * a: [(5,)],
        3 * b: [(0,), (1, 0), (2, 0), (3,), (1, 1), (2, 1), (4,)],
    }
    assert c.long == {3 * b: 4}
    assert _loops(c) == []
    assert c.kind == [DEAD, DEAD, SPLIT, MERGE]


def test_type_two_lanes_close_into_one_free_loop():
    # v's left output feeds u's right input and its right output u's left
    u, v = 0, 1
    c = _closed(
        TORAL,
        [MERGE, SPLIT],
        [
            (3 * u + 2, 3 * v, [(1,)], 1),
            (3 * v + 1, 3 * u + 1, [(2,)], 0),
            (3 * v + 2, 3 * u, [(0,)], 1),
        ],
    )
    conn = list(c.conn)
    assert c.splice(TYPE_II, u, v) == []
    assert c.conn == conn
    assert c.cuts == {} and c.long == {}
    assert _loops(c) == [([(0,), (1, 0), (2,), (1, 1)], 3)]


def test_type_two_lanes_close_into_two_free_loops():
    # each output of v feeds the input of u on its own side
    u, v = 0, 1
    c = _closed(
        ANNULAR,
        [MERGE, SPLIT],
        [
            (3 * u + 2, 3 * v, [(1,)], 0),
            (3 * v + 1, 3 * u, [(0,)], 0),
            (3 * v + 2, 3 * u + 1, [(2,)], 0),
        ],
    )
    conn = list(c.conn)
    assert c.splice(TYPE_II, u, v) == []
    assert c.conn == conn
    assert c.cuts == {} and c.long == {}
    assert _loops(c) == [([(0,), (1, 0)], 0), ([(2,), (1, 1)], 0)]

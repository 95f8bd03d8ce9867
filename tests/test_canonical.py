"""Canonical annular forms: determinism, invariance, separation, decorations."""

import itertools
import math
import random

import networkx as nx
import pytest

from strandgroups.canonical import (
    annular_form,
    canonical_annular,
    is_conjugate_f,
    min_encoding,
)
from strandgroups import canonical, toral, vgroup
from strandgroups.closure import (
    check_cycle_structure,
    close_abstract,
    close_annular,
    close_cylindrical,
    reduce_closed,
    ring_decomposition,
    weak_components,
)
from strandgroups.errors import AlphabetError, NotReduced
from strandgroups.oracle import block_word, brute_conj_witness
from strandgroups.rewrite import reduce_diagram
from strandgroups.toral import canonical_toral, dehn_normalize
from strandgroups.vgroup import canonical_abstract
from strandgroups.words import ALPHABETS, Generator, Word, parse_word, random_word, word_to_diagram

from conftest import cohomology_equivalent, cut_cochain, permute_vertices


def _reduced_annular(w):
    d = word_to_diagram(w)
    reduce_diagram(d)
    return reduce_closed(close_annular(d))


def test_single_free_loop_token():
    a = _reduced_annular(Word("F", ()))
    form = canonical_annular(a)
    assert form.blob == b"A1|F"
    assert form.hex() == form.blob.hex()


def test_requires_reduced():
    a = close_annular(word_to_diagram(parse_word("x0 x0^-1")))
    with pytest.raises(NotReduced):
        canonical_annular(a)


def test_definitional_conjugates_collide():
    assert annular_form(parse_word("x1")) == annular_form(parse_word("x0^-1 x1 x0"))


def test_x0_vs_x0_squared_differ():
    # different reduced annular vertex counts, and no bounded witness
    f1 = annular_form(parse_word("x0"))
    f2 = annular_form(parse_word("x0^2"))
    assert f1 != f2
    a1, a2 = (_reduced_annular(parse_word(s)) for s in ("x0", "x0^2"))
    assert a1.num_vertices() != a2.num_vertices()
    assert brute_conj_witness(parse_word("x0"), parse_word("x0^2"), 6) is None


def test_is_conjugate_f_trivia():
    assert is_conjugate_f(Word("F", ()), parse_word("x0 x0^-1"))
    assert not is_conjugate_f(parse_word("x0"), parse_word("x1"))
    with pytest.raises(AlphabetError):
        is_conjugate_f(parse_word("c", "T"), parse_word("c", "T"))


def test_conjugation_invariance(rng):
    for _ in range(300):
        w = random_word("F", rng.randrange(0, 20), rng)
        g = random_word("F", rng.randrange(0, 10), rng)
        assert is_conjugate_f(w, g.inverse() * w * g)


def test_determinism_under_reindexing(rng):
    for _ in range(100):
        w = random_word("F", rng.randrange(0, 15), rng)
        a = _reduced_annular(w)
        b = permute_vertices(a, rng)
        assert canonical_annular(a) == canonical_annular(b)


def _encode_from(c, root, with_weights):
    """The whole traversal encoding from ``root``: no early exit."""
    return "".join(canonical._pieces(c, root, with_weights)).encode()


def _assert_min_encoding_matches_reference(c, roots, with_weights, rng):
    reference = min(_encode_from(c, v, with_weights) for v in roots)
    for _ in range(3):
        order = list(roots)
        rng.shuffle(order)
        assert min_encoding(c, order, with_weights) == reference
    return sum(_encode_from(c, v, with_weights) == reference for v in roots)


def test_min_encoding_matches_reference_on_random_f_rings(rng):
    # innermost-cycle roots as canonical_annular uses them, and every
    # vertex of the component, whose encodings share longer prefixes
    for _ in range(60):
        a = _reduced_annular(random_word("F", rng.randrange(1, 60), rng))
        for ring in check_cycle_structure(a):
            if ring.kind == "component":
                _assert_min_encoding_matches_reference(a, ring.cycles[0].vertices, False, rng)
                _assert_min_encoding_matches_reference(a, ring.vertices, False, rng)


def test_min_encoding_matches_reference_on_t_units_with_weights(rng):
    for _ in range(60):
        w = random_word("T", rng.randrange(1, 40), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        t = dehn_normalize(reduce_closed(close_cylindrical(d, 0)))
        for ring in check_cycle_structure(t):
            if ring.kind == "component":
                roots = [v for cyc in ring.cycles for v in cyc.vertices]
                _assert_min_encoding_matches_reference(t, roots, True, rng)


def _closed_power(group, w, k):
    """The reduced closed diagram of w^k (Dehn-normalized for T)."""
    d = word_to_diagram(Word(group, w.letters * k))
    reduce_diagram(d)
    if group == "F":
        return reduce_closed(close_annular(d))
    if group == "T":
        return dehn_normalize(reduce_closed(close_cylindrical(d, 0)))
    return reduce_closed(close_abstract(d))


def test_min_encoding_matches_reference_on_symmetric_powers(rng):
    # w^k keeps k roots tied at the minimum; the orbit skipping must
    # leave the bytes as the reference minimum over every root
    for group in "FT":
        for _ in range(15):
            w = random_word(group, rng.randrange(2, 8), rng)
            k = rng.randrange(2, 6)
            c = _closed_power(group, w, k)
            for ring in check_cycle_structure(c):
                if ring.kind != "component":
                    continue
                if group == "F":
                    roots = ring.cycles[0].vertices
                else:
                    roots = [v for cyc in ring.cycles for v in cyc.vertices]
                ties = _assert_min_encoding_matches_reference(c, roots, group == "T", rng)
                assert ties >= 2, (group, w, k)


def _positive_word(group, n, rng):
    return Word(group, tuple(Generator(rng.choice(ALPHABETS[group]), 1) for _ in range(n)))


_FORMS = {"F": canonical_annular, "T": canonical_toral, "V": canonical_abstract}


def test_min_encoding_matches_reference_on_v_powers(rng):
    # every component vertex is a root: several classes of roots, each an
    # orbit, so shuffled orders also make a tied least give way to a
    # smaller one and reuse the automorphisms found before it
    tied = 0
    for _ in range(15):
        w = random_word("V", rng.randrange(2, 8), rng)
        c = _closed_power("V", w, rng.randrange(2, 6))
        for comp in weak_components(c):
            tied = max(tied, _assert_min_encoding_matches_reference(c, comp, True, rng))
    assert tied >= 2
    # roots of 8 alike components tie through isomorphisms between them
    blocks = _closed_power("V", block_word(3, None, "V"), 1)
    roots = list(blocks.live_vertices())
    assert _assert_min_encoding_matches_reference(blocks, roots, True, rng) == 8


def _record_finished_traversals(monkeypatch):
    """Wrap ``_pieces``: every traversal read to its end appends its
    (root, bytes, discovery order) to the returned list."""
    finished = []
    pieces = canonical._pieces

    def recorded(c, root, with_weights, queue=None):
        queue = [] if queue is None else queue
        read = []
        for piece in pieces(c, root, with_weights, queue):
            read.append(piece)
            yield piece
        finished.append((root, "".join(read).encode(), queue))

    monkeypatch.setattr(canonical, "_pieces", recorded)
    return finished


@pytest.mark.parametrize("group", "FTV")
def test_ties_give_automorphisms(monkeypatch, group):
    # a tie pairs two discovery orders; the map must preserve kinds and
    # ports, and (T and V encode with weights) carry each cochain to a
    # cohomologous one
    rng = random.Random(f"tie-automorphisms:{group}")
    finished = _record_finished_traversals(monkeypatch)
    sigmas = 0
    for _ in range(8):
        w = _positive_word(group, rng.randrange(2, 7), rng)
        c = _closed_power(group, w, rng.randrange(2, 9))
        finished.clear()
        _FORMS[group](c)
        cochains = [cut_cochain(c)]
        if group == "T":
            cochains.append({h: c.long.get(h, 0) for _tail, h in c.edges()})
        for (r1, b1, q1), (r2, b2, q2) in itertools.combinations(finished, 2):
            if b1 != b2 or set(q1) != set(q2):
                continue
            sigma = dict(zip(q1, q2))
            assert len(sigma) == len(q1) == len(set(q2)) and sigma[r1] == r2
            for v, u in sigma.items():
                assert c.kind[u] == c.kind[v]
                for s in range(3):
                    peer = c.conn[3 * v + s]
                    assert c.conn[3 * u + s] == 3 * sigma[peer // 3] + peer % 3
            if group != "F":
                for cochain in cochains:
                    moved = dict(cochain)
                    for h in cochain:
                        if isinstance(h, int) and h // 3 in sigma:
                            moved[h] = cochain[3 * sigma[h // 3] + h % 3]
                    assert cohomology_equivalent(c, cochain, moved)
            sigmas += 1
    assert sigmas >= 8


@pytest.mark.parametrize("group", "FTV")
@pytest.mark.parametrize("k", [8, 16, 32])
def test_ties_cost_logarithmic_traversals(monkeypatch, group, k):
    # each tie at least doubles the group of automorphisms found; in the
    # order the forms pass their roots no least that tied is displaced
    # here, so t tied roots cost at most 1 + log2(t) traversals read to
    # the end
    finished = _record_finished_traversals(monkeypatch)
    calls = []
    least = canonical.min_encoding

    def counted(c, roots, with_weights=False):
        roots = list(roots)
        start = len(finished)
        out = least(c, roots, with_weights)
        traversals = len(finished) - start
        ties = sum(_encode_from(c, v, with_weights) == out for v in roots)
        calls.append((traversals, ties))
        return out

    for module in (canonical, toral, vgroup):
        monkeypatch.setattr(module, "min_encoding", counted)
    rng = random.Random(f"tie-traversals:{group}")
    for n in (3, 5):
        _FORMS[group](_closed_power(group, _positive_word(group, n, rng), k))
    assert max(ties for _, ties in calls) >= k
    for traversals, ties in calls:
        assert traversals <= 1 + math.log2(ties), (traversals, ties)


@pytest.mark.parametrize(
    "streams",
    [
        # token ",1" < ",12", but byte ";" > "2": the second stream is less
        {"a": ["S", ";v1.2:0,1", ";S"], "b": ["S", ";v1.2:0,12", ";S"]},
        # at the end of the stream the shorter token is a proper prefix: less
        {"a": ["S", ";v1.2:0,1"], "b": ["S", ";v1.2:0,12"]},
        # a mismatch that a piece boundary splits, and a tie
        {"a": ["M", ";+0", ";v3.1"], "b": ["M;", "+0;v", "2.1"], "c": ["M", ";+0", ";v3.1"]},
        # a paused winner is read further by the next root
        {"a": ["S", ";+1", ";+2", ";v1.0"], "b": ["S", ";+0", ";+2", ";v1.1"], "c": ["S", ";+0", ";+2", ";v1.0"]},
    ],
)
def test_min_encoding_orders_bytes_not_tokens(monkeypatch, streams):
    def fake_pieces(c, root, with_weights, queue):
        # the stream names are the vertices and equal streams are the
        # automorphic ones: the discovery order lists the other names by
        # stream, so pairing the orders of a tie swaps the two roots
        queue.append(root)
        others = sorted((v for v in streams if v != root), key=lambda v: ("".join(streams[v]), v))
        queue.extend(others)
        return iter(streams[root])

    monkeypatch.setattr(canonical, "_pieces", fake_pieces)
    reference = min("".join(pieces) for pieces in streams.values()).encode()
    for order in itertools.permutations(streams):
        assert min_encoding(None, order) == reference


def test_min_encoding_needs_a_root():
    with pytest.raises(ValueError):
        min_encoding(_reduced_annular(parse_word("x0")), [])


# -- decoration: a plain-graph reference for the canonical form ---------------

_GADGET_LEN = {(0, 0): 1, (0, 1): 2, (0, 2): 3, (1, 0): 4, (1, 1): 5, (1, 2): 6}
_MARKER_LEN = 8
_HOLE_LEN = 9


def decorate(a):
    """Plain undirected graph whose isomorphism type captures the
    isotopy class of a reduced annular diagram.

    Each edge is subdivided in three; pendant paths of distinct lengths
    around every split and merge encode edge directions and the port
    order; a chain of ring markers anchored at a hole vertex encodes
    the radial order.  Returns (nodes, edges) with hashable node names,
    ready for any third-party graph-isomorphism tool.
    """
    rings = ring_decomposition(a)
    nodes = []
    edges = []

    def pendant(base, length, tag):
        prev = base
        for t in range(length):
            nd = (tag, base, t)
            nodes.append(nd)
            edges.append((prev, nd))
            prev = nd

    for v in a.live_vertices():
        nodes.append(("v", v))
    for tail, head in a.edges():
        e0 = ("e", head, 0)
        e1 = ("e", head, 1)
        nodes.extend((e0, e1))
        edges.append((("v", tail // 3), e0))
        edges.append((e0, e1))
        edges.append((e1, ("v", head // 3)))
        pendant(e0, _GADGET_LEN[(a.kind[tail // 3], tail % 3)], "g")
        pendant(e1, _GADGET_LEN[(a.kind[head // 3], head % 3)], "g")
    for i, _loop in enumerate(a.free_loops):
        ring_nodes = [("l", i, t) for t in range(3)]
        nodes.extend(ring_nodes)
        edges.extend(
            (ring_nodes[t], ring_nodes[(t + 1) % 3]) for t in range(3)
        )

    hole = ("H",)
    nodes.append(hole)
    pendant(hole, _HOLE_LEN, "h")
    prev = hole
    loop_index = {id(f): i for i, f in enumerate(a.free_loops)}
    for ring in rings:
        marker = ("M", ring.radial_index)
        nodes.append(marker)
        edges.append((prev, marker))
        pendant(marker, _MARKER_LEN, "m")
        if ring.kind == "free":
            li = loop_index[id(ring.loop)]
            edges.append((marker, ("l", li, 0)))
            edges.append((marker, ("l", li, 1)))
            edges.append((marker, ("l", li, 2)))
        else:
            for h in ring.cycles[0].heads:
                edges.append((marker, ("e", h, 0)))
        prev = marker
    return nodes, edges


def test_decorate_free_loop_is_triangle():
    a = _reduced_annular(Word("F", ()))
    nodes, edges = decorate(a)
    g = nx.Graph(edges)
    loop_nodes = [n for n in g if n[0] == "l"]
    assert len(loop_nodes) == 3
    assert nx.cycle_basis(g.subgraph(loop_nodes))


def test_decorate_counts():
    a = _reduced_annular(parse_word("x0"))
    nodes, edges = decorate(a)
    n_vertices = a.num_vertices()
    n_edges = sum(1 for _ in a.edges())
    plain = [n for n in nodes if n[0] == "v"]
    subdiv = [n for n in nodes if n[0] == "e"]
    assert len(plain) == n_vertices
    assert len(subdiv) == 2 * n_edges


def test_decorate_iso_iff_canonical_equal(rng):
    pool = []
    for _ in range(40):
        w = random_word("F", rng.randrange(0, 5), rng)
        a = _reduced_annular(w)
        pool.append((canonical_annular(a), decorate(a)))
    checked = 0
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if checked >= 100:
                return
            (f1, (n1, e1)) = pool[i]
            (f2, (n2, e2)) = pool[j]
            g1 = nx.Graph(e1)
            g1.add_nodes_from(n1)
            g2 = nx.Graph(e2)
            g2.add_nodes_from(n2)
            same = nx.is_isomorphic(g1, g2)
            assert same == (f1 == f2), (i, j)
            checked += 1


def test_verdicts_match_witness_search_both_ways(rng):
    # random (not constructed) pairs: a short witness forces a canonical
    # collision, and at these lengths every collision has a short witness
    for _ in range(50):
        w1 = random_word("F", rng.randrange(0, 7), rng)
        w2 = random_word("F", rng.randrange(0, 7), rng)
        wit = brute_conj_witness(w1, w2, 8)
        conj = is_conjugate_f(w1, w2)
        if wit is not None:
            assert conj
        if conj:
            assert wit is not None


def test_mirror_pairs_not_identified():
    # x0 and its inverse have mirror annular diagrams; the hole marker in
    # the decoration and the innermost-root rule in the encoding must both
    # keep them apart
    f1, f2 = annular_form(parse_word("x0")), annular_form(parse_word("x0^-1"))
    assert f1 != f2
    n1, e1 = decorate(_reduced_annular(parse_word("x0")))
    n2, e2 = decorate(_reduced_annular(parse_word("x0^-1")))
    assert not nx.is_isomorphic(nx.Graph(e1), nx.Graph(e2))


def test_structure_is_computed_once_per_canonical_form(monkeypatch):
    # one structure pass and one reduction gate per F and T form; the V
    # form needs weak components only, so it runs no cycle search
    from strandgroups import closure, rewrite, toral

    passes = []
    scans = []
    init = closure.Structure.__init__
    scan = rewrite.find_redexes

    def counted_pass(self, c):
        passes.append(c)
        init(self, c)

    def counted_scan(g):
        scans.append(g)
        return scan(g)

    monkeypatch.setattr(closure.Structure, "__init__", counted_pass)
    for module in (closure, canonical, toral, vgroup):
        monkeypatch.setattr(module, "find_redexes", counted_scan, raising=False)
    w = parse_word("x0 x1^-1 x0 x1 x1 x0^-1 x1")
    canonical_annular(_reduced_annular(w))
    assert (len(passes), len(scans)) == (1, 1)
    passes.clear()
    scans.clear()
    d = word_to_diagram(Word("T", w.letters + (Generator("c", 1),)))
    reduce_diagram(d)
    toral.canonical_toral(reduce_closed(close_cylindrical(d, 0)))
    assert (len(passes), len(scans)) == (1, 1)
    passes.clear()
    scans.clear()
    d = word_to_diagram(Word("V", w.letters + (Generator("pi0", 1),)))
    reduce_diagram(d)
    canonical_abstract(reduce_closed(close_abstract(d)))
    assert (len(passes), len(scans)) == (0, 0)

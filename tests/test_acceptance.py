"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines.  Criteria 1-4 register every reduced annular diagram they
build; criterion 5 replays the structure theorem over all of them.
"""

import itertools
import random
import time
from fractions import Fraction

from strandgroups.canonical import canonical_annular, is_conjugate_f
from strandgroups.closure import (
    CLOSED,
    ClosedDiagram,
    check_cycle_structure,
    close_annular,
    close_cylindrical,
    reduce_closed,
)
from strandgroups.oracle import brute_conj_witness, equals_identity, word_to_map
from strandgroups.rewrite import encode_square, reduce_diagram
from strandgroups.toral import canonical_toral, dehn_twist, is_conjugate_t, rotation_number, torsion_witness
from strandgroups.vgroup import cohomology_equivalent, is_conjugate_v
from strandgroups.words import Generator, Word, parse_word, random_word, word_to_diagram

_ANNULAR_REGISTRY = []


def _register_annular(w: Word):
    d = word_to_diagram(w)
    reduce_diagram(d)
    a = reduce_closed(close_annular(d))
    _ANNULAR_REGISTRY.append(a)
    return a


def test_criterion_1_unique_normal_form():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(500):
        w = random_word("F", rng.randrange(0, 41), rng)
        d1 = word_to_diagram(w)
        reduce_diagram(d1, order="frontier")
        d2 = word_to_diagram(w)
        reduce_diagram(d2, order="random", rng=rng)
        assert encode_square(d1) == encode_square(d2)
        _register_annular(w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (unique normal form): PASS — 500 words, {elapsed:.2f}s")


def test_criterion_2_word_problem_oracle_equivalence():
    rng = random.Random(102)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        w = random_word("F", rng.randrange(0, 31), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        if d.is_identity() != equals_identity(word_to_map(w)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 (word problem vs oracle): PASS — 1000 words, {elapsed:.2f}s")


def test_criterion_3_conjugacy_soundness():
    rng = random.Random(103)
    for _ in range(500):
        w = random_word("F", rng.randrange(0, 21), rng)
        g = random_word("F", rng.randrange(0, 11), rng)
        wg = g.inverse() * w * g
        assert is_conjugate_f(w, wg)
        _register_annular(w)
        _register_annular(wg)
    for _ in range(300):
        w = random_word("T", rng.randrange(0, 21), rng)
        g = random_word("T", rng.randrange(0, 11), rng)
        assert is_conjugate_t(w, g.inverse() * w * g)
    for _ in range(300):
        w = random_word("V", rng.randrange(0, 21), rng)
        g = random_word("V", rng.randrange(0, 11), rng)
        assert is_conjugate_v(w, g.inverse() * w * g)
    print("ACCEPTANCE 3 (conjugacy soundness): PASS — 500 F + 300 T + 300 V pairs")


def test_criterion_4_small_scale_completeness():
    rng = random.Random(104)
    t0 = time.perf_counter()
    gens = [Generator(s, e) for s in ("x0", "x1") for e in (1, -1)]
    classes = {}
    for length in range(7):
        for combo in itertools.product(gens, repeat=length):
            w = Word("F", combo)
            a = _register_annular(w)
            classes.setdefault(canonical_annular(a).blob, []).append(w)
    assert sum(len(v) for v in classes.values()) == 5461

    rich = [v for v in classes.values() if len(v) > 1]
    for _ in range(50):
        group = rng.choice(rich)
        w1, w2 = rng.sample(group, 2)
        assert brute_conj_witness(w1, w2, 12) is not None, (w1, w2)

    keys = list(classes)
    for _ in range(50):
        k1, k2 = rng.sample(keys, 2)
        w1 = rng.choice(classes[k1])
        w2 = rng.choice(classes[k2])
        assert brute_conj_witness(w1, w2, 8) is None, (w1, w2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 4 (small-scale completeness): PASS — {len(classes)} classes, "
        f"50+50 sampled pairs, {elapsed:.1f}s"
    )


def test_criterion_5_structure_theorem():
    assert _ANNULAR_REGISTRY, "criteria 1-4 must run first"
    for a in _ANNULAR_REGISTRY:
        check_cycle_structure(a)
    print(
        f"ACCEPTANCE 5 (structure theorem): PASS — "
        f"{len(_ANNULAR_REGISTRY)} reduced annular diagrams checked"
    )


def test_criterion_6_rotation_numbers():
    for n in range(1, 9):
        for k in range(1, n):
            assert rotation_number(torsion_witness(n, k)) == Fraction(k, n)
        # the n-th power is the identity: its toral diagram is one (1,0) loop
        wn = torsion_witness(n, n)
        d = word_to_diagram(Word("T", wn.letters))
        reduce_diagram(d)
        t = reduce_closed(close_cylindrical(d, 0))
        assert t.num_vertices() == 0
        assert [(f.winding, f.long) for f in t.free_loops] == [(1, 0)]
    print("ACCEPTANCE 6 (rotation numbers): PASS — all k/n with 1 <= k < n <= 8")


def test_criterion_7_dehn_twist_convention():
    rng = random.Random(107)
    for _ in range(100):
        w = random_word("T", rng.randrange(0, 13), rng)
        d = word_to_diagram(w)
        reduce_diagram(d)
        t1 = reduce_closed(close_cylindrical(d, 0))
        t2 = dehn_twist(t1.copy(), 1)
        f1, f2 = canonical_toral(t1), canonical_toral(t2)
        assert f1.blob == f2.blob and f1 == f2
    print("ACCEPTANCE 7 (Dehn-twist convention): PASS — 100 twisted pairs byte-identical")


def _enumerate_port_graphs():
    """All connected closed port-graphs with <= 8 edges (so <= 4 vertices)."""
    graphs = []
    # one free loop, no vertices
    loop = ClosedDiagram(CLOSED)
    from strandgroups.closure import FreeLoop

    loop.free_loops = [FreeLoop([(0,)], 0)]
    graphs.append(loop)

    for nv, splits in ((2, 1), (4, 2)):
        for split_set in itertools.combinations(range(nv), splits):
            kinds = [0 if v in split_set else 1 for v in range(nv)]
            tails = []
            heads = []
            for v in range(nv):
                if kinds[v] == 0:
                    tails += [3 * v + 1, 3 * v + 2]
                    heads += [3 * v + 0]
                else:
                    tails += [3 * v + 2]
                    heads += [3 * v + 0, 3 * v + 1]
            for perm in itertools.permutations(heads):
                c = ClosedDiagram(CLOSED)
                c.kind = list(kinds)
                c.conn = [0] * (3 * nv)
                for t_ep, h_ep in zip(tails, perm):
                    c.conn[t_ep] = h_ep
                    c.conn[h_ep] = t_ep
                from strandgroups.closure import weak_components

                if len(weak_components(c)) == 1:
                    graphs.append(c)
    return graphs


def _brute_coboundary(c: ClosedDiagram, w1: dict, w2: dict) -> bool:
    """Enumerate vertex potentials over a bounded box.

    Any solution satisfies |f(v)| <= (V-1) * max|d| relative to the base
    vertex, so the box search is exhaustive for connected graphs.
    """
    for i in range(len(c.free_loops)):
        if w1.get(("loop", i), 0) != w2.get(("loop", i), 0):
            return False
    verts = list(c.live_vertices())
    if not verts:
        return True
    edges = list(c.edges())
    d = {h: w1.get(h, 0) - w2.get(h, 0) for _t, h in edges}
    bound = (len(verts) - 1) * max((abs(x) for x in d.values()), default=0)
    base, rest = verts[0], verts[1:]
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(rest)):
        f = {base: 0}
        f.update(zip(rest, combo))
        if all(d[h] == f[h // 3] - f[t // 3] for t, h in edges):
            return True
    return False


def test_criterion_8_cohomology_vs_brute_force():
    rng = random.Random(108)
    graphs = _enumerate_port_graphs()
    t0 = time.perf_counter()
    checked = 0
    for c in graphs:
        carriers = [h for _t, h in c.edges()] + [("loop", i) for i in range(len(c.free_loops))]
        for _ in range(3):
            w1 = {k: rng.randrange(0, 2) for k in carriers}
            w2 = {k: rng.randrange(0, 2) for k in carriers}
            fast = cohomology_equivalent(c, w1, w2)
            slow = _brute_coboundary(c, w1, w2)
            assert fast == slow, (c.kind, c.conn, w1, w2)
            checked += 1
        # a genuine coboundary must always be recognized
        f = {v: rng.randrange(-1, 2) for v in c.live_vertices()}
        w1 = {k: rng.randrange(0, 2) for k in carriers}
        w2 = dict(w1)
        for t_ep, h in c.edges():
            w2[h] += f[h // 3] - f[t_ep // 3]
        assert cohomology_equivalent(c, w1, w2)
        assert _brute_coboundary(c, w1, w2)
        checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 8 (cohomology vs brute force): PASS — {len(graphs)} graphs, "
        f"{checked} cochain pairs, {elapsed:.1f}s"
    )


def test_criterion_9_empirical_linear_reduction():
    import gc

    rng = random.Random(42)
    reduce_diagram(word_to_diagram(random_word("F", 100, rng)))  # warm templates
    times = {}
    gc.disable()
    try:
        # single runs at millisecond scale are noise-dominated; use the
        # same repetition count everywhere (per-step minimum) so decade
        # ratios compare like against like
        for n in (10**3, 10**4, 10**5, 10**6):
            samples = []
            for _ in range(3):
                w = random_word("F", n, rng)
                t0 = time.perf_counter()
                d = word_to_diagram(w)
                t1 = time.perf_counter()
                reduce_diagram(d)
                t2 = time.perf_counter()
                samples.append((t1 - t0, t2 - t1, t2 - t0))
            times[n] = tuple(min(s[i] for s in samples) for i in range(3))
    finally:
        gc.enable()
    for small, big in ((10**3, 10**4), (10**4, 10**5), (10**5, 10**6)):
        for step in range(3):
            ratio = times[big][step] / max(times[small][step], 1e-9)
            assert ratio <= 15.0, f"step {step}: time({big})/time({small}) = {ratio:.1f}"
    total = times[10**6][2]
    assert total < 60.0, f"N=10^6 took {total:.1f}s"
    rows = ", ".join(f"10^{len(str(n)) - 1}: {t[2]:.2f}s" for n, t in times.items())
    print(f"ACCEPTANCE 9 (linear reduction): PASS — {rows}")


def _t(w: Word) -> Word:
    return Word("T", w.letters)


def test_criterion_10_cross_pipeline_agreement():
    # F < T < V, so conjugacy in F implies conjugacy in T, which implies
    # conjugacy in V; the converses fail (see the regression below), so
    # the three verdicts need not agree
    rng = random.Random(110)
    t_only = 0
    for i in range(300):
        if i % 2 == 0:
            w1 = random_word("F", rng.randrange(0, 15), rng)
            g = random_word("F", rng.randrange(0, 8), rng)
            w2 = g.inverse() * w1 * g
        else:
            w1 = random_word("F", rng.randrange(8, 17), rng)
            w2 = random_word("F", rng.randrange(8, 17), rng)
        vf = is_conjugate_f(w1, w2)
        vt = is_conjugate_t(w1, w2)
        vv = is_conjugate_v(w1, w2)
        if vf:
            assert vt, (i, "F-conjugate but not T-conjugate")
        if vt:
            assert vv, (i, "T-conjugate but not V-conjugate")
        if vt and not vf:
            assert brute_conj_witness(_t(w1), _t(w2), 5) is not None, (i, "T verdict without witness")
            t_only += 1
    print(f"ACCEPTANCE 10 (cross-pipeline implications): PASS — 300 F-word pairs, {t_only} conjugate in T only")


def test_criterion_10_regression_conjugate_in_t_not_in_f():
    # x0 x0 x1^-1 x0^-1 acts as x0 on [0,1/2]; rotating by 1/2 (the T
    # conjugator x0 c^-1 x0) carries it to x1, which acts on [1/2,1].  In
    # F, conjugation keeps the slope at 0, which is 2 for the first and
    # 1 for x1
    w1 = parse_word("x0 x0 x1^-1 x0^-1")
    w2 = parse_word("x1")
    assert not is_conjugate_f(w1, w2)
    assert is_conjugate_t(w1, w2)
    assert is_conjugate_v(w1, w2)
    witness = brute_conj_witness(_t(w1), _t(w2), 4)
    assert witness is not None
    assert equals_identity(word_to_map(witness.inverse() * _t(w1) * witness * _t(w2).inverse()))

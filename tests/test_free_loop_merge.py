"""The type III sweep of ``closure._merge_free_loops`` against the merge
it replaced, which re-sorted the whole cut order after every merge."""

import random

from strandgroups.closure import ANNULAR, TORAL, ClosedDiagram, FreeLoop, _merge_free_loops


def _merge_by_restart(c: ClosedDiagram) -> None:
    """Reference: drop the later loop of the first mergeable neighbour pair
    in the global cut order, then rebuild the order and start again."""
    changed = True
    while changed:
        changed = False
        loops = c.free_loops
        if len(loops) < 2:
            break
        marks = []
        for h, ps in c.cuts.items():
            for p in ps:
                marks.append((p, None))
        for li, f in enumerate(loops):
            for p in f.cuts:
                marks.append((p, li))
        marks.sort(key=lambda x: x[0])
        nm = len(marks)
        for idx in range(nm if c.mode == TORAL else nm - 1):
            (p1, o1) = marks[idx]
            (p2, o2) = marks[(idx + 1) % nm]
            if o1 is None or o2 is None or o1 == o2:
                continue
            a, b = loops[o1], loops[o2]
            if (len(a.cuts), a.long) != (len(b.cuts), b.long):
                continue
            if c.mode == ANNULAR and len(a.cuts) != 1:
                continue
            keep, drop = (o1, o2) if o1 < o2 else (o2, o1)
            c.free_loops = [f for k, f in enumerate(loops) if k != drop]
            changed = True
            break


def _random_loop_set(rng, mode):
    """Free loops (one to three cuts each in toral mode) and edges whose
    cuts interleave with theirs, at distinct positions of mixed length."""
    n_loops = rng.randrange(0, 9)
    sizes = [rng.choice((1, 1, 1, 2)) if mode == ANNULAR else rng.randrange(1, 4) for _ in range(n_loops)]
    longs = [rng.randrange(0, 2) for _ in range(n_loops)]
    wrap = n_loops >= 2 and rng.random() < 0.25
    if wrap:
        sizes[1], longs[1] = sizes[0], longs[0]
    owners = [i for i, k in enumerate(sizes) for _ in range(k)]
    owners += [-1 - e for e in range(rng.randrange(0, 4)) for _ in range(rng.randrange(1, 4))]
    rng.shuffle(owners)
    if wrap:
        # the first and the last cut on two loops of one class: the wrap pair
        owners.remove(0)
        owners.remove(1)
        owners = [0, *owners, 1]
    picks = sorted(rng.sample(range(4 * len(owners) + 8), len(owners)))
    positions = [(x // 4,) if x % 4 == 0 else (x // 4, x % 4) for x in picks]
    c = ClosedDiagram(mode)
    c.free_loops = [FreeLoop([], lw) for lw in longs]
    for p, o in zip(positions, owners):
        if o >= 0:
            c.free_loops[o].cuts.append(p)
        else:
            c.cuts.setdefault(3 * (-1 - o), []).append(p)
    for ps in [f.cuts for f in c.free_loops] + list(c.cuts.values()):
        rng.shuffle(ps)
    return c


def _state(c):
    return [(f.cuts, f.long) for f in c.free_loops]


def test_sweep_matches_restarting_merge():
    rng = random.Random(33)
    merged = 0
    for i in range(12000):
        mode = (ANNULAR, TORAL)[i % 2]
        c = _random_loop_set(rng, mode)
        before = len(c.free_loops)
        ref = ClosedDiagram(mode)
        ref.cuts = {h: list(ps) for h, ps in c.cuts.items()}
        ref.free_loops = list(c.free_loops)
        _merge_by_restart(ref)
        _merge_free_loops(c)
        assert _state(c) == _state(ref), (i, mode)
        merged += len(c.free_loops) < before
    assert merged > 1000


def test_wrap_pair_merges_on_the_torus_only():
    # loop 0 at (0,), an edge's cut at (1,), loop 1 at (2,): the loops are
    # neighbours only across the wrap from the last cut to the first
    for mode, kept in ((TORAL, 1), (ANNULAR, 2)):
        c = ClosedDiagram(mode)
        c.free_loops = [FreeLoop([(0,)]), FreeLoop([(2,)])]
        c.cuts = {0: [(1,)]}
        _merge_free_loops(c)
        assert [f.cuts for f in c.free_loops] == [[(0,)], [(2,)]][:kept]

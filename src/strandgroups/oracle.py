"""Exact prefix-map arithmetic: the independent oracle for F, T and V.

An element is a bijection of the binary Cantor set given by two
complete prefix antichains and a leaf bijection.  All arithmetic is
exact string manipulation; nothing here touches the diagram engine, so
agreement between the two pipelines is meaningful evidence.

Also provides word reconstruction: any F map has a normal-form word
over {x0, x1}; any T map factors as a . c . b with a, b in F, obtained
by moving the image of the point 0 back to 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

from .errors import AlphabetError
from .trees import TreePair, antichain, comb, num_leaves, tree_from_antichain, tree_with_cut
from .words import ALPHABETS, GENERATOR_PAIRS, Generator, Word


@dataclass(frozen=True)
class PrefixMap:
    """Bijection sending domain leaf i to range leaf perm[i] (plus suffix)."""

    domain: tuple[str, ...]
    range_: tuple[str, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        assert len(self.domain) == len(self.range_) == len(self.perm)


IDENTITY_MAP = PrefixMap(("",), ("",), (0,))


def identity_map() -> PrefixMap:
    return IDENTITY_MAP


def treepair_to_map(tp: TreePair) -> PrefixMap:
    return PrefixMap(tuple(antichain(tp.domain)), tuple(antichain(tp.range_)), tp.bijection)


def minimize(m: PrefixMap) -> PrefixMap:
    """Cancel caret pairs: sibling domain leaves sent order-preservingly
    to sibling range leaves collapse to their parents."""
    dom = list(m.domain)
    rng = list(m.range_)
    perm = list(m.perm)
    changed = True
    while changed:
        changed = False
        for i in range(len(dom) - 1):
            d0, d1 = dom[i], dom[i + 1]
            if not (d0[:-1] == d1[:-1] and d0.endswith("0") and d1.endswith("1")):
                continue
            p = perm[i]
            if perm[i + 1] != p + 1:
                continue
            r0, r1 = rng[p], rng[p + 1]
            if not (r0[:-1] == r1[:-1] and r0.endswith("0") and r1.endswith("1")):
                continue
            dom[i : i + 2] = [d0[:-1]]
            rng[p : p + 2] = [r0[:-1]]
            del perm[i + 1]
            for k in range(len(perm)):
                if perm[k] > p:
                    perm[k] -= 1
            changed = True
            break
    return PrefixMap(tuple(dom), tuple(rng), tuple(perm))


def _refine(a: tuple[str, ...], b: tuple[str, ...]) -> list[str]:
    """Common refinement of two complete antichains (both sorted)."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif y.startswith(x):
            while j < len(b) and b[j].startswith(x):
                out.append(b[j])
                j += 1
            i += 1
        elif x.startswith(y):
            while i < len(a) and a[i].startswith(y):
                out.append(a[i])
                i += 1
            j += 1
        else:  # complete antichains always nest
            raise ValueError("antichains do not refine")
    return out


def _leaf_containing(chain: tuple[str, ...], s: str) -> int:
    """Index of the antichain leaf that is a prefix of s."""
    k = bisect_right(chain, s)
    if k and s.startswith(chain[k - 1]):  # only the last leaf <= s can be a prefix of s
        return k - 1
    raise ValueError(f"{s!r} not under antichain")


def compose(f: PrefixMap, g: PrefixMap) -> PrefixMap:
    """Apply f, then g; result is minimized."""
    mid = _refine(f.range_, g.domain)
    inv_f = [0] * len(f.perm)
    for i, p in enumerate(f.perm):
        inv_f[p] = i
    pairs = []
    for c in mid:
        j = _leaf_containing(f.range_, c)
        d = f.domain[inv_f[j]] + c[len(f.range_[j]):]
        i2 = _leaf_containing(g.domain, c)
        r = g.range_[g.perm[i2]] + c[len(g.domain[i2]):]
        pairs.append((d, r))
    pairs.sort()
    dom = tuple(d for d, _ in pairs)
    images = [r for _, r in pairs]
    rank = {r: k for k, r in enumerate(sorted(images))}
    return minimize(PrefixMap(dom, tuple(sorted(images)), tuple(rank[r] for r in images)))


def invert_map(m: PrefixMap) -> PrefixMap:
    inv = [0] * len(m.perm)
    for i, p in enumerate(m.perm):
        inv[p] = i
    return PrefixMap(m.range_, m.domain, tuple(inv))


def map_power(m: PrefixMap, k: int) -> PrefixMap:
    if k < 0:
        return map_power(invert_map(m), -k)
    out = identity_map()
    for _ in range(k):
        out = compose(out, m)
    return out


def equals_identity(m: PrefixMap) -> bool:
    return m.domain == m.range_ and m.perm == tuple(range(len(m.perm)))


_GEN_MAPS: dict[tuple[str, int], PrefixMap] = {}


def generator_map(g: Generator) -> PrefixMap:
    key = (g.symbol, g.sign)
    if key not in _GEN_MAPS:
        base = treepair_to_map(GENERATOR_PAIRS[g.symbol])
        _GEN_MAPS[(g.symbol, 1)] = base
        _GEN_MAPS[(g.symbol, -1)] = invert_map(base)
    return _GEN_MAPS[key]


def word_to_map(w: Word) -> PrefixMap:
    """Compose generator maps left to right; result is minimized."""
    m = identity_map()
    for g in w.letters:
        m = compose(m, generator_map(g))
    return m


def image_of_zero(m: PrefixMap) -> str:
    """Binary expansion of the image of the point 0 (trailing zeros kept)."""
    return m.range_[m.perm[0]]


# -- words from maps ----------------------------------------------------------


def _posword_indices(t) -> list[int]:
    """Indices i1, i2, ... with x_{i1} x_{i2} ... mapping tree t to the comb.

    At (left, right): comb ``right`` with every index one higher; then,
    if left = (ll, lr), index 0 rotates to (ll, (lr, comb)), combed in
    turn.  An explicit stack holds the pending work, so no tree is too deep."""
    out = []
    stack = [(t, 0)]  # (tree, index offset) to comb, or an index to emit
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            out.append(item)
        elif item[0] is not None:
            (left, right), shift = item
            if left is not None:
                ll, lr = left
                stack.append(((ll, (lr, comb(num_leaves(right)))), shift))
                stack.append(shift)
            stack.append((right, shift + 1))
    return out


def _expand_index(i: int, sign: int) -> list[Generator]:
    """x_0 = x0, x_i = x0^-(i-1) x1 x0^(i-1) for i >= 1."""
    if i == 0:
        return [Generator("x0", sign)]
    body = [Generator("x0", -1)] * (i - 1) + [Generator("x1", 1)] + [Generator("x0", 1)] * (i - 1)
    if sign < 0:
        body = [g.inverse() for g in reversed(body)]
    return body


def word_from_map_f(m: PrefixMap, group: str = "F") -> Word:
    """A word over {x0, x1} evaluating to the F map ``m``."""
    if m.perm != tuple(range(len(m.perm))):
        raise ValueError("map is not order-preserving, not an element of F")
    letters: list[Generator] = []
    for i in _posword_indices(tree_from_antichain(m.domain)):
        letters.extend(_expand_index(i, 1))
    for i in reversed(_posword_indices(tree_from_antichain(m.range_))):
        letters.extend(_expand_index(i, -1))
    w = Word(group, tuple(letters))
    assert word_to_map(w) == minimize(m), "normal form failed to reproduce the map"
    return w


def block_word(d: int, inverted: int | None, group: str) -> Word:
    """x0 acting on each of the 2^d dyadic blocks of [0,1]; block
    ``inverted`` (an index below 2^d) carries x0^-1 instead.  The closed
    diagram has 2^d alike components, one per block."""
    dom: list[str] = []
    rng: list[str] = []
    for i in range(2**d):
        b = format(i, f"0{d}b") if d else ""
        up, down = [b + "00", b + "01", b + "1"], [b + "0", b + "10", b + "11"]
        if i == inverted:
            up, down = down, up
        dom += up
        rng += down
    return word_from_map_f(PrefixMap(tuple(dom), tuple(rng), tuple(range(len(dom)))), group)


def _f_map_moving_cut(q: str) -> PrefixMap:
    """An order-preserving map sending the dyadic point 3/4 to 0.q (q ends in 1)."""
    dom = ["0", "10", "11"]  # cut after two leaves, at 3/4
    rng = antichain(tree_with_cut(q))
    cut_at = sum(1 for s in rng if s < q)  # leaves left of the cut
    # pad so both sides of the cut have matching leaf counts
    def pad(chain, cut, want_left, want_right):
        chain = list(chain)
        while cut < want_left:
            s = chain[cut - 1] if cut else chain[0]
            chain[cut - 1 : cut] = [s + "0", s + "1"]
            cut += 1
        while len(chain) - cut < want_right:
            s = chain[-1]
            chain[-1:] = [s + "0", s + "1"]
        return chain, cut

    left = max(2, cut_at)
    right = max(1, len(rng) - cut_at)
    dom, _ = pad(dom, 2, left, right)
    rng, _ = pad(rng, cut_at, left, right)
    m = PrefixMap(tuple(dom), tuple(rng), tuple(range(len(dom))))
    return minimize(m)


def word_from_map_t(m: PrefixMap) -> Word:
    """A word over {x0, x1, c} evaluating to the T map ``m``.

    Factors m = a . c . b where a, b fix 0: the image of 0 under m is
    moved back through c's image of 0 (the point 3/4).
    """
    q = image_of_zero(m).rstrip("0")
    if not q:
        return word_from_map_f(m, group="T")
    b = _f_map_moving_cut(q)
    c_map = generator_map(Generator("c", 1))
    a = compose(compose(m, invert_map(b)), invert_map(c_map))
    assert not image_of_zero(a).rstrip("0"), "factorization did not fix 0"
    wa = word_from_map_f(a, group="T")
    wb = word_from_map_f(b, group="T")
    w = Word("T", wa.letters + (Generator("c", 1),) + wb.letters)
    assert word_to_map(w) == minimize(m)
    return w


# -- bounded conjugator search ------------------------------------------------


def _alphabet(group: str) -> list[Generator]:
    out = []
    for sym in ALPHABETS[group]:
        out.append(Generator(sym, 1))
        out.append(Generator(sym, -1))
    return out


def brute_conj_witness(w1: Word, w2: Word, max_len: int) -> Word | None:
    """Search for g with g^-1 . w1 . g == w2 (oracle equality) among the
    freely reduced words of at most ``max_len`` letters; None if none is.

    A meet-in-the-middle search finds whether there is a witness and the
    least length L of one.  If ``max_len`` is at most 9, a breadth-first
    search up to L then returns the first witness of length L in
    generator order; past 9 the meet search's own witness is returned.
    Either way the cost is exponential and meant for desk-scale
    validation only.
    """
    if w1.group != w2.group:
        raise AlphabetError("words live in different groups")
    group = w1.group
    m1 = word_to_map(w1)
    m2 = word_to_map(w2)
    witness = _witness_meet(group, m1, m2, max_len)
    if witness is None or max_len > 9:
        return witness
    return _witness_bfs(group, m1, m2, len(witness))


def _witness_bfs(group: str, m1: PrefixMap, m2: PrefixMap, max_len: int) -> Word | None:
    for length in range(max_len + 1):
        for letters, gm in _conjugators(group, length):
            # test m1 . g == g . m2, equivalent to g^-1 m1 g == m2
            if compose(m1, gm) == compose(gm, m2):
                return Word(group, letters)
    return None


@cache
def _conjugators(group: str, length: int) -> tuple[tuple[tuple[Generator, ...], PrefixMap], ...]:
    """The freely reduced words of ``length`` letters with their maps, in
    search order.  They do not depend on the pair searched, so each
    layer is built once and kept for the life of the process."""
    if length == 0:
        return (((), identity_map()),)
    gens = _alphabet(group)
    return tuple(
        (letters + (g,), compose(gm, generator_map(g)))
        for letters, gm in _conjugators(group, length - 1)
        for g in gens
        if not (letters and letters[-1] == g.inverse())
    )


def _witness_meet(group: str, m1: PrefixMap, m2: PrefixMap, max_len: int) -> Word | None:
    """A witness g = g1 g2 of least length, met between the conjugates
    g1^-1 m1 g1 (g1 grown at its end) and g2 m2 g2^-1 (g2 grown at its
    start).  Either way the new letter goes on the outside, so a layer's
    conjugate depends only on the previous one and that letter, and a
    layer may keep one word per conjugate: it still holds, or a shallower
    layer does, the conjugate of every freely reduced word of its length.
    The first total met is thus the least length of a witness, and the
    word met there is freely reduced."""
    gens = [(g, g.inverse(), generator_map(g), generator_map(g.inverse()))
            for g in _alphabet(group)]
    h1 = (max_len + 1) // 2
    h2 = max_len // 2

    def cones(m, at_end: bool, depth: int):
        # layers[l] maps canonical conjugate -> word of l letters achieving it
        layers = [{(m.domain, m.range_, m.perm): ()}]
        frontier = [((), m)]
        for _ in range(depth):
            nxt = []
            seen = {}
            for letters, conj in frontier:
                for g, g_inv, gm, gm_inv in gens:
                    if at_end:  # (w g)^-1 m (w g) = g^-1 conj g
                        if letters and letters[-1] == g_inv:
                            continue
                        word = letters + (g,)
                        c2 = compose(compose(gm_inv, conj), gm)
                    else:  # (g w) m (g w)^-1 = g conj g^-1
                        if letters and letters[0] == g_inv:
                            continue
                        word = (g,) + letters
                        c2 = compose(compose(gm, conj), gm_inv)
                    key = (c2.domain, c2.range_, c2.perm)
                    if key not in seen:
                        seen[key] = word
                        nxt.append((word, c2))
            layers.append(seen)
            frontier = nxt
        return layers

    left = cones(m1, True, h1)    # g1^-1 m1 g1
    right = cones(m2, False, h2)  # g2 m2 g2^-1
    for total in range(max_len + 1):
        for l1 in range(min(total, h1) + 1):
            l2 = total - l1
            if l2 > h2:
                continue
            small, big = (left[l1], right[l2])
            if len(big) < len(small):
                small, big = big, small
            for key in small:
                if key in big:
                    g1 = left[l1][key]
                    g2 = right[l2][key]
                    return Word(group, g1 + g2)
    return None
